import os
import struct
import tracemalloc

import numpy as np
import pytest

from stancemoe.encoder import (
    StoreFormatError,
    ToyEncoderParams,
    embed_sequence,
    encode,
    encode_backward,
    read_embedding_store,
    sinusoidal_positions,
    write_embedding_store,
)
from stancemoe import encoder
from stancemoe.metrics import metrics_from_labels
from stancemoe.model import ModelParams, make_batch, model_backward, model_forward
from stancemoe.ops import LinearParams, Padded, grad_check
from stancemoe.train import EnsembleModel, FoldArtifact, ensemble_forward, predict_logits
from conftest import random_example, toy_example


def precomputed_model(d):
    return ModelParams.init(8, d, 10, np.random.default_rng(0), encoder_mode="precomputed")


def zero_encoder(vocab_size=8, d=4, max_len=10):
    return ToyEncoderParams(
        embedding=np.zeros((vocab_size, d)),
        positions=sinusoidal_positions(max_len, d),
        query=LinearParams(np.zeros((d, d)), np.zeros(d)),
        key=LinearParams(np.zeros((d, d)), np.zeros(d)),
        value=LinearParams(np.zeros((d, d)), np.zeros(d)),
    )


class TestEncode:
    def test_single_token_shape_and_cls(self):
        params = ToyEncoderParams.init(8, 6, 10, np.random.default_rng(0))
        out = encode(params, [1])
        assert out.H.shape == (1, 6)

    def test_shapes_track_length(self):
        rng = np.random.default_rng(1)
        params = ToyEncoderParams.init(10, 4, 12, rng)
        for T in (1, 3, 7, 12):
            ids = [1] + [int(rng.integers(3, 10)) for _ in range(T - 1)]
            out = encode(params, ids)
            assert out.H.shape == (T, 4)

    def test_zero_params_give_zero_output(self):
        out = encode(zero_encoder(), [1, 3, 4])
        np.testing.assert_array_equal(out.H, np.zeros((3, 4)))

    def test_token_swap_permutes_preattention_rows(self):
        params = ToyEncoderParams.init(10, 4, 12, np.random.default_rng(2))
        params.positions = np.zeros_like(params.positions)  # disable positions
        a = embed_sequence(params, [1, 3, 4, 5])
        b = embed_sequence(params, [1, 4, 3, 5])
        np.testing.assert_array_equal(a[1], b[2])
        np.testing.assert_array_equal(a[2], b[1])
        np.testing.assert_array_equal(a[0], b[0])

    def test_out_of_vocab_maps_to_unk(self):
        params = ToyEncoderParams.init(6, 4, 8, np.random.default_rng(3))
        np.testing.assert_array_equal(
            encode(params, [1, 99]).H, encode(params, [1, 2]).H
        )

    def test_length_beyond_position_table_raises(self):
        params = ToyEncoderParams.init(6, 4, 3, np.random.default_rng(4))
        with pytest.raises(ValueError):
            encode(params, [1, 3, 4, 5])

    def test_gradients_pass_finite_differences(self):
        rng = np.random.default_rng(5)
        params = ToyEncoderParams.init(9, 5, 8, rng)
        ids = [1, 3, 4, 3, 7]
        weights = rng.normal(size=(5, 5))

        def f():
            params.zero_grads()
            out = encode(params, ids)
            encode_backward(params, ids, weights * out.H)
            return 0.5 * float(np.sum(weights * out.H**2))

        rep = grad_check(f, params.named_params(), h=1e-4)
        assert rep.max_rel_err < 1e-3

    def test_repeated_token_gradients_accumulate(self):
        # same token at two positions: embedding row gradient is the sum
        params = zero_encoder(d=2)
        params.value.weight[:] = np.eye(2)
        ids = [3, 3]
        params.zero_grads()
        out = encode(params, ids)
        encode_backward(params, ids, np.ones_like(out.H))
        assert params.grad_embedding[3] @ np.ones(2) != 0.0
        assert not params.grad_embedding[4].any()


class TestSinusoidalPositions:
    def test_shape_and_scale(self):
        table = sinusoidal_positions(20, 8)
        assert table.shape == (20, 8)
        assert np.abs(table).max() <= 1.0 / np.sqrt(8) + 1e-12

    def test_rows_distinct(self):
        table = sinusoidal_positions(16, 6)
        assert np.ptp(table, axis=0).max() > 0.0


def _last_value_set_to(value):
    """A store corruption: its last value, the file's last four bytes, set
    to ``value``."""
    return lambda raw: raw[:-4] + np.array(value, "<f4").tobytes()


class TestEmbeddingStore:
    def roundtrip_data(self, rng, d=6):
        # float32-representable payloads so the roundtrip is bitwise
        return [
            (f"ex{i}", rng.normal(size=(int(rng.integers(1, 9)), d))
             .astype(np.float32).astype(np.float64))
            for i in range(5)
        ]

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        records = self.roundtrip_data(rng)
        path = tmp_path / "emb.smeb"
        assert write_embedding_store(path, records) == 5
        store, d = read_embedding_store(path)
        assert d == 6
        for name, H in records:
            # the on-disk bits, held as read-only float32 views
            assert store[name].dtype == np.float32
            assert not store[name].flags.writeable
            assert store[name].tobytes() == H.astype("<f4").tobytes()

    def test_load_precomputed_cls_row(self, tmp_path):
        rng = np.random.default_rng(7)
        records = self.roundtrip_data(rng)
        path = tmp_path / "emb.smeb"
        write_embedding_store(path, records)
        store, d = read_embedding_store(path)
        H = store["ex2"]
        example = toy_example(range(H.shape[0]), example_id="ex2")
        out = model_forward(precomputed_model(d), example, store)
        np.testing.assert_array_equal(out.H, records[2][1])
        np.testing.assert_array_equal(out.h_cls, records[2][1][0])

    @pytest.mark.parametrize("head", ["moe", "stacked", "fusion"])
    def test_rows_from_disk_give_the_outputs_of_float64_rows(self, tmp_path, head):
        """A batch widens the file's float32 rows to float64, and forward,
        backward and the ensemble on them equal, bit for bit, the same rows
        held as float64: one example, a ragged list and a fold stack."""
        rng = np.random.default_rng(8)
        examples = [random_example(rng, 8, T, example_id=f"ex{i}")
                    for i, T in enumerate((7, 2, 10, 4))]
        path = tmp_path / "emb.smeb"
        write_embedding_store(path, [(ex.id, rng.normal(size=(len(ex.token_ids), 6)))
                                     for ex in examples])
        disk, d = read_embedding_store(path)
        wide = {name: H.astype(np.float64) for name, H in disk.items()}
        folds = [FoldArtifact(j, ModelParams.init(8, d, 10, rng, n_filters=2, head=head,
                                                  encoder_mode="precomputed"),
                              metrics_from_labels([0, 1, 2], [0, 1, 2]))
                 for j in range(2)]
        ensemble = EnsembleModel(folds=folds, weights=np.array([0.3, 0.7]))
        params = folds[0].params
        for inputs in (examples[0], examples):
            assert make_batch(params, inputs, disk).H.data.dtype == np.float64
            dlogits = rng.normal(size=(3,) if inputs is examples[0] else (len(inputs), 3))
            runs = []
            for store in (disk, wide):
                params.zero_grads()
                out = model_forward(params, inputs, store)
                model_backward(params, inputs, out, dlogits)
                stacked = model_forward(ensemble.stacked, inputs, store)
                runs.append([out.logits, out.gate_weights, *out.expert_vectors,
                             *(grad for _, _, grad in params.named_params()),
                             stacked.logits, stacked.gate_weights,
                             *ensemble_forward(ensemble, inputs, store)])
            assert ([np.asarray(a).tobytes() for a in runs[0]]
                    == [np.asarray(b).tobytes() for b in runs[1]])

    def test_read_peak_memory_is_about_the_file_size(self, tmp_path):
        path = tmp_path / "emb.smeb"
        rng = np.random.default_rng(9)
        write_embedding_store(path, [(f"ex{i}", rng.normal(size=(40, 64)))
                                     for i in range(200)])
        tracemalloc.start()
        try:
            store, _ = read_embedding_store(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 200
        assert peak <= 1.25 * path.stat().st_size

    def test_missing_id_is_lookup_error(self, tmp_path):
        path = tmp_path / "emb.smeb"
        write_embedding_store(path, [("only", np.zeros((2, 3), np.float32))])
        store, d = read_embedding_store(path)
        with pytest.raises(KeyError, match="nope"):
            predict_logits(precomputed_model(d), [toy_example([1, 2], example_id="nope")],
                           store)

    # the id byte of record "a" follows the 6-byte magic, 8-byte header and u16
    # id length; its u32 length T follows the id
    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: raw[: len(raw) - 7], "truncated"),
        (lambda raw: raw + b"\x00\x01", "trailing bytes"),
        (lambda raw: raw[:16] + b"\xff" + raw[17:], "record id is not valid UTF-8"),
        # d = 2**10 and T = 2**31: 8 TiB of float32 declared in a 69-byte file
        (lambda raw: raw[:6] + struct.pack("<I", 1 << 10) + raw[10:17]
         + struct.pack("<I", 1 << 31) + raw[21:],
         "record 'a' payload: 8796093022208 bytes declared, 48 left"),
        # T = 0 and no payload: a record without its CLS row
        (lambda raw: raw[:17] + struct.pack("<I", 0), "record 'a' has no rows"),
        (_last_value_set_to(np.nan), "record 'a' holds a non-finite value"),
        (_last_value_set_to(np.inf), "record 'a' holds a non-finite value"),
        (_last_value_set_to(-np.inf), "record 'a' holds a non-finite value"),
    ], ids=["truncated", "trailing-bytes", "id-not-utf8", "huge-payload", "zero-rows",
            "nan", "inf", "-inf"])
    def test_corrupt_file_is_format_error(self, tmp_path, corrupt, message):
        path = tmp_path / "emb.smeb"
        write_embedding_store(path, [("a", np.ones((4, 3), np.float32))])
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(StoreFormatError, match=message) as excinfo:
            read_embedding_store(path)
        assert str(path) in str(excinfo.value)

    def test_every_truncation_is_format_error(self, tmp_path):
        path = tmp_path / "emb.smeb"
        write_embedding_store(path, [("a", np.ones((4, 3), np.float32)),
                                     ("bb", np.zeros((1, 3), np.float32))])
        for n in reversed(range(path.stat().st_size)):
            os.truncate(path, n)
            with pytest.raises(StoreFormatError) as excinfo:
                read_embedding_store(path)
            assert str(path) in str(excinfo.value), n

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "emb.smeb"
        path.write_bytes(b"NOTME1\0\0\0\0\0\0\0\0")
        with pytest.raises(StoreFormatError, match="magic"):
            read_embedding_store(path)

    def test_mismatched_widths_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_embedding_store(tmp_path / "emb.smeb",
                                  [("a", np.zeros((2, 3))), ("b", np.zeros((2, 4)))])

    @pytest.mark.parametrize("records, message", [
        ([("a", np.zeros((2, 3))), ("a", np.ones((2, 3)))], "duplicate record id 'a'"),
        ([("a", np.zeros(3))], r"record 'a' has shape \(3,\)"),
        ([("a", np.zeros((2, 3))), ("b", np.zeros((0, 3)))], r"record 'b' has shape \(0, 3\)"),
        ([("a", np.zeros((2, 3))), ("b", np.array([[0.0, np.nan, 0.0]]))],
         "record 'b' holds a non-finite value"),
        # a finite float64 beyond float32's range would be stored as inf
        ([("a", np.array([[1e39]]))], "record 'a' holds a non-finite value as float32"),
    ], ids=["duplicate-id", "first-not-2d", "zero-rows", "nan", "beyond-float32"])
    def test_writer_rejects_what_the_reader_rejects(self, tmp_path, records, message):
        path = tmp_path / "emb.smeb"
        with pytest.raises(ValueError, match=message):
            write_embedding_store(path, records)
        assert not path.exists()

    def test_payload_is_little_endian_float32(self, tmp_path):
        path = tmp_path / "emb.smeb"
        H = np.arange(6.0).reshape(2, 3)
        write_embedding_store(path, [("a", H.astype(">f4"))])
        assert path.read_bytes()[21:] == H.astype("<f4").tobytes()


def _encoder_grads(params):
    return {name: grad.copy() for name, _, grad in params.named_params()}


@pytest.mark.parametrize("ragged", [False, True], ids=["one-sequence", "padded-stack"])
def test_backward_from_the_forward_cache_equals_backward_from_ids(ragged):
    rng = np.random.default_rng(11)
    params = ToyEncoderParams.init(12, 5, 16, rng)
    if ragged:
        seqs = [[1] + list(rng.integers(3, 12, size=T - 1)) for T in (6, 2, 9, 4)]
        ids = Padded.stack(seqs, dtype=np.intp)
    else:
        ids = [1, 4, 7, 4, 9, 3, 4]  # a repeated id sums its rows
    out = encode(params, ids)
    dH = rng.normal(size=(out.H.data if ragged else out.H).shape)
    params.zero_grads()
    encode_backward(params, ids, dH, out.cache)
    cached = _encoder_grads(params)
    params.zero_grads()
    encode_backward(params, ids, dH)
    raw = _encoder_grads(params)
    assert cached.keys() == raw.keys()
    assert {"encoder/embedding", "encoder/query/weight", "encoder/key/weight",
            "encoder/value/weight"} <= cached.keys()
    for name, grad in cached.items():
        np.testing.assert_array_equal(grad, raw[name], err_msg=name)
        assert grad.any(), name


def test_forward_and_backward_embed_and_attend_once(monkeypatch):
    calls = {"embed_sequence": 0, "_attend": 0}
    for name in calls:
        real = getattr(encoder, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(encoder, name, counted)
    params = ModelParams.init(20, 8, 16, np.random.default_rng(0))
    examples = [toy_example([1, 5, 6, 7], cue=(2,), contrast=(3,)),
                toy_example([1, 8, 9], cue=(1,), contrast=(2,))]
    out = model_forward(params, examples)
    model_backward(params, examples, out, np.ones((2, 3)))
    assert calls == {"embed_sequence": 1, "_attend": 1}
    assert params.encoder.grad_embedding.any()
