import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from stancemoe.checkpoint import (
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from stancemoe.model import ModelParams
from stancemoe.text import Vocab
from stancemoe.train import TrainConfig, ensemble_forward, evaluate_ensemble, run_kfold
from conftest import nan_in_tensor
from smck1_fixtures import FIXTURE_DIR, examples_and_store

RECORDED = json.loads((FIXTURE_DIR / "smck1.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def trained(corpus90, lexicon):
    examples, vocab = corpus90
    cfg = TrainConfig(max_len=32, batch_size=8, epochs=1, k=2, hidden_dim=10,
                      cnn_filters=2)
    ensemble = run_kfold(cfg, examples, vocab)
    return examples, vocab, cfg, ensemble


class TestRoundtrip:
    def test_everything_survives(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        ckpt = load_checkpoint(path)

        assert ckpt.config == cfg
        assert ckpt.vocab.tokens == vocab.tokens
        assert ckpt.lexicon.cue_tokens == lexicon.cue_tokens
        assert ckpt.lexicon.contrast_tokens == lexicon.contrast_tokens
        np.testing.assert_array_equal(ckpt.ensemble.weights, ensemble.weights)

        for orig, loaded in zip(ensemble.folds, ckpt.ensemble.folds):
            assert loaded.val_macro_f1 == orig.val_macro_f1
            for (name_a, val_a, _), (name_b, val_b, _) in zip(
                orig.params.named_params(), loaded.params.named_params()
            ):
                assert name_a == name_b
                np.testing.assert_array_equal(val_a, val_b)

    def test_predictions_identical_after_reload(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        ckpt = load_checkpoint(path)
        _, logits_a = evaluate_ensemble(ensemble, examples[:20])
        _, logits_b = evaluate_ensemble(ckpt.ensemble, examples[:20])
        np.testing.assert_array_equal(logits_a, logits_b)

    def test_ensemble_forward_identical_after_reload(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        ckpt = load_checkpoint(path)
        for ex in examples[:20]:
            logits_a, probs_a, cls_a, gate_a = ensemble_forward(ensemble, ex)
            logits_b, probs_b, cls_b, gate_b = ensemble_forward(ckpt.ensemble, ex)
            np.testing.assert_array_equal(logits_a, logits_b)
            np.testing.assert_array_equal(probs_a, probs_b)
            np.testing.assert_array_equal(gate_a, gate_b)
            assert cls_a == cls_b

    def test_an_empty_vocabulary_token_is_not_written(self, trained, lexicon, tmp_path):
        """No tokenizer makes an empty token, so the reader refuses one too."""
        _, vocab, cfg, ensemble = trained
        path = tmp_path / "empty-token.smck"
        with pytest.raises(ValueError, match=r"^vocab\[2\] is an empty token"):
            save_checkpoint(path, ensemble, cfg, Vocab([*vocab.tail[:2], "", *vocab.tail[2:]]),
                            lexicon)
        assert not path.exists()

    def test_save_is_deterministic(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        p1, p2 = tmp_path / "a.smck", tmp_path / "b.smck"
        save_checkpoint(p1, ensemble, cfg, vocab, lexicon)
        save_checkpoint(p2, ensemble, cfg, vocab, lexicon)
        assert p1.read_bytes() == p2.read_bytes()

    def test_stacked_weights_are_shared_with_each_fold_across_a_reload(
            self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        ckpt = load_checkpoint(path)
        def operands(stacked):
            """(array, the product operand read from it) of every linear map's
            weight and every CNN tap's filters."""
            lins = [stacked.classifier, stacked.gate, stacked.bank.cnn_proj,
                    *stacked.bank.proj.values()]
            if stacked.encoder is not None:
                lins += [stacked.encoder.query, stacked.encoder.key, stacked.encoder.value]
            kernels = stacked.bank.cnn_kernels
            return ([(lin.weight, lin.weight.swapaxes(-1, -2)) for lin in lins]
                    + [(kernels, kernels[..., j, s:, :].swapaxes(-1, -2))
                       for j, s in enumerate(stacked.bank.tap_starts)])

        # a stack built again from folds that are views of the loaded stack
        restacked = ModelParams.stack([art.params for art in load_checkpoint(path).ensemble.folds])
        for stacked in (ensemble.stacked, ckpt.ensemble.stacked, restacked):
            for array, operand in operands(stacked):
                assert operand.strides[-1] == operand.itemsize  # read row-major
                assert np.shares_memory(operand, array)
        for ens in (ensemble, ckpt.ensemble):
            stacked = ens.stacked
            kernels = stacked.bank.cnn_kernels
            for j, art in enumerate(ens.folds):
                assert np.shares_memory(art.params.classifier.weight, stacked.classifier.weight)
                assert np.shares_memory(art.params.bank.cnn_kernels, kernels)
                np.testing.assert_array_equal(art.params.bank.cnn_kernels,
                                              stacked.bank.cnn_kernels[j])
        logits_a = ensemble_forward(ensemble, examples[:20])[0]
        logits_b = ensemble_forward(ckpt.ensemble, examples[:20])[0]
        np.testing.assert_array_equal(logits_a, logits_b)


class TestLoading:
    def test_draws_no_random_number_and_every_fold_is_forward_only(
            self, trained, lexicon, tmp_path, monkeypatch):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_checkpoint asked for a random generator")

        # checkpoint and model read np.random from the one numpy module
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        ckpt = load_checkpoint(path)
        for params in [art.params for art in ckpt.ensemble.folds] + [ckpt.ensemble.stacked]:
            assert params.forward_only
            assert all(grad is None for _, _, grad in params.named_params())

    def test_stored_shapes_are_checked_before_any_fold_is_allocated(self, tmp_path):
        """A width-4 file whose config declares width 600 fails on its first
        tensor at a peak of a few times the file, not of a width-600 model."""
        path = tmp_path / "wide.smck"
        path.write_bytes(_rewritten("moe_subset.smck",
                                    lambda meta: meta["config"].update(hidden_dim=600)))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointFormatError,
                               match=r"tensor 'fold0/encoder/embedding' has shape \(13, 4\), "
                                     r"expected \(13, 600\)"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * path.stat().st_size, peak / path.stat().st_size


@pytest.mark.parametrize("record", RECORDED["fixtures"], ids=lambda record: record["file"])
def test_a_committed_format_1_file_loads_resaves_and_predicts_as_written(record, tmp_path):
    """Files written by an earlier commit: a path or order change made the
    same way in save and load would pass every round trip, but not this."""
    path = FIXTURE_DIR / record["file"]
    ckpt = load_checkpoint(path)
    resaved = tmp_path / "resaved.smck"
    save_checkpoint(resaved, ckpt.ensemble, ckpt.config, ckpt.vocab, ckpt.lexicon)
    assert resaved.read_bytes() == path.read_bytes()
    for art, seed in zip(ckpt.ensemble.folds, record["fold_seeds"], strict=True):
        fresh = ckpt.config.build_model(len(ckpt.vocab), np.random.default_rng(seed))
        for (name, value, _), (fresh_name, fresh_value, _) in zip(
                art.params.named_params(), fresh.named_params(), strict=True):
            assert name == fresh_name
            assert value.shape == fresh_value.shape, name
            assert value.tobytes() == fresh_value.tobytes(), name
    examples, store = examples_and_store(ckpt.vocab, ckpt.config, record["store_seed"])
    logits = ensemble_forward(ckpt.ensemble, examples, store)[0]
    np.testing.assert_allclose(logits, record["logits"], rtol=0, atol=1e-12)


def _set_byte(raw: bytes, offset: int) -> bytes:
    """Overwrite one byte with 0xff, which is never valid UTF-8."""
    return raw[:offset] + b"\xff" + raw[offset + 1:]


def _first_key_offset(raw: bytes) -> int:
    """Offset of the first tensor key byte: magic (6), u32 metadata length,
    the metadata, u32 tensor count, u16 key length."""
    (meta_len,) = struct.unpack("<I", raw[6:10])
    return 10 + meta_len + 4 + 2


def _huge_first_tensor(raw: bytes) -> bytes:
    """The first tensor's two dims set to 2**20 each: 8 TiB of float64
    declared in a file of a few KiB."""
    key = _first_key_offset(raw)
    (key_len,) = struct.unpack("<H", raw[key - 2:key])
    assert raw[key + key_len] == 2  # the u8 rank
    dims = key + key_len + 1
    return raw[:dims] + struct.pack("<2I", 1 << 20, 1 << 20) + raw[dims + 8:]


def _record(key: str, value: np.ndarray) -> bytes:
    raw = key.encode("utf-8")
    return (struct.pack("<H", len(raw)) + raw + struct.pack("<B", value.ndim)
            + struct.pack(f"<{value.ndim}I", *value.shape) + value.astype("<f8").tobytes())


def _append_record(raw: bytes, record: bytes) -> bytes:
    """One more record after the last, counted in the tensor count."""
    count = _first_key_offset(raw) - 6
    (n,) = struct.unpack("<I", raw[count:count + 4])
    return raw[:count] + struct.pack("<I", n + 1) + raw[count + 4:] + record


def _changed_copy_of_first_tensor(raw: bytes) -> bytes:
    """A second record with the first record's key and a changed value."""
    key = _first_key_offset(raw)
    (key_len,) = struct.unpack("<H", raw[key - 2:key])
    ndim = raw[key + key_len]
    dims = struct.unpack(f"<{ndim}I", raw[key + key_len + 1:key + key_len + 1 + 4 * ndim])
    value = np.full(dims, 0.5)
    return _append_record(raw, _record(raw[key:key + key_len].decode("utf-8"), value))


def _rewritten(fixture: str, change) -> bytes:
    """The committed ``fixture`` file with ``change`` applied to its
    metadata, in place."""
    raw = (FIXTURE_DIR / fixture).read_bytes()
    (n,) = struct.unpack("<I", raw[6:10])
    meta = json.loads(raw[10:10 + n])
    change(meta)
    text = json.dumps(meta, sort_keys=True).encode("utf-8")
    return raw[:6] + struct.pack("<I", len(text)) + text + raw[10 + n:]


def _metadata(**changes) -> bytes:
    """Metadata with every key present and no folds, updated with ``changes``."""
    meta = {"format": 1, "config": TrainConfig().to_dict(), "vocab": [],
            "cue_tokens": ["claims"], "contrast_tokens": ["but"], "weights": [],
            "fold_val_metrics": []}
    return json.dumps({**meta, **changes}).encode("utf-8")


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.smck"
        path.write_bytes(b"WRONG!\0\0\0\0\0")
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: raw[: int(len(raw) * 0.7)], "truncated"),
        (lambda raw: raw + b"\x00\x01\x02", "trailing bytes"),
        (lambda raw: _set_byte(raw, 10), "metadata is not valid UTF-8"),  # first metadata byte
        (lambda raw: _set_byte(raw, _first_key_offset(raw)), "tensor key is not valid UTF-8"),
        (_huge_first_tensor, "tensor 'fold0/encoder/embedding' payload: "
                             "8796093022208 bytes declared"),
        (_changed_copy_of_first_tensor, "duplicate tensor 'fold0/encoder/embedding'"),
        (lambda raw: _append_record(raw, _record("fold9/xyz", np.zeros(2))),
         "tensor 'fold9/xyz' is not a parameter of any fold"),
        (lambda raw: nan_in_tensor(raw, "fold1/classifier/bias"),
         "tensor 'fold1/classifier/bias' holds a non-finite value"),
    ], ids=["truncated", "trailing-bytes", "metadata-not-utf8", "key-not-utf8",
            "huge-payload", "duplicate-key", "unread-key", "nan"])
    def test_corrupt_file(self, trained, lexicon, tmp_path, corrupt, message):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(CheckpointFormatError, match=message) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)

    def test_every_truncation_is_format_error(self, corpus90, lexicon, tmp_path):
        examples, vocab = corpus90
        cfg = TrainConfig(max_len=16, batch_size=8, epochs=1, k=2, hidden_dim=2,
                          cnn_filters=1)
        path = tmp_path / "model.smck"
        save_checkpoint(path, run_kfold(cfg, examples, vocab), cfg, vocab, lexicon)
        for n in reversed(range(path.stat().st_size)):
            os.truncate(path, n)
            with pytest.raises(CheckpointFormatError) as excinfo:
                load_checkpoint(path)
            assert str(path) in str(excinfo.value), n

    def test_writer_refuses_a_non_finite_tensor(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        bias = ensemble.folds[1].params.classifier.bias
        kept = bias[0]
        bias[0] = np.inf
        try:
            with pytest.raises(ValueError,
                               match="tensor 'fold1/classifier/bias' holds a non-finite value"):
                save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        finally:
            bias[0] = kept
        assert not path.exists()

    def test_unknown_format_version(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        raw = path.read_bytes()
        assert raw.count(b'"format": 1') == 1
        path.write_bytes(raw.replace(b'"format": 1', b'"format": 7'))
        with pytest.raises(CheckpointFormatError, match="format 7"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fixture, index, token, match", [
        ("stacked_precomputed.smck", 0, 17, r"vocab\[0\] 17 is not a new, non-reserved string$"),
        ("stacked_precomputed.smck", 0, None, r"vocab\[0\] None is not a new"),
        ("stacked_precomputed.smck", 1, "the", r"vocab\[1\] 'the' is not a new"),
        ("stacked_precomputed.smck", 0, "[PAD]", r"vocab\[0\] '\[PAD\]' is not a new"),
        ("stacked_precomputed.smck", None, "abc", "vocab is a JSON str, not a list"),
        ("fusion.smck", 0, 17, r"vocab\[0\] 17 is not a new, non-reserved string$"),
        ("moe_subset.smck", 0, 17, r"vocab\[0\] 17 is not a new, non-reserved string$"),
        ("stacked_precomputed.smck", 2, "", r"vocab\[2\] is an empty token$"),
    ], ids=["number", "null", "repeat", "reserved", "string", "fusion-number",
            "moe-subset-number", "empty"])
    def test_malformed_vocab_names_the_first_bad_entry(self, tmp_path, fixture, index,
                                                        token, match):
        """Each of these once loaded, with a shorter vocabulary or one whose
        tokens encode as UNK, and shapes that still fit."""
        def change(meta):
            assert meta["vocab"][0] == "the"
            if index is None:
                meta["vocab"] = token
            else:
                meta["vocab"][index] = token

        path = tmp_path / fixture
        path.write_bytes(_rewritten(fixture, change))
        with pytest.raises(CheckpointFormatError,
                           match=f"^{path}: malformed metadata: {match}"):
            load_checkpoint(path)

    def test_a_weight_list_one_short_names_the_file(self, tmp_path):
        """Every fold's tensors are present, so the count check is reached."""
        path = tmp_path / "short-weights.smck"
        path.write_bytes(_rewritten("moe_subset.smck", lambda meta: meta["weights"].pop()))
        with pytest.raises(CheckpointFormatError,
                           match=f"^{path}: fold count and weight count disagree$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("metadata,match", [
        (b"[]", "JSON list, not an object"),
        (b'{"format": 1}', r"missing key\(s\) \['config', 'vocab'"),
        (_metadata(weights=["x", 1.0]), "malformed metadata: could not convert string"),
        (_metadata(cue_tokens=[]), "malformed metadata: cue lexicon is empty"),
        (_metadata(), "at least one fold"),
        (_metadata(fold_val_metrics=[1, 2]), "malformed metadata: 'int' object"),
        (_metadata(fold_val_metrics=[{"accuracy": 1}]),
         "malformed metadata: missing key 'confusion'"),
        (_metadata(fold_val_metrics={"x": 1}), "malformed metadata: string indices"),
        (_metadata(fold_val_metrics="ab"), "malformed metadata: string indices"),
        (_metadata(fold_val_metrics=[None, None]), "malformed metadata: 'NoneType' object"),
        (_metadata(cue_tokens=[1]), "malformed metadata: bad cue lexicon entry: 1"),
        (_metadata(fold_val_metrics=[{"confusion": [[1, 2], [3, 4]]}]),
         r"malformed metadata: confusion matrix must be 3 x 3, got shape \(2, 2\)"),
        (_metadata(fold_val_metrics=[{"confusion": [[1.7, 0, 0], [0, 1, 0], [0, 0, 2]]}]),
         r"malformed metadata: confusion matrix entry \[0, 0\] is 1.7, not a non-negative"),
        (_metadata(fold_val_metrics=[{"confusion": [[1, 0, 0], [0, -1, 0], [0, 0, 2]]}]),
         r"malformed metadata: confusion matrix entry \[1, 1\] is -1, not a non-negative"),
        (b"{not json", "metadata is not valid JSON: Expecting property name"),
        (_metadata(cue_tokens="claims"),
         "malformed metadata: cue_tokens is a JSON str, not a list"),
        (_metadata(contrast_tokens="however"),
         "malformed metadata: contrast_tokens is a JSON str, not a list"),
        (_metadata(cue_tokens={"claims": 1}),
         "malformed metadata: cue_tokens is a JSON dict, not a list"),
        (_metadata(weights=0.5), "malformed metadata: weights is a JSON float, not a list"),
        (_metadata(weights=[1.0], fold_val_metrics=[{"confusion": np.eye(3, dtype=int).tolist()}]),
         "checkpoint is missing tensor 'fold0/encoder/embedding'"),
    ], ids=["not-an-object", "missing-keys", "weights-not-numbers", "empty-cue-lexicon",
            "zero-folds", "fold-metrics-numbers", "fold-metrics-missing-key",
            "fold-metrics-object", "fold-metrics-string", "fold-metrics-nulls",
            "cue-lexicon-number", "fold-confusion-not-3x3", "fold-confusion-fractional",
            "fold-confusion-negative", "not-json", "cue-lexicon-string",
            "contrast-lexicon-string", "cue-lexicon-object", "weights-number",
            "missing-fold-tensor"])
    def test_malformed_metadata(self, tmp_path, metadata, match):
        path = tmp_path / "model.smck"
        path.write_bytes(b"SMCK1\0" + struct.pack("<I", len(metadata)) + metadata
                         + struct.pack("<I", 0))
        with pytest.raises(CheckpointFormatError, match=match) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
