"""A padded, length-masked batch is the same model as one example at a time."""

import dataclasses
import weakref

import numpy as np
import pytest

from stancemoe import experts, model
from stancemoe.checkpoint import load_checkpoint
from stancemoe.encoder import ToyEncoderParams, encode, encode_backward
from stancemoe.experts import EXPERT_NAMES, KERNEL_SIZES, STATISTICS
from stancemoe.model import ModelParams, model_backward, model_forward
from stancemoe.ops import Padded
from stancemoe.metrics import metrics_from_labels
from stancemoe.train import (ROWS_PER_MAX_LEN, Adam, EnsembleModel, FoldArtifact,
                             ensemble_forward, label_smoothed_ce_grad, length_buckets,
                             predict_logits)
from conftest import cnn_views, random_example, toy_example
from smck1_fixtures import FIXTURE_DIR, examples_and_store

VOCAB, D, MAX_LEN = 20, 6, 16


def mixed_examples(rng):
    """Lengths 2 to 12, so kernel sizes longer than a sequence leave zero CNN
    blocks; one example has an empty cue mask, one an empty contrast mask.
    Every id differs, so one store can hold all their rows."""
    examples = [random_example(rng, VOCAB, T, example_id=f"rnd{i}")
                for i, T in enumerate((7, 2, 12, 4, 9, 3))]
    examples.append(toy_example([1, 5, 6, 7, 8], cue=(), contrast=(2, 3), label=1,
                                example_id="no-cue"))
    examples.append(toy_example([1, 9, 10, 11, 12, 13], cue=(4,), contrast=(), label=2,
                                example_id="no-contrast"))
    return examples


def grads(params):
    return {name: grad.copy() for name, _, grad in params.named_params()}


SUBSET = ("max", "self_attention", "contrast")  # max and contrast statistics, no mean


@pytest.mark.parametrize("head,rows,active", [
    pytest.param("moe", "toy", EXPERT_NAMES, id="moe-toy"),
    pytest.param("stacked", "toy", EXPERT_NAMES, id="stacked-toy"),
    pytest.param("fusion", "toy", EXPERT_NAMES, id="fusion-toy"),
    pytest.param("moe", "store", EXPERT_NAMES, id="moe-precomputed"),
    pytest.param("moe", "prepared", EXPERT_NAMES, id="moe-prepared"),
    pytest.param("moe", "toy", SUBSET, id="subset-toy"),
    pytest.param("moe", "store", SUBSET, id="subset-precomputed"),
    pytest.param("moe", "prepared", SUBSET, id="subset-prepared"),
])
def test_batch_gradients_equal_summed_single_example_gradients(head, rows, active):
    """A padded list's gradients are the sum of its examples' alone, on the
    toy encoder, a plain store and PreparedRows; an expert subset forms the
    statistics of its own experts and no others."""
    rng = np.random.default_rng(0)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, head=head,
                              encoder_mode="toy" if rows == "toy" else "precomputed",
                              active_experts=active)
    examples = mixed_examples(rng)
    store = ({ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
             if rows != "toy" else None)
    if rows == "prepared":
        store = model.PreparedRows(params, examples, store)
    labels = np.array([ex.label for ex in examples])

    params.zero_grads()
    out = model_forward(params, examples, store)
    assert list(out.stats.values) == [name for name in STATISTICS if name in active]
    _, dlogits = label_smoothed_ce_grad(out.logits, labels, 0.25)
    model_backward(params, examples, out, dlogits)
    batched = grads(params)

    params.zero_grads()
    for ex in examples:
        one = model_forward(params, ex, store)
        _, dl = label_smoothed_ce_grad(one.logits, ex.label, 0.25)
        model_backward(params, ex, one, dl)
    summed = grads(params)

    for name, want in summed.items():
        np.testing.assert_allclose(batched[name], want, rtol=1e-10, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("encoder_mode,freeze", [("toy", True)], ids=["frozen"])
def test_no_input_gradient_when_nothing_consumes_it(monkeypatch, encoder_mode, freeze):
    """With no trainable encoder the backward forms no dL/dH, and every
    parameter gradient is bit for bit that of a backward which does."""
    rng = np.random.default_rng(3)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2,
                              encoder_mode=encoder_mode, freeze_encoder=freeze)
    examples = mixed_examples(rng)
    out = model_forward(params, examples)
    _, dlogits = label_smoothed_ce_grad(out.logits, [ex.label for ex in examples], 0.25)
    real = experts.run_all_experts_backward
    returned = []

    def spy(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    def forming(*args, **kwargs):
        returned.append(real(*args, **{**kwargs, "input_grad": True}))
        return None

    params.zero_grads()
    monkeypatch.setattr(model, "run_all_experts_backward", spy)
    model_backward(params, examples, out, dlogits)
    skipped = grads(params)
    params.zero_grads()
    monkeypatch.setattr(model, "run_all_experts_backward", forming)
    model_backward(params, examples, out, dlogits)
    formed = grads(params)
    assert returned[0] is None and returned[1].shape == (len(examples), 12, D)
    for name, want in formed.items():
        np.testing.assert_array_equal(skipped[name], want, err_msg=name)


def indicators(examples, T):
    """The (B, T) 0/1 cue and contrast indicators of ``examples``."""
    cue, contrast = np.zeros((2, len(examples), T))
    for b, ex in enumerate(examples):
        cue[b, list(ex.cue_positions)] = 1.0
        contrast[b, list(ex.contrast_positions)] = 1.0
    return cue, contrast


def backward_reading_the_forward_statistics(monkeypatch, params, examples, store=None):
    """Runs model_backward twice on one forward's record: once with
    experts.row_statistics patched away, so it
    must read the statistics of the record, and once with a backward given
    the masks and statistics pooled afresh, which forms dL/dH whether or
    not the model consumes it.  Every parameter gradient must agree within
    1e-12; returns the two backwards' dL/dH (each with the CLS gradient
    added when the encoder trains)."""
    out = model_forward(params, examples, store)
    _, dlogits = label_smoothed_ce_grad(out.logits, [ex.label for ex in examples], 0.25)
    real = experts.run_all_experts_backward
    returned = []
    cue, contrast = indicators(examples, out.H.shape[-2])

    def spy(*args, **kwargs):
        assert kwargs["stats"] is out.stats
        returned.append(real(*args, **kwargs))
        return returned[-1]

    def pooling(bank, H, _cue, _contrast, active, dvecs, input_grad, **kwargs):
        returned.append(real(bank, H, cue, contrast, active, dvecs, input_grad=True))
        return returned[-1] if input_grad else None

    for name in ("row_statistics",):  # nothing is pooled again
        monkeypatch.setattr(experts, name, None)
    params.zero_grads()
    monkeypatch.setattr(model, "run_all_experts_backward", spy)
    model_backward(params, examples, out, dlogits)
    read = grads(params)
    monkeypatch.undo()
    params.zero_grads()
    monkeypatch.setattr(model, "run_all_experts_backward", pooling)
    model_backward(params, examples, out, dlogits)
    monkeypatch.undo()
    for name, want in grads(params).items():
        np.testing.assert_allclose(read[name], want, rtol=1e-12, atol=1e-15, err_msg=name)
    return returned


def test_stored_rows_backward_reads_the_forward_statistics(monkeypatch):
    """From stored rows the backward forms no dL/dH and pools nothing: it
    reads the statistics of the forward record, and every parameter
    gradient equals, within 1e-12, that of a backward which pools the rows
    of the padded stack again and forms dL/dH."""
    rng = np.random.default_rng(3)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, encoder_mode="precomputed")
    examples = mixed_examples(rng)
    store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    returned = backward_reading_the_forward_statistics(monkeypatch, params, examples, store)
    assert returned[0] is None and returned[1].shape == (len(examples), 12, D)


@pytest.mark.parametrize("freeze", [False, True], ids=["trainable", "frozen"])
def test_toy_backward_reads_the_forward_statistics(monkeypatch, freeze):
    """On the toy encoder the backward pools nothing either: a trainable
    encoder's dL/dH comes from the row weights and each column's argmax,
    and it and every parameter gradient equal, within 1e-12, those of a
    backward given statistics pooled afresh; a frozen one forms none."""
    rng = np.random.default_rng(11)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, freeze_encoder=freeze)
    returned = backward_reading_the_forward_statistics(monkeypatch, params, mixed_examples(rng))
    if freeze:
        assert returned[0] is None
    else:
        np.testing.assert_allclose(returned[0], returned[1], rtol=1e-12, atol=1e-15)


def counting_calls(monkeypatch, name):
    """Records the (args, kwargs) of each call of experts.<name> from here on."""
    calls = []
    real = getattr(experts, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(experts, name, counted)
    return calls


CNN_PATHS = ("trainable", "frozen", "store", "prepared", "fold-stack")


def cnn_path(path, rng):
    """(params, rows, examples) of one way a forward reaches the CNN: a
    trainable or frozen toy model, a model training on a plain store or on
    PreparedRows, or a loaded fold stack (forward-only)."""
    if path == "fold-stack":
        ckpt = load_checkpoint(FIXTURE_DIR / "stacked_precomputed.smck")
        examples, store = examples_and_store(ckpt.vocab, ckpt.config, 7)
        return ckpt.ensemble.stacked, store, examples
    examples = mixed_examples(rng)
    if path in ("trainable", "frozen"):
        return (ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2,
                                 freeze_encoder=path == "frozen"), None, examples)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, encoder_mode="precomputed")
    store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    if path == "prepared":
        store = model.PreparedRows(params, examples, store)
    return params, store, examples


@pytest.mark.parametrize("path", CNN_PATHS)
def test_every_path_runs_the_cnn_through_expert_cnn(monkeypatch, path):
    """Each forward, on one example and on a list, calls experts.expert_cnn
    by module name exactly once, with (bank, H) alone; only a model that
    trains on stored rows keeps the record it returns, and the backward
    runs the convolution again only on the toy encoder."""
    params, rows, examples = cnn_path(path, np.random.default_rng(12))
    stored = path in ("store", "prepared")
    for batch in (examples[2], examples):
        calls = counting_calls(monkeypatch, "expert_cnn")
        features = counting_calls(monkeypatch, "cnn_features")
        out = model_forward(params, batch, rows)
        assert len(calls) == 1 and len(features) == 1
        assert calls[0] == ((params.bank, out.H), {})
        assert (out.cnn_record is not None) == stored
        if not params.forward_only:
            labels = [ex.label for ex in batch] if batch is examples else batch.label
            _, dlogits = label_smoothed_ce_grad(out.logits, labels, 0.25)
            model_backward(params, batch, out, dlogits)
            assert len(calls) == 1 and len(features) == (1 if stored else 2)
        monkeypatch.undo()


@pytest.mark.parametrize("path", CNN_PATHS)
def test_only_stored_row_training_holds_the_cnn_record_past_its_call(monkeypatch, path):
    """The record expert_cnn returns outlives the forward only where a
    backward reads it: in a model that trains on stored rows."""
    params, rows, examples = cnn_path(path, np.random.default_rng(13))
    real, alive = experts.expert_cnn, []

    def watching(bank, H):
        e, record = real(bank, H)
        alive.append(weakref.ref(record[1][1]))  # its pre-activations
        return e, record

    monkeypatch.setattr(experts, "expert_cnn", watching)
    for batch in (examples[2], examples):
        out = model_forward(params, batch, rows)
        assert (alive[-1]() is not None) == (path in ("store", "prepared"))
        assert (out.cnn_record is not None) == (alive[-1]() is not None)


@pytest.mark.parametrize("prepared", [False, True], ids=["store", "prepared"])
def test_stored_row_training_backward_reads_the_cnn_record(monkeypatch, prepared):
    """A model that trains on stored rows keeps the CNN's forward record:
    the forward runs the convolution once and the backward not at all, and
    every gradient is bit for bit that of the raw-input CNN backward, which
    runs it again, for one example and for a padded list."""
    rng = np.random.default_rng(8)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, encoder_mode="precomputed")
    examples = mixed_examples(rng)
    store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    if prepared:
        store = model.PreparedRows(params, examples, store)
    for batch in (examples[2], examples):
        labels = batch.label if batch is examples[2] else [ex.label for ex in batch]
        calls = counting_calls(monkeypatch, "cnn_features")
        out = model_forward(params, batch, store)
        assert len(calls) == 1 and out.cnn_record is not None
        _, dlogits = label_smoothed_ce_grad(out.logits, labels, 0.25)
        params.zero_grads()
        model_backward(params, batch, out, dlogits)
        assert len(calls) == 1
        recorded = grads(params)
        params.zero_grads()
        model_backward(params, batch, dataclasses.replace(out, cnn_record=None), dlogits)
        assert len(calls) == 2
        for name, want in grads(params).items():
            assert np.array_equal(recorded[name], want), name
        monkeypatch.undo()


def test_forward_only_models_and_the_toy_path_keep_no_cnn_record(monkeypatch, tmp_path):
    """A fold stack, a trained (forward-only) fold and a loaded fold run the
    forward they ran before and keep no CNN record, and the toy encoder's
    forward and backward still run the convolution twice, frozen or not."""
    ckpt = load_checkpoint(FIXTURE_DIR / "stacked_precomputed.smck")
    examples, store = examples_and_store(ckpt.vocab, ckpt.config, 7)
    loaded = ckpt.ensemble.folds[0].params
    rng = np.random.default_rng(9)
    trained = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, encoder_mode="precomputed")
    trained.drop_grads()
    trained_rows = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    for params, rows in ((ckpt.ensemble.stacked, store), (loaded, store),
                         (trained, trained_rows)):
        assert params.forward_only
        for batch in (examples[1], examples):
            assert model_forward(params, batch, rows).cnn_record is None
    for freeze in (False, True):
        params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, freeze_encoder=freeze)
        toy = mixed_examples(rng)
        calls = counting_calls(monkeypatch, "cnn_features")
        out = model_forward(params, toy)
        assert out.cnn_record is None
        _, dlogits = label_smoothed_ce_grad(out.logits, [ex.label for ex in toy], 0.25)
        model_backward(params, toy, out, dlogits)
        assert len(calls) == 2
        monkeypatch.undo()


def test_an_empty_contrast_mask_pools_nothing_beside_rows_near_the_float_range():
    """An empty contrast mask gets zero row weights, so in a padded list of
    empty and non-empty masks an example whose rows are 1e308 has its own
    single-example logits, which are finite; weights of valid/eps would
    overflow its pooled sum, and the zero flag would make that NaN."""
    rng = np.random.default_rng(7)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, encoder_mode="precomputed")
    examples = mixed_examples(rng)
    empty = [not ex.contrast_positions for ex in examples]
    assert 0 < sum(empty) < len(examples)
    store = {ex.id: np.full((len(ex.token_ids), D), 1e308) if none
             else rng.normal(size=(len(ex.token_ids), D)) for ex, none in zip(examples, empty)}
    logits = predict_logits(params, examples, store)
    for row, ex in zip(logits, examples):
        single = model_forward(params, ex, store).logits
        assert np.isfinite(single).all()
        np.testing.assert_allclose(row, single, rtol=1e-12, atol=0)


def test_a_non_finite_example_leaves_its_neighbours_in_a_padded_list_as_they_are_alone():
    """The CNN convolves a list's rows end to end, so a window past one
    sequence's end reads the next one's rows; it is left out, and NaN rows
    make only their own example's logits NaN."""
    rng = np.random.default_rng(10)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, encoder_mode="precomputed")
    examples = mixed_examples(rng)
    store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    for bad in range(len(examples)):
        rows = {**store, examples[bad].id: np.full_like(store[examples[bad].id], np.nan)}
        logits = model_forward(params, examples, rows).logits
        for i, ex in enumerate(examples):
            if i == bad:
                assert np.isnan(logits[i]).all()
            else:
                np.testing.assert_allclose(logits[i], model_forward(params, ex, rows).logits,
                                           rtol=0, atol=1e-12)


def test_prepared_statistics_match_the_pooled_layer_in_a_padded_stack():
    """Each example's statistics, formed once from its own rows, are within
    1e-12 what the statistics layer forms for it inside a padded stack: the
    pooled sums and column max (the contrast sum is zero where the mask is
    empty) and the contrast flag; and their projections are within 1e-12
    what mean, max, cue and contrast pooling, each alone, give there."""
    rng = np.random.default_rng(4)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, encoder_mode="precomputed")
    examples = mixed_examples(rng)
    store = {ex.id: rng.normal(size=(len(ex.token_ids), D)).astype(np.float32)
             for ex in examples}
    prepared = model.PreparedRows(params, examples, store).stats
    H = Padded.stack([store[ex.id] for ex in examples])
    cue, contrast = indicators(examples, H.shape[-2])
    stacked = experts.row_statistics(params.bank, H, cue, contrast)
    np.testing.assert_array_equal(prepared.flag, stacked.flag)
    assert not prepared.flag.all()  # the no-contrast example
    assert list(prepared.values) == list(stacked.values) == list(STATISTICS)
    for name in STATISTICS:
        np.testing.assert_allclose(prepared.values[name], stacked.values[name], rtol=0,
                                   atol=1e-12, err_msg=name)
    bank = params.bank
    alone = {"mean": experts.expert_mean(bank, H), "max": experts.expert_max(bank, H),
             "cue": experts.expert_cue(bank, H, cue),
             "contrast": experts.expert_contrast(bank, H, contrast)}
    projected = experts.project_statistics(bank, STATISTICS, prepared)
    for name, want in alone.items():
        np.testing.assert_allclose(projected[name], want, rtol=0, atol=1e-12, err_msg=name)


def test_prepared_rows_refuse_an_id_that_repeats_with_other_masks():
    """Prepared statistics are keyed by id, as the store is, so an id that
    repeats must mark the same positions."""
    params = ModelParams.init(VOCAB, D, MAX_LEN, np.random.default_rng(6), n_filters=2,
                              encoder_mode="precomputed")
    one = toy_example([1, 5, 6, 7], cue=(1,), example_id="twice")
    store = {"twice": np.zeros((4, D))}
    model.PreparedRows(params, [one, one], store)
    with pytest.raises(ValueError, match="id 'twice' repeats with other mask positions"):
        model.PreparedRows(params, [one, toy_example([1, 5, 6, 7], cue=(2,),
                                                     example_id="twice")], store)


def test_stored_rows_padded_by_slice_copies_equal_masked_placement_bit_for_bit():
    """Padded.stack copies each example's rows into its slice, widening
    float32 to float64; putting the concatenated rows in place through the
    mask of real rows, on zeros, gives the same bytes."""
    rng = np.random.default_rng(5)
    rows = [rng.normal(size=(T, D)).astype(np.float32) for T in (3, 1, 12, 7, 12)]
    stack = Padded.stack(rows)
    assert stack.data.dtype == np.float64
    expected = np.zeros(stack.real.shape + (D,))
    expected[stack.real] = np.concatenate(rows)
    assert stack.data.tobytes() == expected.tobytes()


def test_a_mask_position_out_of_range_fails_by_value():
    params = ModelParams.init(20, 4, 8, np.random.default_rng(0), n_filters=2)
    bad = toy_example([1, 5, 6, 7], cue=(1, 9), contrast=(-1,), example_id="bad")
    for examples in (bad, [toy_example([1, 5]), bad]):
        with pytest.raises(ValueError, match=r"mask positions \[-1, 9\] out of range for length 4"):
            model_forward(params, examples)


def test_an_empty_list_and_an_example_with_no_tokens_fail_by_name():
    """make_batch, and so PreparedRows, rejects an empty list, and an
    example with no tokens by its id, on the toy path and from a store;
    predicting an empty list still gives empty arrays."""
    toy = ModelParams.init(VOCAB, D, MAX_LEN, np.random.default_rng(0), n_filters=2)
    stored = ModelParams.init(VOCAB, D, MAX_LEN, np.random.default_rng(0), n_filters=2,
                              encoder_mode="precomputed")
    blank = toy_example([], example_id="blank")
    store = {"blank": np.zeros((0, D)), "toy": np.zeros((2, D))}
    for params, rows in ((toy, None), (stored, store)):
        with pytest.raises(ValueError, match="^the list of examples is empty$"):
            model_forward(params, [], rows)
        for examples in (blank, [toy_example([1, 5]), blank]):
            with pytest.raises(ValueError, match="^example 'blank' has no tokens$"):
                model_forward(params, examples, rows)
        assert predict_logits(params, [], rows).shape == (0, 3)
        ensemble = EnsembleModel([FoldArtifact(0, params, metrics_from_labels([0], [0]))], [1.0])
        assert [np.shape(a) for a in ensemble_forward(ensemble, [], rows)] == [
            (0, 3), (0, 3), (0,), (0, len(EXPERT_NAMES))]
    with pytest.raises(ValueError, match="^the list of examples is empty$"):
        model.PreparedRows(stored, [], store)
    with pytest.raises(ValueError, match="^example 'blank' has no tokens$"):
        model.PreparedRows(stored, [toy_example([1, 5]), blank], store)


def _stored_model():
    return ModelParams.init(VOCAB, D, MAX_LEN, np.random.default_rng(0), n_filters=2,
                            encoder_mode="precomputed")


def _take_an_unprepared_id():
    prepared = model.PreparedRows(_stored_model(), [toy_example([1, 5])], {"toy": np.zeros((2, D))})
    prepared.take([toy_example([1, 5], example_id="other")])


def _backward_of_another_call():
    params = ModelParams.init(VOCAB, D, MAX_LEN, np.random.default_rng(0), n_filters=2)
    pair = [toy_example([1, 5, 6]), toy_example([1, 5])]
    model_backward(params, pair[:1], model_forward(params, pair), np.zeros((2, 3)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ModelParams(VOCAB, D, MAX_LEN, encoder_mode="bert"), ValueError,
     "^unknown encoder mode 'bert'$"),
    (lambda: ModelParams(VOCAB, D, MAX_LEN, contrast_scale=0.0), ValueError,
     "^contrast_scale and eps must be positive$"),
    (lambda: ModelParams.stack([]), ValueError, "^cannot stack zero models$"),
    (lambda: model_forward(_stored_model(), toy_example([1, 5])), ValueError,
     "^model has no encoder; precomputed embeddings required$"),
    (_take_an_unprepared_id, KeyError, "id 'other' is not among the prepared examples"),
    (_backward_of_another_call, ValueError,
     "^the examples are not those of this forward record$"),
], ids=["encoder-mode", "contrast-scale", "stack-of-none", "no-store", "unprepared-id",
        "another-record"])
def test_a_model_input_that_does_not_fit_fails_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_padded_encoder_stack_equals_each_sequence_alone():
    rng = np.random.default_rng(2)
    enc = ToyEncoderParams.init(VOCAB, D, MAX_LEN, rng)
    seqs = [[1] + list(rng.integers(3, VOCAB, size=T - 1)) for T in (5, 1, 9, 3)]
    ids = Padded.stack(seqs, dtype=np.intp)
    H = encode(enc, ids).H
    dH = rng.normal(size=H.shape)  # nonzero on padding rows too
    enc.zero_grads()
    encode_backward(enc, ids, dH)
    batched = {name: grad.copy() for name, _, grad in enc.named_params()}

    enc.zero_grads()
    for b, seq in enumerate(seqs):
        T = len(seq)
        np.testing.assert_allclose(H.data[b, :T], encode(enc, seq).H, rtol=0, atol=1e-12)
        assert not H.data[b, T:].any()
        encode_backward(enc, seq, dH[b, :T])
    for name, _, grad in enc.named_params():
        np.testing.assert_allclose(batched[name], grad, rtol=1e-10, atol=1e-14, err_msg=name)


def test_cnn_padding_taps_stay_zero_through_training_steps():
    rng = np.random.default_rng(3)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2)
    examples = mixed_examples(rng)
    adam = Adam(params.trainable_params(), lr=0.1)
    for _ in range(2):
        out = model_forward(params, examples)
        _, dlogits = label_smoothed_ce_grad(out.logits, [ex.label for ex in examples], 0.25)
        model_backward(params, examples, out, dlogits)
        bank = params.bank
        for i, k in enumerate(KERNEL_SIZES):
            rows = slice(i * bank.n_filters, (i + 1) * bank.n_filters)
            assert not bank.grad_cnn_kernels[k:, rows].any()
        adam.step()
        for i, k in enumerate(KERNEL_SIZES):
            rows = slice(i * bank.n_filters, (i + 1) * bank.n_filters)
            assert not bank.cnn_kernels[k:, rows].any()
            assert np.shares_memory(cnn_views(bank)[0][k], bank.cnn_kernels)


def test_predict_logits_equal_single_example_logits_and_ignore_neighbours():
    rng = np.random.default_rng(1)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2)
    examples = mixed_examples(rng)
    logits = predict_logits(params, examples)
    for row, ex in zip(logits, examples):
        np.testing.assert_allclose(row, model_forward(params, ex).logits, rtol=0, atol=1e-12)
    longer = predict_logits(params, examples + [random_example(rng, VOCAB, MAX_LEN)])
    np.testing.assert_allclose(longer[:-1], logits, rtol=0, atol=1e-12)


def test_predict_logits_from_a_store_equal_single_example_logits_and_ignore_neighbours():
    rng = np.random.default_rng(4)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2,
                              encoder_mode="precomputed")
    examples = mixed_examples(rng) + [random_example(rng, VOCAB, T, example_id=f"long{i}")
                                      for i, T in enumerate((8, 8, 11, 14, MAX_LEN))]
    longest = random_example(rng, VOCAB, MAX_LEN, example_id="longest")
    store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples + [longest]}
    lengths = [len(ex.token_ids) for ex in examples]
    # the row bound merges sub-batches the attention bound alone would split
    assert (len(length_buckets(lengths, MAX_LEN, encoder=False))
            < len(length_buckets(lengths, MAX_LEN)))
    logits = predict_logits(params, examples, store)
    for row, ex in zip(logits, examples):
        np.testing.assert_allclose(row, model_forward(params, ex, store).logits,
                                   rtol=0, atol=1e-12)
    longer = predict_logits(params, examples + [longest], store)
    np.testing.assert_allclose(longer[:-1], logits, rtol=0, atol=1e-12)


def attention_buckets(lengths, max_len, folds):
    """The attention bound alone, taken greedily in stable length order."""
    order = np.argsort(lengths, kind="stable")
    buckets = [[order[0]]] if len(order) else []
    for i in order[1:]:
        if folds * (len(buckets[-1]) + 1) * int(lengths[i]) ** 2 > max_len**2:
            buckets.append([])
        buckets[-1].append(i)
    return buckets


@pytest.mark.parametrize("max_len", [4, 16, 128])
def test_length_buckets_cover_once_and_respect_the_memory_cap(max_len):
    rng = np.random.default_rng(max_len)
    lengths = rng.integers(1, max_len + 1, size=37)
    for folds in (1, 3, 10):
        buckets = length_buckets(lengths, max_len, folds)
        order = np.concatenate(buckets)
        assert sorted(order.tolist()) == list(range(len(lengths)))
        # shortest first, equal lengths in input order, so scattering each
        # bucket's rows back to its positions restores the input order
        np.testing.assert_array_equal(order, np.argsort(lengths, kind="stable"))
        for bucket in buckets:
            if folds == 1 or len(bucket) > 1:  # one example runs alone, whatever its size
                assert folds * len(bucket) * int(lengths[bucket].max()) ** 2 <= max_len**2
        assert length_buckets([], max_len, folds) == []


@pytest.mark.parametrize("max_len", [4, 16, 128])
def test_encoderless_buckets_cover_once_and_respect_either_bound(max_len):
    rng = np.random.default_rng(max_len)
    lengths = rng.integers(1, max_len + 1, size=37)
    for folds in (1, 3, 10):
        buckets = length_buckets(lengths, max_len, folds, encoder=False)
        np.testing.assert_array_equal(np.concatenate(buckets),
                                      np.argsort(lengths, kind="stable"))
        for bucket in buckets:
            if len(bucket) > 1:  # one example runs alone, whatever its size
                rows = folds * len(bucket) * int(lengths[bucket].max())
                assert (rows * int(lengths[bucket].max()) <= max_len**2
                        or rows <= ROWS_PER_MAX_LEN * max_len)
        # either bound lets a sub-batch grow, so there are never more of them
        assert len(buckets) <= len(length_buckets(lengths, max_len, folds))
        assert length_buckets([], max_len, folds, encoder=False) == []


@pytest.mark.parametrize("folds", [1, 3, 10])
def test_encoder_buckets_are_those_of_the_attention_bound(folds):
    rng = np.random.default_rng(folds)
    for max_len in (4, 16, 128):
        lengths = rng.integers(1, max_len + 1, size=37)
        want = attention_buckets(lengths, max_len, folds)
        got = length_buckets(lengths, max_len, folds)
        assert [b.tolist() for b in got] == [[int(i) for i in b] for b in want]


def test_short_fold_stacked_buckets_keep_the_attention_bound_size():
    """Ten folds of 8-token texts: the attention bound allows 25 per
    sub-batch, more than the row bound's 6, and the larger one holds."""
    buckets = length_buckets([8] * 30, 128, 10, encoder=False)
    assert [len(b) for b in buckets] == [25, 5]
