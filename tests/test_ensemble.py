"""The fold-stacked ensemble: one forward pass of the stacked model, on one
example or on a list, equals the weighted sum of every fold's own forward
pass."""

import dataclasses

import numpy as np
import pytest

from stancemoe.experts import EXPERT_NAMES
from stancemoe.metrics import metrics_from_labels
from stancemoe.model import ModelParams, model_backward, model_forward
from stancemoe.train import (EnsembleModel, FoldArtifact, TrainConfig, ensemble_forward,
                             evaluate_model, train_fold)
from conftest import random_example, toy_example

VOCAB, D, MAX_LEN = 20, 6, 16
REPORT = metrics_from_labels([0, 1, 2], [0, 1, 2])


def make_ensemble(K, seed=0, weights=None, **model_kwargs):
    rng = np.random.default_rng(seed)
    folds = [FoldArtifact(j, ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2,
                                              **model_kwargs), REPORT)
             for j in range(K)]
    if weights is None:
        weights = rng.uniform(0.2, 1.0, size=K)
        weights /= weights.sum()
    return EnsembleModel(folds=folds, weights=weights)


def probe_examples(rng):
    """Lengths 2 to 12: lengths 2 and 3 are shorter than the widest CNN
    kernel; one example has an empty cue mask, one an empty contrast mask."""
    examples = [random_example(rng, VOCAB, T) for T in (7, 12, 3, 2)]
    examples.append(toy_example([1, 5, 6, 7, 8], cue=(), contrast=(2, 3)))
    examples.append(toy_example([1, 9, 10, 11, 12, 13], cue=(4,), contrast=()))
    return [dataclasses.replace(ex, id=f"ex{i}") for i, ex in enumerate(examples)]


def reference(ensemble, example, store):
    """Sum over folds of w_j times fold j's own forward pass."""
    outs = [model_forward(art.params, example, store) for art in ensemble.folds]
    logits = sum(w * out.logits for w, out in zip(ensemble.weights, outs))
    gate = sum(w * out.gate_weights for w, out in zip(ensemble.weights, outs))
    return logits, gate


MODELS = {
    "moe-toy": dict(head="moe"),
    "stacked-toy": dict(head="stacked"),
    "fusion-toy": dict(head="fusion"),
    "moe-precomputed": dict(head="moe", encoder_mode="precomputed"),
    "fusion-precomputed": dict(head="fusion", encoder_mode="precomputed"),
    "moe-without-cnn": dict(head="moe", active_experts=[n for n in EXPERT_NAMES
                                                        if n != "cnn"]),
}


@pytest.mark.parametrize("model", MODELS, ids=list(MODELS))
@pytest.mark.parametrize("K", [1, 2, 3])
def test_stacked_forward_equals_weighted_fold_sum(K, model):
    ensemble = make_ensemble(K, seed=K, **MODELS[model])
    rng = np.random.default_rng(10 + K)
    examples = probe_examples(rng)
    store = None
    if ensemble.stacked.encoder is None:
        store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    listed = ensemble_forward(ensemble, examples, store)
    n, E = len(examples), len(ensemble.stacked.active_experts)
    assert [a.shape for a in listed] == [(n, 3), (n, 3), (n,), (n, E)]
    for i, ex in enumerate(examples):
        want_logits, want_gate = reference(ensemble, ex, store)
        for logits, probs, cls, gate in (ensemble_forward(ensemble, ex, store),
                                         [a[i] for a in listed]):
            np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gate, want_gate, rtol=0, atol=1e-12)
            assert gate.shape == (E,)
            assert cls == int(logits.argmax())
            assert abs(probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("model", MODELS, ids=list(MODELS))
def test_fold_tensors_are_views_of_the_stack(model):
    ensemble = make_ensemble(3, **MODELS[model])
    rng = np.random.default_rng(1)
    examples = probe_examples(rng)
    store = None
    if ensemble.stacked.encoder is None:
        store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    ex = examples[0]
    before = ensemble_forward(ensemble, ex, store)[0]
    before_list = ensemble_forward(ensemble, examples, store)[0]
    for _, value, _ in ensemble.folds[1].params.named_params():
        value += 0.05
    after = ensemble_forward(ensemble, ex, store)[0]
    after_list = ensemble_forward(ensemble, examples, store)[0]
    assert np.abs(after - before).max() > 1e-6
    assert np.abs(after_list - before_list).max(axis=1).min() > 1e-6
    for row, one in [(after, ex), *zip(after_list, examples)]:
        np.testing.assert_allclose(row, reference(ensemble, one, store)[0], rtol=0,
                                   atol=1e-12)
    for (name, value, _), (stacked_name, stacked, grad) in zip(
            ensemble.folds[2].params.named_params(), ensemble.stacked.named_params(),
            strict=True):
        assert name == stacked_name
        assert np.shares_memory(value, stacked), name
        assert stacked.shape == (3,) + value.shape, name
        assert grad is None, name


def test_stacked_model_rejects_a_backward_pass():
    ensemble = make_ensemble(2)
    examples = probe_examples(np.random.default_rng(2))
    out = model_forward(ensemble.stacked, examples[0])
    with pytest.raises(ValueError, match="forward-only"):
        model_backward(ensemble.stacked, examples[0], out, np.ones((2, 3)))


@pytest.mark.parametrize("model", MODELS, ids=list(MODELS))
def test_a_stack_and_its_folds_keep_no_gradient_buffers(model):
    """Neither a fold stack, nor the folds it holds, nor a fold that
    train_fold has just trained keeps a gradient buffer."""
    kwargs = MODELS[model]
    ensemble = make_ensemble(2, **kwargs)
    examples = probe_examples(np.random.default_rng(3))
    example = examples[0]
    store = None
    if ensemble.stacked.encoder is None:
        rng = np.random.default_rng(4)
        store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    config = TrainConfig(max_len=MAX_LEN, epochs=1, hidden_dim=D, cnn_filters=2,
                         head=kwargs["head"], encoder=kwargs.get("encoder_mode", "toy"),
                         active_experts=kwargs.get("active_experts", EXPERT_NAMES))
    trained = train_fold(config, examples[:4], examples[4:], VOCAB, seed=0, store=store)
    for params in (ensemble.stacked, *(art.params for art in ensemble.folds),
                   trained.params):
        assert all(grad is None for _, _, grad in params.named_params())
        out = model_forward(params, example, store)
        with pytest.raises(ValueError, match="forward-only"):
            model_backward(params, example, out, np.ones(out.logits.shape))


# the overflow warns on its way to the non-finite logits
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_logits_name_the_example():
    """A fold whose finite values overflow fails a prediction by the
    example's id: one example's, or a list's first in input order."""
    ensemble = make_ensemble(3)
    for _, value, _ in ensemble.folds[1].params.named_params():
        value[...] = 1e308
    examples = probe_examples(np.random.default_rng(4))
    for inputs, bad in ((examples[3], "ex3"), (examples, "ex0")):
        with pytest.raises(FloatingPointError,
                           match=rf"^non-finite logits for example '{bad}'$"):
            ensemble_forward(ensemble, inputs)


class TestEnsembleRejects:
    def test_zero_folds(self):
        with pytest.raises(ValueError, match="at least one fold"):
            EnsembleModel(folds=[], weights=[])

    @pytest.mark.parametrize("weights", [[np.nan, 0.5], [np.inf, 0.5], [-0.1, 1.1],
                                         [0.0, 0.0]],
                             ids=["nan", "inf", "negative", "all-zero"])
    def test_bad_weights(self, weights):
        with pytest.raises(ValueError, match="finite, non-negative"):
            make_ensemble(2, weights=weights)

    def test_one_weight_too_few(self):
        with pytest.raises(ValueError, match="^one weight per fold required$"):
            make_ensemble(2, weights=[1.0])

    def test_folds_of_different_shapes_name_the_fold_and_parameter(self):
        rng = np.random.default_rng(3)
        params = [ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=n) for n in (2, 2, 3)]
        folds = [FoldArtifact(j, p, REPORT) for j, p in enumerate(params)]
        with pytest.raises(ValueError, match=r"^fold 2: n_filters is 3, but 2 in fold 0$"):
            EnsembleModel(folds=folds, weights=[0.4, 0.3, 0.3])

    def test_folds_with_and_without_encoder(self):
        rng = np.random.default_rng(4)
        params = [ModelParams.init(VOCAB, D, MAX_LEN, rng, encoder_mode=mode)
                  for mode in ("toy", "precomputed")]
        folds = [FoldArtifact(j, p, REPORT) for j, p in enumerate(params)]
        with pytest.raises(ValueError,
                           match="^fold 1: encoder_mode is 'precomputed', but 'toy' in fold 0$"):
            EnsembleModel(folds=folds, weights=[0.5, 0.5])

    def test_folds_with_different_experts(self):
        rng = np.random.default_rng(5)
        params = [ModelParams.init(VOCAB, D, MAX_LEN, rng,
                                   active_experts=[n for n in EXPERT_NAMES if n != drop])
                  for drop in ("mean", "max")]
        folds = [FoldArtifact(j, p, REPORT) for j, p in enumerate(params)]
        with pytest.raises(ValueError, match="^fold 1: active_experts is "):
            EnsembleModel(folds=folds, weights=[0.5, 0.5])

    # fold 1's value of each setting, against fold 0's defaults
    CHANGED = {"vocab_size": VOCAB + 1, "d": D + 2, "max_len": MAX_LEN + 1, "n_filters": 3,
               "contrast_scale": 2.0, "eps": 1e-6, "head": "stacked",
               "active_experts": EXPERT_NAMES[1:], "encoder_mode": "precomputed",
               "freeze_encoder": True}

    @pytest.mark.parametrize("setting", [f.name for f in dataclasses.fields(ModelParams)])
    def test_folds_that_differ_in_one_setting_name_it(self, setting):
        rng = np.random.default_rng(6)
        fold0 = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2)
        fold1 = dataclasses.replace(fold0, **{setting: self.CHANGED[setting]}).draw(rng)
        with pytest.raises(ValueError, match=f"^fold 1: {setting} is "):
            ModelParams.stack([fold0, fold1])


def test_evaluate_model_rejects_a_fold_stack_by_name():
    ensemble = make_ensemble(3)
    examples = probe_examples(np.random.default_rng(7))
    with pytest.raises(ValueError, match="^evaluate_model scores one model, not a stack of 3 "
                                         "folds; use evaluate_ensemble"):
        evaluate_model(ensemble.stacked, examples)
