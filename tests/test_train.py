import logging
import math
import os
import pickle
import re
import sys
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from stancemoe import train as train_module
from stancemoe.checkpoint import load_checkpoint, save_checkpoint
from stancemoe.encoder import sinusoidal_positions
from stancemoe.metrics import metrics_from_labels
from stancemoe.model import ModelParams
from stancemoe.ops import Region
from stancemoe.train import (
    Adam,
    EnsembleModel,
    FoldArtifact,
    NonFiniteGradientError,
    TrainConfig,
    ensemble_forward,
    evaluate_model,
    fold_weights,
    label_smoothed_ce,
    label_smoothed_ce_grad,
    predict_logits,
    run_kfold,
    smoothed_targets,
    train_fold,
)

LN3 = float(np.log(3.0))


def assert_same_ensemble(a: EnsembleModel, b: EnsembleModel) -> None:
    """Equal weights, and per fold equal epoch losses, validation scores and
    tensors, bit for bit."""
    np.testing.assert_array_equal(a.weights, b.weights)
    for x, y in zip(a.folds, b.folds, strict=True):
        assert x.fold_index == y.fold_index
        if x.params.encoder is not None:
            np.testing.assert_array_equal(x.params.encoder.positions,
                                          y.params.encoder.positions)
        assert x.epoch_losses == y.epoch_losses
        np.testing.assert_array_equal(x.val_metrics.confusion, y.val_metrics.confusion)
        assert x.val_macro_f1 == y.val_macro_f1
        for (name_x, val_x, _), (name_y, val_y, _) in zip(
            x.params.named_params(), y.params.named_params(), strict=True
        ):
            assert name_x == name_y
            np.testing.assert_array_equal(val_x, val_y)


def packed(*arrays) -> list[np.ndarray]:
    """Copies of ``arrays``, in order, as reshaped views of one new float64
    buffer, the layout of a drawn model's tensors that Adam steps."""
    buffer = np.concatenate([np.ravel(a) for a in arrays]).astype(np.float64)
    ends = np.cumsum([np.size(a) for a in arrays]).tolist()
    return [buffer[start:end].reshape(np.shape(a))
            for a, start, end in zip(arrays, [0, *ends], ends)]


def packed_region(values, grads, names=None) -> Region:
    """``packed`` values and gradients as the Region Adam steps: (name,
    value, grad) triples, named p0, p1, ... unless ``names`` are given, over
    the whole of both buffers."""
    names = names or [f"p{i}" for i in range(len(values))]
    return Region(zip(names, values, grads), values[0].base, grads[0].base)


def small_config(**kw):
    base = dict(max_len=32, batch_size=8, epochs=2, k=3, hidden_dim=12, cnn_filters=2)
    base.update(kw)
    return TrainConfig(**base)


class TestLabelSmoothedCE:
    def test_alpha_zero_reduces_to_plain_ce(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(size=3) * 3.0
            gold = int(rng.integers(0, 3))
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            plain = -np.log(probs[gold])
            assert abs(label_smoothed_ce(logits, gold, 0.0) - plain) <= 1e-12

    def test_near_one_hot_prediction_drives_loss_to_zero(self):
        loss = label_smoothed_ce(np.array([50.0, 0.0, 0.0]), 0, 0.0)
        assert loss < 1e-12

    def test_uniform_prediction_is_ln3_for_any_alpha(self):
        for alpha in (0.0, 0.1, 0.25, 0.9):
            for c in (0.0, -4.0, 17.0):
                loss = label_smoothed_ce(np.full(3, c), 1, alpha)
                assert abs(loss - LN3) <= 1e-9

    def test_hand_evaluated_smoothed_sum(self):
        # probs [0.5, 0.25, 0.25], gold 0, alpha 0.25 -> (7/6) ln 2
        logits = np.log(np.array([0.5, 0.25, 0.25]))
        loss = label_smoothed_ce(logits, 0, 0.25)
        assert abs(loss - 0.8086717106532695) <= 1e-12
        y = smoothed_targets(0, 0.25)
        np.testing.assert_allclose(y, [0.8333333333333334, 1 / 12, 1 / 12], atol=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            loss = label_smoothed_ce(rng.normal(size=3) * 10, int(rng.integers(0, 3)),
                                     float(rng.uniform(0, 0.99)))
            assert loss >= 0.0

    def test_gradient_is_probs_minus_target(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            logits = rng.normal(size=3) * 2
            gold = int(rng.integers(0, 3))
            alpha = float(rng.uniform(0, 0.9))
            loss, grad = label_smoothed_ce_grad(logits, gold, alpha)
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            np.testing.assert_allclose(grad, probs - smoothed_targets(gold, alpha),
                                       atol=1e-12)
            # a vector takes the path of a (1, 3) batch, bit for bit
            losses, grads = label_smoothed_ce_grad(logits[None], [gold], alpha)
            assert losses[0] == loss
            np.testing.assert_array_equal(grads[0], grad)
            # central differences on each logit
            h = 1e-6
            for i in range(3):
                zp, zm = logits.copy(), logits.copy()
                zp[i] += h
                zm[i] -= h
                num = (label_smoothed_ce(zp, gold, alpha)
                       - label_smoothed_ce(zm, gold, alpha)) / (2 * h)
                rel = abs(num - grad[i]) / max(abs(num), abs(grad[i]), 1e-8)
                assert rel < 1e-4


class TestAdam:
    def param(self, value, grad):
        return packed_region(packed(np.array([value])), packed(np.array([grad])))

    def test_first_step_is_signed_lr(self):
        for g in (0.3, -2.0, 1e-3):
            triples = self.param(1.0, g)
            opt = Adam(triples, lr=0.01)
            opt.step()
            delta = triples[0][1][0] - 1.0
            assert abs(delta + 0.01 * np.sign(g)) <= 0.01 * 1e-5

    def test_zero_gradient_keeps_parameters(self):
        triples = self.param(2.5, 0.0)
        opt = Adam(triples, lr=0.1)
        opt.step()
        assert triples[0][1][0] == 2.5
        assert opt.t == 1
        assert not opt.m[0].any() and not opt.v[0].any()

    def test_constant_gradient_moves_monotonically(self):
        triples = self.param(0.0, 0.0)
        (_, value, grad), = triples
        opt = Adam(triples, lr=0.05)
        history = [value[0]]
        for _ in range(5):
            grad[:] = 3.0  # re-set since step() zeroes it
            opt.step()
            history.append(value[0])
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_non_finite_gradient_names_parameter(self):
        triples = packed_region(packed(np.zeros(2)), packed(np.array([1.0, np.nan])),
                                ["layer/weight"])
        opt = Adam(triples, lr=0.1)
        with pytest.raises(NonFiniteGradientError, match="layer/weight"):
            opt.step()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_flat_step_matches_per_tensor_reference_bitwise(self, weight_decay):
        # shapes span a vectorization chunk boundary of the flat buffers
        rng = np.random.default_rng(3)
        shapes = [(3, 4), (7,), (100, 100), (2, 3, 5)]
        values = packed(*(rng.normal(size=s) for s in shapes))
        grads = packed(*(np.zeros(s) for s in shapes))
        ref = [v.copy() for v in values]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = Adam(packed_region(values, grads), lr=0.01, weight_decay=weight_decay)
        for t in range(1, 6):
            step_grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            for g, new in zip(grads, step_grads):
                g[...] = new
            opt.step(lr_scale=0.5)
            lr = 0.01 * 0.5
            for i, g in enumerate(step_grads):
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g**2
                m_hat = m[i] / (1.0 - 0.9**t)
                v_hat = v[i] / (1.0 - 0.999**t)
                ref[i] -= lr * (m_hat / (np.sqrt(v_hat) + 1e-8))
                if weight_decay:
                    ref[i] -= lr * weight_decay * ref[i]
            for got, want in zip(values, ref, strict=True):
                np.testing.assert_array_equal(got, want)
            assert not any(g.any() for g in grads)

    def test_gradients_zeroed_after_step(self):
        triples = self.param(0.0, 1.0)
        opt = Adam(triples, lr=0.1)
        opt.step()
        assert triples[0][2][0] == 0.0

    def test_non_finite_gradient_names_the_tensor_it_is_in(self):
        grads = packed(np.ones(3), np.array([[1.0, np.inf], [0.0, 2.0]]), np.ones(4))
        triples = packed_region(packed(*map(np.zeros_like, grads)), grads)
        opt = Adam(triples, lr=0.1)
        with pytest.raises(NonFiniteGradientError, match=r"^non-finite gradient in p1$"):
            opt.step()
        grads[1][0, 1] = np.nan
        with pytest.raises(NonFiniteGradientError, match=r"^non-finite gradient in p1$"):
            opt.step()
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()
        assert not any(value.any() for _, value, _ in triples)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.5])
    def test_an_update_that_overflows_names_the_tensor(self, weight_decay):
        """lr 1e308 takes p1 to about -1e308: finite, but its square is not;
        with weight decay it overflows to inf.  No warning escapes the step,
        so a RuntimeWarning raised as an error, as tier-1 runs, does not
        pre-empt the name.  A later step does not raise again."""
        grads = packed(np.zeros(3), np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(4))
        values = packed(np.zeros(3), np.zeros((2, 2)), np.zeros(4))
        opt = Adam(packed_region(values, grads), lr=1e308, weight_decay=weight_decay)
        with pytest.raises(FloatingPointError,
                           match=r"^the update made the L2 norm of p1 non-finite$"):
            opt.step()
        assert abs(values[1][0, 1]) > 1e307
        opt.step()

    def test_values_whose_norm_overflows_only_together_name_the_parameters(self):
        grads = packed(np.ones(1), np.ones(1))
        opt = Adam(packed_region(packed(np.zeros(1), np.zeros(1)), grads), lr=1e154)
        with pytest.raises(FloatingPointError,
                           match=r"^the update made the L2 norm of the parameters non-finite$"):
            opt.step()

    def test_values_that_overflow_before_the_step_are_not_named(self):
        values = packed(np.array([1e308]), np.zeros(2))
        opt = Adam(packed_region(values, packed(np.zeros(1), np.ones(2))), lr=0.1)
        opt.step()
        assert values[0][0] == 1e308

    # the squares of the gradients overflow, and numpy warns
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("max_norm", [None, 1.0])
    def test_finite_gradients_whose_squares_overflow_are_not_rejected(self, max_norm):
        grads = packed(np.array([1e200, -1e200]), np.array([[2e200]]),
                       np.array([1.0, 0.0, -1e200]))
        values = packed(np.array([1.0, -2.0]), np.array([[0.5]]), np.array([3.0, 4.0, 5.0]))
        before = [v.copy() for v in values]
        opt = Adam(packed_region(values, grads), lr=0.1)
        assert opt.step(max_norm=max_norm) == math.inf
        assert not any(g.any() for g in grads)
        if max_norm is not None:  # clipped to a zero gradient, so nothing moves
            for got, want in zip(values, before, strict=True):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_a_step_allocates_no_parameter_sized_array(self, weight_decay):
        rng = np.random.default_rng(4)
        params = TrainConfig().build_model(150, rng)
        triples = params.trainable_params()
        opt = Adam(triples, lr=5e-5, weight_decay=weight_decay)
        for _, _, grad in triples:
            grad[...] = rng.normal(size=grad.shape)
        size = sum(value.nbytes for _, value, _ in triples)
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * size, (peak, size)


FLAT_MODES = {"toy": {}, "precomputed": {"encoder": "precomputed"},
              "stacked": {"head": "stacked"}, "fusion": {"head": "fusion"},
              "moe-subset": {"active_experts": ("mean", "cnn")},
              "frozen": {"freeze_encoder": True}}


byte_bounds = getattr(np, "byte_bounds", None) or np.lib.array_utils.byte_bounds


def spans(triples) -> list[tuple]:
    """(value buffer, grad buffer, first and last element + 1 of the value
    in its buffer, the same of the grad in its) of each (name, value, grad)."""
    out = []
    for _, value, grad in triples:
        where = []
        for a in (value, grad):
            owner = a.base if a.base is not None else a
            where += [owner, tuple((b - byte_bounds(owner)[0]) // 8 for b in byte_bounds(a))]
        out.append((where[0], where[2], where[1], where[3]))
    return out


class TestFlatBuffers:
    """A drawn model's tensors are views of one value buffer and their
    gradients views of one gradient buffer at the same places; Adam steps
    the region its triples span."""

    @pytest.mark.parametrize("mode", FLAT_MODES.values(), ids=FLAT_MODES)
    def test_every_tensor_and_gradient_is_a_view_of_one_buffer_each(self, mode):
        params = small_config(**mode).build_model(40, np.random.default_rng(0))
        triples = list(params.named_params())
        values, grads = spans(triples)[0][:2]
        assert values.ndim == grads.ndim == 1 and values is not grads
        for (name, value, grad), (v, g, where, grad_where) in zip(triples, spans(triples)):
            assert v is values and g is grads, name
            assert where == grad_where and value.strides == grad.strides, name
        held = sum(math.prod(shape) for s in params.sets() for shape in s.arrays().values())
        assert values.size == grads.size == held

    @pytest.mark.parametrize("mode", FLAT_MODES.values(), ids=FLAT_MODES)
    def test_the_trainable_tensors_span_a_contiguous_tail(self, mode):
        params = small_config(**mode).build_model(40, np.random.default_rng(0))
        triples = list(params.named_params())
        trainable = {name for name, _, _ in params.trainable_params()}
        frozen = params.freeze_encoder and params.encoder is not None
        assert frozen == (len(trainable) < len(triples))
        found = spans(triples)
        size = found[0][0].size
        ranges = {name: where for (name, _, _), (_, _, where, _) in zip(triples, found)}
        head = max((hi for name, (_, hi) in ranges.items() if name not in trainable),
                   default=0)
        assert head == min(lo for name, (lo, _) in ranges.items() if name in trainable)
        assert max(hi for _, hi in ranges.values()) == size
        region = params.trainable_params()
        assert [name for name, _, _ in region] == [n for n, _, _ in triples if n in trainable]
        for flat, buffer in zip((region.values, region.grads), found[0][:2]):
            assert tuple((b - byte_bounds(buffer)[0]) // 8 for b in byte_bounds(flat)) == (
                head, size)
        assert Adam(region, lr=0.1).m.size == size - head

    def test_trained_loaded_and_stacked_models_hold_no_gradient_buffer(self, corpus90,
                                                                      tmp_path, lexicon):
        examples, vocab = corpus90
        cfg = small_config(k=2, epochs=1)
        drawn = [cfg.build_model(len(vocab), np.random.default_rng(j)) for j in range(2)]
        buffers = [weakref.ref(b) for m in drawn
                   for b in spans(m.named_params())[0][:2]]
        stack = ModelParams.stack(drawn)
        assert [ref() for ref in buffers] == [None] * 4  # every array moved into the stack
        ensemble = run_kfold(cfg, examples[:30], vocab, jobs=1)
        save_checkpoint(tmp_path / "model.smck", ensemble, cfg, vocab, lexicon)
        loaded = load_checkpoint(tmp_path / "model.smck").ensemble
        for model in [stack, *drawn, ensemble.stacked, loaded.stacked,
                      *(art.params for art in ensemble.folds + loaded.folds)]:
            assert model.forward_only
            assert all(getattr(s, "grad_" + name) is None
                       for s in model.sets() for name in s.arrays())

    def test_adam_rejects_triples_that_are_not_a_region_naming_trainable_params(self):
        params = small_config().build_model(40, np.random.default_rng(0))
        region = params.trainable_params()
        for triples in (list(region), iter(region), (t for t in region)):
            with pytest.raises(TypeError, match=r"trainable_params\(\) returns, not a"):
                Adam(triples, lr=0.1)

    def test_adam_rejects_a_forward_only_model_and_a_pickled_copy(self):
        cfg = small_config()
        dropped, part, drawn = (cfg.build_model(40, np.random.default_rng(j)) for j in range(3))
        dropped.drop_grads()
        stack = ModelParams.stack([part, cfg.build_model(40, np.random.default_rng(3))])
        # a copy's gradients are arrays of their own: no step could reach them
        copy = pickle.loads(pickle.dumps(drawn))
        assert not copy.forward_only
        for model in (dropped, part, stack, copy):
            region = model.trainable_params()
            assert region.values is None and region.grads is None
            with pytest.raises(ValueError, match=r"^the model keeps no flat gradient buffer: "
                                                 r"it is forward-only"):
                Adam(region, lr=0.1)
        assert drawn.trainable_params().grads is not None  # the original keeps its own

    @pytest.mark.parametrize("mode", [{}, {"freeze_encoder": True}], ids=["toy", "frozen"])
    def test_the_flat_buffers_die_when_train_fold_returns(self, corpus90, monkeypatch, mode):
        examples, vocab = corpus90
        refs = []

        class SpyAdam(Adam):
            def __init__(self, params, *args, **kwargs):
                super().__init__(params, *args, **kwargs)
                refs.extend(weakref.ref(a if a.base is None else a.base)
                            for a in (params.values, params.grads))

        monkeypatch.setattr(train_module, "Adam", SpyAdam)
        cfg = small_config(epochs=1, **mode)
        art = train_fold(cfg, examples[:40], examples[40:60], len(vocab), seed=0)
        assert len(refs) == 2 and [ref() for ref in refs] == [None, None]
        # the trained fold pickles as a forward-only fill of its values does
        # after the same validation pass
        values = {name: value for name, value, _ in art.params.named_params()}
        filled = cfg.architecture(len(vocab)).fill(lambda path, _: values[path])
        evaluate_model(filled, examples[40:60])
        assert len(pickle.dumps(art)) == len(pickle.dumps(
            FoldArtifact(art.fold_index, filled, art.val_metrics, art.epoch_losses)))


class TestFoldWeights:
    def test_equal_scores_uniform(self):
        np.testing.assert_allclose(fold_weights([0.7, 0.7, 0.7, 0.7]), np.full(4, 0.25),
                                   atol=1e-15)

    def test_degenerate(self):
        np.testing.assert_array_equal(fold_weights([1.0, 0.0]), [1.0, 0.0])

    def test_all_zero_fallback(self):
        np.testing.assert_allclose(fold_weights([0.0, 0.0, 0.0]), np.full(3, 1 / 3),
                                   atol=1e-15)

    def test_proportional_normalization(self):
        w = fold_weights([0.9, 0.6, 0.3])
        np.testing.assert_allclose(w, [0.5, 1 / 3, 1 / 6], atol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12


class TestTrainFold:
    def test_loss_descends_on_separable_data(self, corpus90):
        examples, vocab = corpus90
        art = train_fold(small_config(epochs=10), examples[:60], examples[60:],
                         len(vocab), seed=0)
        assert len(art.epoch_losses) == 10
        assert art.epoch_losses[9] < art.epoch_losses[0]

    def test_same_seed_bitwise_identical(self, corpus90):
        examples, vocab = corpus90
        cfg = small_config()
        a = train_fold(cfg, examples[:60], examples[60:], len(vocab), seed=3)
        b = train_fold(cfg, examples[:60], examples[60:], len(vocab), seed=3)
        np.testing.assert_array_equal(
            predict_logits(a.params, examples[60:]),
            predict_logits(b.params, examples[60:]),
        )
        c = train_fold(cfg, examples[:60], examples[60:], len(vocab), seed=4)
        assert not np.array_equal(
            predict_logits(a.params, examples[60:]),
            predict_logits(c.params, examples[60:]),
        )

    def test_zero_learning_rate_leaves_model_at_init(self, corpus90):
        examples, vocab = corpus90
        cfg = small_config()
        cfg.learning_rate = 0.0  # bypasses config validation: loop behavior probe
        art = train_fold(cfg, examples[:60], examples[60:], len(vocab), seed=5)
        fresh = cfg.build_model(len(vocab), np.random.default_rng(5))
        np.testing.assert_array_equal(
            predict_logits(art.params, examples[60:]),
            predict_logits(fresh, examples[60:]),
        )
        assert art.val_metrics.accuracy == evaluate_model(fresh, examples[60:]).accuracy

    def test_missing_validation_class_warns(self, corpus90, caplog):
        examples, vocab = corpus90
        val = [ex for ex in examples[60:] if ex.label != 2][:10]
        with caplog.at_level("WARNING"):
            art = train_fold(small_config(epochs=1), examples[:60], val, len(vocab), seed=6)
        assert any("missing" in rec.message for rec in caplog.records)
        assert art.val_metrics.f1[2] == 0.0

    def test_debug_log_holds_no_per_call_expert_records(self, corpus90, caplog):
        """Training logs its epoch losses at DEBUG level, and nothing per expert
        call, though some examples have an empty contrast mask."""
        examples, vocab = corpus90
        assert any(not ex.contrast_positions for ex in examples[:60])
        with caplog.at_level("DEBUG"):
            train_fold(small_config(epochs=1), examples[:60], examples[60:], len(vocab), seed=7)
        assert any(rec.name == "stancemoe.train" for rec in caplog.records)
        assert [rec.message for rec in caplog.records if rec.name == "stancemoe.experts"] == []

    def test_empty_split_rejected(self, corpus90):
        examples, vocab = corpus90
        with pytest.raises(ValueError):
            train_fold(small_config(), [], examples[:5], len(vocab), seed=0)

    # the logits' spread overflows the log-softmax, and numpy warns
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_fold_epoch_step_and_first_example(self, corpus90):
        class SpreadLogits(TrainConfig):
            """Finite logits 2e308 apart: every loss is inf, every gradient finite."""

            def build_model(self, vocab_size, rng):
                params = super().build_model(vocab_size, rng)
                params.classifier.bias[:] = (1e308, -1e308, 0.0)
                return params

        examples, vocab = corpus90
        cfg = SpreadLogits(**{**small_config().to_dict(), "batch_size": 64})
        split = examples[20:60]  # one mini-batch of several length buckets
        assert len(set(map(len, (ex.token_ids for ex in split)))) > 1
        with pytest.raises(FloatingPointError,
                           match=rf"^fold 4, epoch 0, step 1: non-finite loss for example "
                                 rf"'{split[0].id}'$"):
            train_fold(cfg, split, examples[60:], len(vocab), seed=2, fold_index=4)


class TestConfig:
    def test_defaults_are_standard_recipe(self):
        cfg = TrainConfig()
        assert (cfg.max_len, cfg.batch_size, cfg.epochs) == (128, 16, 10)
        assert cfg.learning_rate == 5e-5
        assert (cfg.k, cfg.label_smoothing, cfg.seed) == (10, 0.25, 42)

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="warp_speed"):
            TrainConfig.from_dict({"warp_speed": 9})

    @pytest.mark.parametrize("bad", [
        {"label_smoothing": 1.0}, {"k": 1}, {"epochs": 0}, {"learning_rate": 0.0},
        {"head": "tower"}, {"encoder": "crystal"}, {"active_experts": []},
        {"head": "stacked", "active_experts": ["mean"]},
        {"active_experts": ["mean", "zzz"]}, {"grad_clip": -1.0},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainConfig.from_dict(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["learning_rate", "label_smoothing", "contrast_scale",
                                     "epsilon", "weight_decay", "grad_clip"])
    def test_non_finite_float_names_key(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key} must be finite, got {value}$"):
            TrainConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value, rule", [
        ("hidden_dim", 0, "positive"), ("cnn_filters", -2, "positive"),
        ("contrast_scale", 0.0, "positive"), ("epsilon", -1e-08, "positive"),
        ("warmup_steps", -1, "non-negative"), ("weight_decay", -0.5, "non-negative"),
    ])
    def test_out_of_range_value_names_key_and_value(self, key, value, rule):
        with pytest.raises(ValueError, match=rf"^{key} must be {rule}, got {value}$"):
            TrainConfig.from_dict({key: value})

    def test_negative_seed_names_key(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            TrainConfig.from_dict({"seed": -1})
        TrainConfig.from_dict({"seed": 0})

    def test_embeddings_path_under_toy_encoder_names_both_keys(self):
        with pytest.raises(ValueError, match=r'^embeddings_path is set but encoder is "toy"'):
            TrainConfig.from_dict({"embeddings_path": "store.smeb"})
        TrainConfig.from_dict({"embeddings_path": "store.smeb", "encoder": "precomputed"})

    @pytest.mark.parametrize("key", ["cue_lexicon", "contrast_lexicon", "embeddings_path"])
    def test_empty_path_names_key(self, key):
        with pytest.raises(ValueError,
                           match=rf"^{key} must be a file path or null, got an empty string$"):
            TrainConfig.from_dict({key: "", "encoder": "precomputed"})

    @pytest.mark.parametrize("key, value", [
        ("k", 3.5), ("epochs", 2.0), ("batch_size", True), ("learning_rate", "abc"),
        ("label_smoothing", False), ("freeze_encoder", 1), ("embeddings_path", 3),
        ("grad_clip", "0.5"), ("head", None), ("active_experts", "mean"),
        ("active_experts", ["mean", 2]),
    ])
    def test_wrong_type_names_key_and_value(self, key, value):
        with pytest.raises(TypeError, match=rf"^config key {key} .*got {re.escape(repr(value))}$"):
            TrainConfig.from_dict({key: value})

    @pytest.mark.parametrize("good", [
        {"k": np.int64(3)}, {"learning_rate": 1}, {"contrast_scale": np.float32(2.0)},
        {"grad_clip": None}, {"cue_lexicon": None}, {"freeze_encoder": True},
        {"active_experts": ["mean", "cue"]},
    ])
    def test_right_types_accepted(self, good):
        TrainConfig.from_dict(good)

    def test_dict_roundtrip(self):
        cfg = TrainConfig(epochs=3, active_experts=("mean", "cue"))
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestRunKfoldAndEnsemble:
    def test_partition_bookkeeping(self, corpus90):
        examples, vocab = corpus90
        cfg = small_config(k=10, epochs=1)
        ensemble = run_kfold(cfg, examples, vocab)
        assert len(ensemble.folds) == 10
        assert abs(ensemble.weights.sum() - 1.0) <= 1e-12
        for art in ensemble.folds:
            assert art.val_metrics.confusion.sum() == 9

    def test_parallel_folds_match_serial_bitwise(self, corpus90):
        """Forked fold workers train what the serial loop trains, bit for
        bit: even and uneven shares, and precomputed rows from a store that
        the workers inherit."""
        examples, vocab = corpus90
        rng = np.random.default_rng(22)
        store = {ex.id: rng.normal(size=(len(ex.token_ids), 8)) for ex in examples[:40]}
        for cfg, n, data, jobs_list in (
            (small_config(k=3, epochs=1, hidden_dim=8), 30, None, (2,)),
            (small_config(k=4, epochs=1, hidden_dim=8), 40, None, (2, 3)),
            (small_config(k=4, epochs=1, hidden_dim=8, encoder="precomputed"), 40, store,
             (2, 3)),
        ):
            serial = run_kfold(cfg, examples[:n], vocab, data, jobs=1)
            for jobs in jobs_list:
                assert_same_ensemble(run_kfold(cfg, examples[:n], vocab, data, jobs=jobs),
                                     serial)

    def test_single_fold_ensemble_is_exact(self, corpus90):
        examples, vocab = corpus90
        art = train_fold(small_config(epochs=1), examples[:60], examples[60:],
                         len(vocab), seed=1)
        ensemble = EnsembleModel(folds=[art], weights=np.array([1.0]))
        for ex in examples[60:65]:
            logits, probs, cls = ensemble_forward(ensemble, ex)[:3]
            np.testing.assert_array_equal(logits, predict_logits(art.params, [ex])[0])
            assert cls == int(logits.argmax())

    def two_fold_ensemble(self, corpus90, weights):
        examples, vocab = corpus90
        arts = [
            train_fold(small_config(epochs=1), examples[:60], examples[60:],
                       len(vocab), seed=s)
            for s in (10, 11)
        ]
        return examples, EnsembleModel(folds=arts, weights=np.asarray(weights))

    def test_weighted_mean_of_fold_logits(self, corpus90):
        examples, ensemble = self.two_fold_ensemble(corpus90, [0.8, 0.2])
        for ex in examples[:5]:
            la = predict_logits(ensemble.folds[0].params, [ex])[0]
            lb = predict_logits(ensemble.folds[1].params, [ex])[0]
            logits, _, _ = ensemble_forward(ensemble, ex)[:3]
            np.testing.assert_allclose(logits, 0.8 * la + 0.2 * lb, atol=1e-12)

    def test_equal_weights_are_plain_mean(self, corpus90):
        examples, ensemble = self.two_fold_ensemble(corpus90, fold_weights([0.5, 0.5]))
        for ex in examples[:5]:
            la = predict_logits(ensemble.folds[0].params, [ex])[0]
            lb = predict_logits(ensemble.folds[1].params, [ex])[0]
            logits, _, _ = ensemble_forward(ensemble, ex)[:3]
            np.testing.assert_allclose(logits, (la + lb) / 2.0, atol=1e-12)

    def test_ensemble_logits_inside_fold_envelope(self, corpus90):
        examples, ensemble = self.two_fold_ensemble(corpus90, [0.7, 0.3])
        for ex in examples[:10]:
            la = predict_logits(ensemble.folds[0].params, [ex])[0]
            lb = predict_logits(ensemble.folds[1].params, [ex])[0]
            logits, _, _ = ensemble_forward(ensemble, ex)[:3]
            assert np.all(logits >= np.minimum(la, lb) - 1e-12)
            assert np.all(logits <= np.maximum(la, lb) + 1e-12)

    def test_shared_argmax_is_preserved(self, corpus90):
        examples, ensemble = self.two_fold_ensemble(corpus90, [0.6, 0.4])
        for ex in examples[:20]:
            la = predict_logits(ensemble.folds[0].params, [ex])[0]
            lb = predict_logits(ensemble.folds[1].params, [ex])[0]
            if la.argmax() == lb.argmax():
                _, _, cls = ensemble_forward(ensemble, ex)[:3]
                assert cls == la.argmax()


class TestPrecomputedEmbeddings:
    def test_training_against_a_store(self, corpus90):
        examples, vocab = corpus90
        rng = np.random.default_rng(20)
        store = {
            ex.id: rng.normal(size=(len(ex.token_ids), 12))
            .astype(np.float32).astype(np.float64)
            for ex in examples
        }
        cfg = small_config(encoder="precomputed", epochs=1, k=2)
        ensemble = run_kfold(cfg, examples, vocab, store=store)
        assert ensemble.folds[0].params.encoder is None
        logits, probs, cls, gate = ensemble_forward(ensemble, examples[0], store)
        assert logits.shape == (3,)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert gate.shape == (6,)

    def test_nan_record_names_fold_epoch_step_and_parameter(self, corpus90):
        examples, vocab = corpus90
        rng = np.random.default_rng(21)
        store = {ex.id: rng.normal(size=(len(ex.token_ids), 12)) for ex in examples}
        store[examples[0].id][1, 3] = np.nan
        cfg = small_config(encoder="precomputed", epochs=1)
        with pytest.raises(NonFiniteGradientError,
                           match=r"^fold 2, epoch 0, step \d+: non-finite gradient in \S+/"
                           ) as excinfo:
            train_fold(cfg, examples[:60], examples[60:], len(vocab), seed=1, store=store,
                       fold_index=2)
        assert isinstance(excinfo.value.__cause__, NonFiniteGradientError)

    def test_non_finite_logits_name_the_first_example_in_input_order(self, corpus90):
        from stancemoe.model import ModelParams

        examples, vocab = corpus90
        rng = np.random.default_rng(22)
        store = {ex.id: rng.normal(size=(len(ex.token_ids), 12)) for ex in examples[:6]}
        for i in (4, 2):  # rows non-finite for the example alone, which NaN passes on silently
            store[examples[i].id][:] = np.nan
        cfg = small_config(encoder="precomputed")
        folds = [cfg.build_model(len(vocab), np.random.default_rng(j)) for j in range(2)]
        for params in (folds[0], ModelParams.stack(folds)):
            with pytest.raises(FloatingPointError,
                               match=rf"^non-finite logits for example '{examples[2].id}'$"):
                predict_logits(params, examples[:6], store)
        with pytest.raises(FloatingPointError,
                           match=rf"^fold 1, validation: non-finite logits for example "
                                 rf"'{examples[2].id}'$"):
            train_fold(cfg, examples[6:30], examples[:6], len(vocab), seed=1,
                       store={**store, **{ex.id: rng.normal(size=(len(ex.token_ids), 12))
                                          for ex in examples[6:30]}},
                       fold_index=1)

    def test_width_mismatch_has_both_dims_in_message(self, corpus90):
        examples, vocab = corpus90
        cfg = small_config(encoder="precomputed")
        params = cfg.build_model(len(vocab), np.random.default_rng(0))
        bad_H = np.zeros((len(examples[0].token_ids), 5))
        from stancemoe.model import model_forward

        with pytest.raises(ValueError, match="5.*12"):
            model_forward(params, examples[0], {examples[0].id: bad_H})

    def test_row_count_mismatch_names_id_and_both_lengths(self, corpus90):
        examples, vocab = corpus90
        params = small_config(encoder="precomputed").build_model(
            len(vocab), np.random.default_rng(0))
        ex = examples[0]
        T = len(ex.token_ids)
        from stancemoe.model import model_forward

        with pytest.raises(ValueError, match=rf"{ex.id}.*{T + 6} rows.*{T} tokens"):
            model_forward(params, ex, {ex.id: np.zeros((T + 6, 12))})

    def test_store_on_a_model_with_the_toy_encoder_is_rejected(self, corpus90):
        """The toy encoder makes its own rows: stored ones would train it on
        rows it never produced."""
        examples, vocab = corpus90
        cfg = small_config()
        params = cfg.build_model(len(vocab), np.random.default_rng(0))
        store = {ex.id: np.zeros((len(ex.token_ids), 12)) for ex in examples}
        from stancemoe.model import model_forward

        with pytest.raises(ValueError, match="toy encoder.*encoder mode 'precomputed'"):
            model_forward(params, examples[0], store)
        with pytest.raises(ValueError, match="toy encoder"):
            predict_logits(params, examples[:5], store)
        with pytest.raises(ValueError, match="toy encoder"):
            train_fold(cfg, examples[:60], examples[60:], len(vocab), seed=1, store=store)

    @pytest.mark.parametrize("fault", ["missing id", "width", "row count"])
    def test_a_bad_store_fails_run_kfold_before_any_fold_trains(self, corpus90, monkeypatch,
                                                                 fault):
        """run_kfold checks every example's rows once, before the folds
        (and the fold workers) start; the error names the id."""
        examples, vocab = corpus90
        store = {ex.id: np.zeros((len(ex.token_ids), 12)) for ex in examples}
        bad = examples[37]
        T = len(bad.token_ids)
        if fault == "missing id":
            del store[bad.id]
        else:
            store[bad.id] = np.zeros((T, 5) if fault == "width" else (T + 1, 12))
        trained = []
        monkeypatch.setattr(train_module, "train_fold", lambda *args: trained.append(args))
        with pytest.raises((KeyError, ValueError), match=f"'{bad.id}'"):
            run_kfold(small_config(encoder="precomputed"), examples, vocab, store)
        assert not trained

    def test_missing_id_reported(self, corpus90):
        examples, vocab = corpus90
        cfg = small_config(encoder="precomputed")
        with pytest.raises(KeyError):
            predict_logits(cfg.build_model(len(vocab), np.random.default_rng(0)),
                           examples[:1], store={})


class TestOptionalKnobs:
    def test_clip_gradients_global_norm(self):
        def update(grads, scale=1.0, **step):
            params = packed_region(packed(*(np.zeros(2) for _ in grads)),
                                   packed(*(g * scale for g in grads)))
            norm = Adam(params, lr=0.1).step(**step)
            return norm, np.concatenate([value for _, value, _ in params])

        grads = [np.array([3.0, 0.0]), np.array([0.0, 4.0])]
        norm, clipped = update(grads, max_norm=1.0)
        assert abs(norm - 5.0) <= 1e-12
        # the same update as unclipped Adam fed the gradients scaled to norm 1
        _, scaled = update(grads, scale=1.0 / 5.0)
        np.testing.assert_allclose(clipped, scaled, rtol=0, atol=1e-12)
        # below the threshold nothing changes
        _, unclipped = update(grads)
        assert np.array_equal(update(grads, max_norm=10.0)[1], unclipped)

    def test_weight_decay_shrinks_parameters(self):
        triples = packed_region(packed(np.array([2.0])), packed(np.array([0.0])))
        (_, value, _), = triples
        opt = Adam(triples, lr=0.1, weight_decay=0.5)
        opt.step()
        assert abs(value[0] - 2.0 * (1 - 0.1 * 0.5)) <= 1e-12

    def test_warmup_and_clip_training_smoke(self, corpus90):
        examples, vocab = corpus90
        cfg = small_config(epochs=1, warmup_steps=4, grad_clip=1.0)
        art = train_fold(cfg, examples[:40], examples[40:60], len(vocab), seed=0)
        assert np.isfinite(art.epoch_losses[0])


class TestFrozenEncoder:
    def test_encoder_parameters_stay_at_init(self, corpus90):
        examples, vocab = corpus90
        cfg = small_config(epochs=1, freeze_encoder=True)
        art = train_fold(cfg, examples[:40], examples[40:60], len(vocab), seed=2)
        fresh = cfg.build_model(len(vocab), np.random.default_rng(2))
        for (name, trained, _), (_, init, _) in zip(
            art.params.named_params(), fresh.named_params()
        ):
            if name.startswith("encoder/"):
                np.testing.assert_array_equal(trained, init)
            elif name.startswith("classifier/"):
                assert not np.array_equal(trained, init)
        assert all(not n.startswith("encoder/")
                   for n, _, _ in art.params.trainable_params())


def fork_spy(monkeypatch) -> list[int]:
    """Patches os.fork with a spy that delegates to it and records, in this
    process, the pid of every child it starts."""
    real, pids = os.fork, []

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
needs_pin = pytest.mark.skipif(train_module._openblas() is None,
                               reason="numpy's BLAS exports no OpenBLAS thread count")


@needs_fork
class TestForkedFolds:
    """run_kfold's fold workers: shares, failures, worker count and the BLAS pin."""

    CFG = small_config(k=3, epochs=1, hidden_dim=8)

    def test_the_lowest_failing_fold_raises_and_no_worker_is_left(self, corpus90,
                                                                   monkeypatch):
        examples, vocab = corpus90
        real = train_module.train_fold

        def failing(config, train_ex, val_ex, vocab_size, seed, store=None, fold_index=0):
            if fold_index in (1, 2):
                raise NonFiniteGradientError(f"fold {fold_index}, epoch 0, step 1: planted")
            return real(config, train_ex, val_ex, vocab_size, seed, store, fold_index)

        monkeypatch.setattr(train_module, "train_fold", failing)  # before the fork
        cfg = small_config(k=4, epochs=1, hidden_dim=8)
        for jobs in (1, 3):
            with pytest.raises(NonFiniteGradientError,
                               match=r"^fold 1, epoch 0, step 1: planted$"):
                run_kfold(cfg, examples[:40], vocab, jobs=jobs)
            assert_no_child_left()

    def test_a_worker_that_dies_is_named_with_its_status(self, corpus90, monkeypatch):
        examples, vocab = corpus90
        real = train_module.train_fold

        def dying(config, train_ex, val_ex, vocab_size, seed, store=None, fold_index=0):
            if fold_index == 1:  # the worker's share; the parent trains folds 0 and 2
                os._exit(3)
            return real(config, train_ex, val_ex, vocab_size, seed, store, fold_index)

        monkeypatch.setattr(train_module, "train_fold", dying)
        with pytest.raises(RuntimeError, match=r"folds \[1\] exited with status 3 "):
            run_kfold(self.CFG, examples[:30], vocab, jobs=2)
        assert_no_child_left()

    def test_an_interrupt_stops_and_reaps_a_running_worker(self, corpus90, monkeypatch):
        examples, vocab = corpus90

        def interrupted(config, train_ex, val_ex, vocab_size, seed, store=None,
                        fold_index=0):
            if fold_index == 0:  # this process's share
                raise KeyboardInterrupt
            time.sleep(60)  # the worker's fold, still running at the interrupt

        monkeypatch.setattr(train_module, "train_fold", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_kfold(self.CFG, examples[:30], vocab, jobs=2)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_the_fork_warning_of_a_multi_threaded_process_is_no_error(self, corpus90,
                                                                       monkeypatch):
        """CPython 3.12 and later warn in the parent after forking a process
        with other OS threads, which OpenBLAS's idle pool threads are; the
        test filters make that DeprecationWarning an error, and the fold
        workers' forks ignore it."""
        examples, vocab = corpus90
        real = os.fork

        def warning_fork():
            pid = real()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        serial = run_kfold(self.CFG, examples[:30], vocab, jobs=1)
        assert_same_ensemble(run_kfold(self.CFG, examples[:30], vocab, jobs=2), serial)
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_an_error_raised_here_after_a_fork_loses_no_worker_or_pipe(self, corpus90,
                                                                        monkeypatch):
        examples, vocab = corpus90
        real = os.fork

        def failing_fork():
            pid = real()
            if pid:
                raise OSError("planted after the fork")
            return pid

        monkeypatch.setattr(os, "fork", failing_fork)
        fds = sorted(os.listdir("/dev/fd"))
        with pytest.raises(OSError, match="planted after the fork"):
            run_kfold(self.CFG, examples[:30], vocab, jobs=2)
        assert_no_child_left()
        assert sorted(os.listdir("/dev/fd")) == fds

    @pytest.mark.skipif(sys.platform != "linux", reason="pipes are enlarged only on Linux")
    def test_a_worker_whose_share_fits_its_pipe_exits_before_it_is_collected(
            self, corpus90, monkeypatch):
        """The worker's share, fold 1, pickles to more than a default 64 KiB
        pipe holds; its enlarged pipe takes it all, so the worker exits while
        this process, slowed here until it sees that exit (at most 20 s),
        still trains its own share."""
        examples, vocab = corpus90
        real = train_module.train_fold
        pids = fork_spy(monkeypatch)
        seen = []

        def slowed(*args, **kwargs):
            art = real(*args, **kwargs)
            if pids:  # this process; the worker forked with the list still empty
                seen.append(len(pickle.dumps({0: art}, pickle.HIGHEST_PROTOCOL)))
                deadline = time.monotonic() + 20
                while (time.monotonic() < deadline and not
                       os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOHANG | os.WNOWAIT)):
                    time.sleep(0.005)
                seen.append(os.waitid(os.P_PID, pids[0],
                                      os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None)
            return art

        monkeypatch.setattr(train_module, "train_fold", slowed)
        cfg = small_config(k=3, epochs=1, hidden_dim=32)
        serial = run_kfold(cfg, examples[:30], vocab, jobs=1)
        assert_same_ensemble(run_kfold(cfg, examples[:30], vocab, jobs=2), serial)
        assert_no_child_left()
        assert seen[0] > 1 << 16 and seen[1::2] == [True, True], seen

    def test_every_fold_reads_the_one_position_table_and_holds_no_copy(self, corpus90):
        """The position table is no parameter: a fold trained here and one
        received from a worker both read this process's table, and neither
        keeps a copy of its own, so none crosses the pipe."""
        examples, vocab = corpus90
        ensemble = run_kfold(self.CFG, examples[:30], vocab, jobs=2)
        assert_no_child_left()
        for art in ensemble.folds:
            enc = art.params.encoder
            assert enc.positions is sinusoidal_positions(enc.max_len, enc.d)
            assert "positions" not in vars(enc)

    def test_at_most_k_processes_train(self, corpus90, monkeypatch):
        examples, vocab = corpus90
        pids = fork_spy(monkeypatch)
        run_kfold(self.CFG, examples[:30], vocab, jobs=64)
        assert len(pids) == 2
        assert_no_child_left()

    def test_the_default_is_one_process_per_usable_cpu(self, corpus90, monkeypatch):
        examples, vocab = corpus90
        pids = fork_spy(monkeypatch)
        run_kfold(self.CFG, examples[:30], vocab)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        pinned = train_module._openblas() is not None
        assert len(pids) == (min(cpus, 3) - 1 if pinned else 0)

    def test_jobs_below_one_fail(self, corpus90):
        examples, vocab = corpus90
        with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
            run_kfold(self.CFG, examples[:30], vocab, jobs=0)

    def test_without_a_pin_the_default_forks_nothing_and_jobs_warn(self, corpus90,
                                                                  monkeypatch, caplog):
        examples, vocab = corpus90
        monkeypatch.setattr(train_module, "_openblas", lambda: None)
        pids = fork_spy(monkeypatch)
        serial = run_kfold(self.CFG, examples[:30], vocab)
        assert pids == []
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        with caplog.at_level(logging.WARNING, logger="stancemoe.train"):
            assert_same_ensemble(run_kfold(self.CFG, examples[:30], vocab, jobs=2), serial)
        (record,) = [r for r in caplog.records if "BLAS" in r.getMessage()]
        assert f"numpy's BLAS ({blas})" in record.getMessage()
        assert len(pids) == 1

    def test_without_fork_the_default_is_serial_and_jobs_fail(self, corpus90,
                                                             monkeypatch):
        examples, vocab = corpus90
        monkeypatch.delattr(os, "fork")
        run_kfold(self.CFG, examples[:30], vocab)
        with pytest.raises(ValueError, match="no os.fork"):
            run_kfold(self.CFG, examples[:30], vocab, jobs=2)

    @needs_pin
    def test_folds_train_at_one_blas_thread_and_the_count_is_restored(self, corpus90,
                                                                      monkeypatch):
        examples, vocab = corpus90
        get, put = train_module._openblas()
        real = train_module.train_fold

        def recording(*args, **kwargs):
            art = real(*args, **kwargs)
            art.blas_threads = get()  # pickled back with the fold
            return art

        monkeypatch.setattr(train_module, "train_fold", recording)
        before = get()
        put(2)
        try:
            ensemble = run_kfold(self.CFG, examples[:30], vocab, jobs=2)
            assert get() == 2
        finally:
            put(before)
        assert [art.blas_threads for art in ensemble.folds] == [1, 1, 1]


@needs_pin
def test_predictions_are_the_same_bytes_at_one_and_two_blas_threads(corpus90, monkeypatch):
    """predict_logits and ensemble_forward, on a list and on one example,
    forward at one OpenBLAS thread and restore the process's count, so
    their logits are the same bytes at one thread and at two."""
    examples, vocab = corpus90
    cfg = small_config(hidden_dim=64, max_len=64)
    folds = [FoldArtifact(j, cfg.build_model(len(vocab), np.random.default_rng(j)),
                          metrics_from_labels([0, 1, 2], [0, 1, j % 3])) for j in range(3)]
    ensemble = EnsembleModel(folds=folds, weights=[0.5, 0.3, 0.2])
    get, put = train_module._openblas()
    seen = []
    real = train_module.model_forward

    def recording(*args, **kwargs):
        seen.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(train_module, "model_forward", recording)
    before = get()
    logits = {}
    try:
        for threads in (1, 2):
            put(threads)
            logits[threads] = [predict_logits(folds[0].params, examples).tobytes(),
                               ensemble_forward(ensemble, examples)[0].tobytes(),
                               ensemble_forward(ensemble, examples[0])[0].tobytes()]
            assert get() == threads
    finally:
        put(before)
    assert logits[1] == logits[2]
    assert seen and set(seen) == {1}
