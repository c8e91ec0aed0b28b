import numpy as np
import pytest

import straightline as sl
from stancemoe.experts import EXPERT_NAMES, ExpertBank, run_all_experts
from stancemoe.head import classify, fuse, gate_forward
from stancemoe.model import ModelParams, model_forward
from stancemoe.ops import LinearParams
from conftest import random_example, toy_example


def lin(weight, bias):
    weight = np.asarray(weight, float)
    values = {"weight": weight, "bias": bias}
    return LinearParams(*weight.shape).fill(lambda path, _: values[path], grads=True)


def make_parts(d=4, n_filters=2, seed=0, n_experts=6):
    rng = np.random.default_rng(seed)
    bank = ExpertBank.init(d, n_filters, rng)
    gate = LinearParams.init(n_experts, d, rng)
    classifier = LinearParams.init(3, d, rng)
    return bank, gate, classifier


def head_forward(head, bank, classifier, H, cue, contrast, fusion_proj=None):
    """model_forward of a head over all six experts on a precomputed H."""
    params = ModelParams(0, bank.d, H.shape[0], bank.n_filters, head=head,
                         encoder_mode="precomputed")
    params.bank, params.classifier, params.fusion_proj = bank, classifier, fusion_proj
    example = toy_example(range(H.shape[0]), cue, contrast)
    return model_forward(params, example, {example.id: H})


UNIFORM_GATE = np.full(6, 1.0 / 6)


class TestGate:
    def test_zero_params_uniform(self):
        g = gate_forward(lin(np.zeros((6, 4)), np.zeros(6)), np.ones(4))
        np.testing.assert_allclose(g, np.full(6, 1 / 6), atol=1e-15)

    def test_log_two_bias(self):
        bias = np.zeros(6)
        bias[0] = np.log(2.0)
        g = gate_forward(lin(np.zeros((6, 4)), bias), np.zeros(4))
        np.testing.assert_allclose(g, np.array([2, 1, 1, 1, 1, 1]) / 7.0, atol=1e-12)
        np.testing.assert_allclose(g, [0.2857, 0.1429, 0.1429, 0.1429, 0.1429, 0.1429],
                                   atol=1e-4)

    def test_five_expert_gate(self):
        g = gate_forward(LinearParams.init(5, 4, np.random.default_rng(0)),
                         np.random.default_rng(1).normal(size=4))
        assert g.shape == (5,)
        assert abs(g.sum() - 1.0) <= 1e-12
        assert np.all(g >= 0.0)


class TestFuse:
    def test_one_hot_selector_is_exact(self):
        rng = np.random.default_rng(2)
        vectors = [rng.normal(size=4) for _ in range(6)]
        g = np.zeros(6)
        g[2] = 1.0
        np.testing.assert_array_equal(fuse(g, vectors), vectors[2])

    def test_equal_experts_ignore_gate(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=5)
        g = gate_forward(LinearParams.init(4, 3, rng), rng.normal(size=3))
        np.testing.assert_allclose(fuse(g, [e] * 4), e, atol=1e-12)

    def test_midpoint(self):
        out = fuse(np.array([0.5, 0.5]), [np.array([2.0, 0.0]), np.array([0.0, 2.0])])
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fuse(np.array([1.0]), [np.zeros(3), np.zeros(3)])

    def test_convex_hull_per_dimension(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            vectors = [rng.normal(size=3) for _ in range(5)]
            g = gate_forward(LinearParams.init(5, 2, rng), rng.normal(size=2))
            h = fuse(g, vectors)
            E = np.array(vectors)
            assert np.all(h >= E.min(axis=0) - 1e-12)
            assert np.all(h <= E.max(axis=0) + 1e-12)


class TestClassify:
    def test_zero_params_uniform(self):
        logits, probs = classify(lin(np.zeros((3, 4)), np.zeros(3)), np.ones(4))
        np.testing.assert_array_equal(logits, np.zeros(3))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-15)

    def test_dominant_bias(self):
        _, probs = classify(lin(np.zeros((3, 4)), [10.0, 0.0, 0.0]), np.zeros(4))
        assert probs.argmax() == 0
        assert probs[0] > 0.9999

    def test_shift_invariance_of_probs(self):
        rng = np.random.default_rng(5)
        cp = LinearParams.init(3, 4, rng)
        h = rng.normal(size=4)
        logits, probs = classify(cp, h)
        cp_shifted = lin(cp.weight, cp.bias + 7.5)
        logits2, probs2 = classify(cp_shifted, h)
        np.testing.assert_allclose(logits2, logits + 7.5, atol=1e-12)
        np.testing.assert_allclose(probs2, probs, atol=1e-12)

    def test_argmax_invariance_under_constant_shift(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            logits = rng.normal(size=3)
            c = rng.uniform(-5, 5)
            assert np.argmax(logits + c) == np.argmax(logits)


class TestSelectorProperty:
    def test_one_hot_gate_equals_single_expert_prediction(self):
        bank, _, classifier = make_parts(seed=7)
        H = np.random.default_rng(7).normal(size=(5, 4))
        vectors = run_all_experts(bank, H, {1}, {2})
        for j in range(6):
            g = np.zeros(6)
            g[j] = 1.0
            fused = fuse(g, vectors)
            logits_moe, _ = classify(classifier, fused)
            logits_single, _ = classify(classifier, vectors[j])
            np.testing.assert_array_equal(logits_moe, logits_single)


class TestStackedHead:
    def test_all_zero_experts_give_uniform(self):
        bank, _, classifier = make_parts(seed=8)
        for name in EXPERT_NAMES:
            bank.proj[name].weight[:] = 0.0
            bank.proj[name].bias[:] = 0.0
        bank.cnn_proj.bias[:] = 0.0
        classifier.bias[:] = 0.0
        H = np.random.default_rng(8).normal(size=(4, 4))
        out = head_forward("stacked", bank, classifier, H, {1}, {2})
        np.testing.assert_allclose(out.probs, np.full(3, 1 / 3), atol=1e-15)

    def test_only_mean_nonzero(self):
        bank, _, classifier = make_parts(seed=9)
        for name in EXPERT_NAMES:
            if name != "mean":
                bank.proj[name].weight[:] = 0.0
                bank.proj[name].bias[:] = 0.0
        bank.cnn_proj.bias[:] = 0.0
        H = np.random.default_rng(9).normal(size=(4, 4))
        out = head_forward("stacked", bank, classifier, H, set(), set())
        np.testing.assert_allclose(
            out.fused, run_all_experts(bank, H, set(), set())[EXPERT_NAMES.index("mean")],
            atol=1e-12,
        )

    def test_equals_unweighted_sum(self):
        bank, _, classifier = make_parts(seed=10)
        H = np.random.default_rng(10).normal(size=(6, 4))
        vectors = run_all_experts(bank, H, {2}, {3})
        out = head_forward("stacked", bank, classifier, H, {2}, {3})
        np.testing.assert_allclose(out.fused, np.sum(vectors, axis=0), atol=1e-12)
        np.testing.assert_allclose(out.gate_weights, UNIFORM_GATE, atol=1e-15)


class TestFusionHead:
    def test_zero_experts_leave_projection_bias(self):
        bank, _, classifier = make_parts(seed=11)
        rng = np.random.default_rng(11)
        proj = LinearParams.init(4, 24, rng)
        for name in EXPERT_NAMES:
            bank.proj[name].weight[:] = 0.0
            bank.proj[name].bias[:] = 0.0
        bank.cnn_proj.bias[:] = 0.0
        H = rng.normal(size=(4, 4))
        out = head_forward("fusion", bank, classifier, H, set(), set(), proj)
        np.testing.assert_allclose(out.fused, proj.bias, atol=1e-15)

    def test_block_identity_projection_is_scaled_uniform_gate(self):
        bank, _, classifier = make_parts(seed=12)
        proj = lin(np.hstack([np.eye(4)] * 6), np.zeros(4))
        H = np.random.default_rng(12).normal(size=(5, 4))
        out = head_forward("fusion", bank, classifier, H, {1}, {2}, proj)
        uniform_fused = fuse(UNIFORM_GATE, run_all_experts(bank, H, {1}, {2}))
        np.testing.assert_allclose(out.fused, 6.0 * uniform_fused, atol=1e-12)

    def test_matches_straightline_concat_project(self):
        bank, _, classifier = make_parts(seed=13)
        rng = np.random.default_rng(13)
        proj = LinearParams.init(4, 24, rng)
        H = rng.normal(size=(5, 4))
        out = head_forward("fusion", bank, classifier, H, {1}, {3}, proj)
        concat = np.concatenate(run_all_experts(bank, H, {1}, {3}))
        expected_fused = sl.sl_affine(proj.weight, proj.bias, concat)
        logits, probs = sl.sl_classify(classifier.weight, classifier.bias, expected_fused)
        np.testing.assert_allclose(out.fused, expected_fused, atol=1e-12)
        np.testing.assert_allclose(out.logits, logits, atol=1e-12)
        np.testing.assert_allclose(out.probs, probs, atol=1e-12)


class TestSimplexInvariants:
    def test_gate_and_probs_on_simplex(self):
        rng = np.random.default_rng(14)
        for i in range(100):
            d = int(rng.integers(2, 10))
            T = int(rng.integers(1, 9))
            params = ModelParams.init(vocab_size=10, d=d, max_len=12,
                                      rng=np.random.default_rng(i))
            ex = random_example(rng, 10, T)
            out = model_forward(params, ex)
            for v in (out.gate_weights, out.probs):
                assert np.all(v >= 0.0)
                assert abs(v.sum() - 1.0) <= 1e-9
