import numpy as np
import pytest

import straightline as sl
from stancemoe.experts import (
    EXPERT_NAMES,
    KERNEL_SIZES,
    POOLED_NAMES,
    ExpertBank,
    attention_weights,
    cnn_features,
    expert_cnn,
    expert_cnn_backward,
    expert_contrast,
    expert_cue,
    expert_max,
    expert_max_backward,
    expert_mean,
    expert_selfattn,
    row_statistics,
    run_all_experts,
    run_all_experts_backward,
)
from stancemoe.model import ModelParams
from stancemoe.ops import Padded, grad_check
from conftest import cnn_views


def make_bank(d=4, n_filters=2, seed=0, **kw):
    return ExpertBank.init(d, n_filters, np.random.default_rng(seed), **kw)


def identity_proj(bank, name):
    bank.proj[name].weight[:] = np.eye(bank.d)
    bank.proj[name].bias[:] = 0.0


class TestMeanExpert:
    def test_symmetric_mean_identity_projection(self):
        bank = make_bank(d=2)
        identity_proj(bank, "mean")
        np.testing.assert_allclose(
            expert_mean(bank, np.array([[1.0, 3.0], [3.0, 1.0]])), [2.0, 2.0]
        )

    def test_single_token(self):
        bank = make_bank(d=3)
        identity_proj(bank, "mean")
        h = np.array([[0.5, -1.0, 2.0]])
        np.testing.assert_allclose(expert_mean(bank, h), h[0])

    def test_matches_straightline_oracle(self):
        rng = np.random.default_rng(1)
        bank = make_bank(d=2, seed=1)
        H = rng.normal(size=(3, 2))
        p = bank.proj["mean"]
        np.testing.assert_allclose(
            expert_mean(bank, H), sl.sl_expert_mean(p.weight, p.bias, H), atol=1e-12
        )


class TestMaxExpert:
    def test_columnwise_max(self):
        bank = make_bank(d=2)
        identity_proj(bank, "max")
        np.testing.assert_allclose(
            expert_max(bank, np.array([[1.0, 5.0], [4.0, 2.0]])), [4.0, 5.0]
        )

    def test_identical_rows(self):
        bank = make_bank(d=3, seed=2)
        h = np.array([0.3, -0.7, 1.1])
        H = np.tile(h, (4, 1))
        np.testing.assert_allclose(
            expert_max(bank, H), bank.proj["max"].weight @ h + bank.proj["max"].bias
        )

    def test_negative_values(self):
        bank = make_bank(d=2)
        identity_proj(bank, "max")
        np.testing.assert_allclose(
            expert_max(bank, np.array([[-3.0, -1.0], [-2.0, -4.0]])), [-2.0, -1.0]
        )

    def test_tied_max_gradient_goes_to_lowest_index(self):
        bank = make_bank(d=1)
        identity_proj(bank, "max")
        H = np.array([[2.0], [2.0], [1.0]])
        dH = expert_max_backward(bank, H, np.array([1.0]))
        np.testing.assert_array_equal(dH, [[1.0], [0.0], [0.0]])

    def test_monotonicity_of_pooled_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            H = rng.normal(size=(4, 3))
            before = H.max(axis=0)
            i, j = rng.integers(0, 4), rng.integers(0, 3)
            H2 = H.copy()
            H2[i, j] += abs(rng.normal())
            assert np.all(H2.max(axis=0) >= before - 1e-15)


class TestSelfAttentionExpert:
    def test_zero_vector_gives_uniform_weights(self):
        bank = make_bank(d=3, seed=4)
        bank.attn_vector[:] = 0.0
        H = np.random.default_rng(4).normal(size=(5, 3))
        alpha, _ = attention_weights(bank, H)
        np.testing.assert_allclose(alpha, np.full(5, 0.2), atol=1e-15)
        p = bank.proj["self_attention"]
        np.testing.assert_allclose(
            expert_selfattn(bank, H), p.weight @ H.mean(axis=0) + p.bias, atol=1e-12
        )

    def test_identical_rows_pool_to_the_row(self):
        bank = make_bank(d=3, seed=5)
        identity_proj(bank, "self_attention")
        h = np.array([0.2, -0.4, 0.9])
        np.testing.assert_allclose(expert_selfattn(bank, np.tile(h, (6, 1))), h, atol=1e-12)

    def test_frozen_one_dimensional_oracle(self):
        # v=[1], rows [0] and [1]: scores [0, tanh(1)], alpha and pooled value
        # frozen from a 50-digit evaluation
        bank = make_bank(d=1, seed=6)
        identity_proj(bank, "self_attention")
        bank.attn_vector[:] = 1.0
        H = np.array([[0.0], [1.0]])
        alpha, _ = attention_weights(bank, H)
        np.testing.assert_allclose(
            alpha, [0.3183002578054738, 0.6816997421945262], atol=1e-12
        )
        np.testing.assert_allclose(alpha, [0.3183, 0.6817], atol=1e-4)
        np.testing.assert_allclose(expert_selfattn(bank, H), [0.6816997421945262], atol=1e-12)

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(7)
        bank = make_bank(d=4, seed=7)
        for _ in range(100):
            alpha, _ = attention_weights(bank, rng.normal(size=(rng.integers(1, 9), 4)))
            assert np.all(alpha >= 0.0)
            assert abs(alpha.sum() - 1.0) <= 1e-12


class TestCnnExpert:
    def test_zero_kernels_zero_biases_leave_projection_bias(self):
        bank = make_bank(d=3, n_filters=2, seed=8)
        bank.cnn_kernels[:] = 0.0
        bank.cnn_biases[:] = 0.0
        bank.cnn_proj.bias[:] = 0.0
        H = np.random.default_rng(8).normal(size=(6, 3))
        np.testing.assert_allclose(expert_cnn(bank, H)[0], bank.proj["cnn"].bias, atol=1e-15)

    def test_constant_sequence_all_ones_kernel(self):
        bank = make_bank(d=3, n_filters=1, seed=9)
        bank.cnn_kernels[:] = 0.0
        bank.cnn_biases[:] = 0.0
        bank.cnn_kernels[:2, 0] = 1.0  # both taps of the one size-2 filter
        c = np.array([0.5, 1.0, -0.25])
        H = np.tile(c, (5, 1))
        feats, _ = cnn_features(bank, H)
        expected = max(2.0 * c.sum(), 0.0)
        np.testing.assert_allclose(feats, [expected, 0.0, 0.0, 0.0], atol=1e-12)

    def test_short_sequence_zero_blocks(self):
        bank = make_bank(d=2, n_filters=2, seed=10)
        H = np.random.default_rng(10).normal(size=(3, 2))
        feats, _ = cnn_features(bank, H)
        assert feats.shape == (8,)
        # k=4 and k=5 blocks must be exactly zero for T=3
        np.testing.assert_array_equal(feats[4:], np.zeros(4))
        assert np.abs(feats[:4]).sum() > 0.0

    def test_matches_straightline_oracle(self):
        rng = np.random.default_rng(11)
        bank = make_bank(d=3, n_filters=2, seed=11)
        for T in (2, 4, 7):
            H = rng.normal(size=(T, 3))
            expected = sl.sl_expert_cnn(
                bank.proj["cnn"].weight, bank.proj["cnn"].bias,
                *cnn_views(bank),
                bank.cnn_proj.weight, bank.cnn_proj.bias, H,
            )
            np.testing.assert_allclose(expert_cnn(bank, H)[0], expected, atol=1e-12)


class TestCnnRaggedStack:
    # the CNN convolves the stack's rows flattened end to end, so windows
    # near a sequence's end read its padding rows and the next sequence;
    # lengths 1 and 2 are shorter than most kernel sizes
    LENGTHS = (1, 2, 4, 5, 9)

    def stack(self, rng):
        return Padded.stack([rng.normal(size=(n, 4)) for n in self.LENGTHS])

    def test_sequences_never_mix(self):
        rng = np.random.default_rng(31)
        bank = make_bank(d=4, n_filters=2, seed=31)
        H = self.stack(rng)
        feats, _ = cnn_features(bank, H)
        for b, n in enumerate(self.LENGTHS):
            np.testing.assert_allclose(feats[b], cnn_features(bank, H.data[b, :n])[0],
                                       rtol=0, atol=1e-12)
            changed = H.data.copy()
            padding = H.valid == 0.0
            changed[padding] = rng.normal(size=changed[padding].shape)
            if b + 1 < len(self.LENGTHS):
                changed[b + 1] = rng.normal(size=changed[b + 1].shape)
            other, _ = cnn_features(bank, H.like(changed))
            np.testing.assert_array_equal(other[b], feats[b])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(32)
        bank = make_bank(d=4, n_filters=2, seed=32)
        # nonzero biases, so some windows sit below the ReLU
        bank.cnn_biases[:] = rng.normal(scale=0.3, size=2 * len(KERNEL_SIZES))
        H = self.stack(rng)
        gH = np.zeros_like(H.data)

        def f():
            bank.zero_grads()
            e = expert_cnn(bank, H)[0]
            gH[:] = expert_cnn_backward(bank, H, e)
            return 0.5 * float(np.sum(e * e))

        params = [("H", H.data, gH)] + [p for p in bank.named_params() if "cnn" in p[0]]
        rep = grad_check(f, params)
        assert rep.max_rel_err < 1e-3, rep.worst_param
        f()
        assert not (gH * (1.0 - H.valid[..., None])).any()  # padding rows


class TestCueExpert:
    def test_two_row_mean(self):
        bank = make_bank(d=2, seed=12)
        identity_proj(bank, "cue")
        H = np.array([[1.0, 0.0], [9.0, 9.0], [3.0, 2.0]])
        np.testing.assert_allclose(expert_cue(bank, H, {0, 2}), [2.0, 1.0], atol=1e-7)

    def test_empty_mask_returns_bias(self):
        bank = make_bank(d=3, seed=13)
        H = np.random.default_rng(13).normal(size=(4, 3))
        np.testing.assert_array_equal(expert_cue(bank, H, frozenset()), bank.proj["cue"].bias)

    def test_full_mask_equals_mean_up_to_eps(self):
        bank = make_bank(d=3, seed=14)
        identity_proj(bank, "cue")
        H = np.random.default_rng(14).normal(size=(5, 3))
        np.testing.assert_allclose(expert_cue(bank, H, set(range(5))), H.mean(axis=0),
                                   atol=1e-6)

    def test_homogeneity_with_zero_bias(self):
        bank = make_bank(d=3, seed=15)
        bank.proj["cue"].bias[:] = 0.0
        rng = np.random.default_rng(15)
        H = rng.normal(size=(6, 3))
        for s in (2.0, -0.5, 10.0):
            np.testing.assert_allclose(
                expert_cue(bank, s * H, {1, 4}), s * expert_cue(bank, H, {1, 4}),
                atol=1e-12,
            )

    @pytest.mark.parametrize("position", [-1, 4])
    def test_position_out_of_range_rejected_by_value(self, position):
        # -1 would otherwise mark the last row, and 4 fail as an IndexError
        bank = make_bank(d=3, seed=16)
        H = np.random.default_rng(16).normal(size=(4, 3))
        with pytest.raises(ValueError, match=rf"\[{position}\] out of range for length 4"):
            expert_cue(bank, H, {position})


class TestContrastExpert:
    def test_direct_evaluation(self):
        bank = make_bank(d=2, seed=16)
        identity_proj(bank, "contrast")
        H = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        out = expert_contrast(bank, H, {1})
        np.testing.assert_allclose(out, [10.0, 10.0], atol=1e-6)

    def test_empty_mask_is_zero_vector(self):
        bank = make_bank(d=3, seed=17)
        H = np.random.default_rng(17).normal(size=(4, 3))
        np.testing.assert_array_equal(expert_contrast(bank, H, frozenset()), np.zeros(3))

    def test_scale_one_full_mask_reduces_to_mean_pooling(self):
        bank = make_bank(d=3, seed=18, contrast_scale=1.0)
        identity_proj(bank, "contrast")
        H = np.random.default_rng(18).normal(size=(5, 3))
        out = expert_contrast(bank, H, set(range(5)))
        np.testing.assert_allclose(out, H.sum(axis=0) / (5 + bank.eps), atol=1e-15)
        mean = H.mean(axis=0)
        assert np.abs(out - mean).max() <= 2 * bank.eps * np.linalg.norm(mean)


class TestPermutationInvariance:
    def test_order_free_experts(self):
        rng = np.random.default_rng(19)
        bank = make_bank(d=4, seed=19)
        H = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        for fn in (expert_mean, expert_max, expert_selfattn):
            np.testing.assert_allclose(fn(bank, H), fn(bank, H[perm]), atol=1e-12)


def direct_outputs(bank, H, C, D, names=EXPERT_NAMES):
    """Each named expert called directly, in the order given."""
    fwd = {
        "mean": lambda: expert_mean(bank, H),
        "max": lambda: expert_max(bank, H),
        "self_attention": lambda: expert_selfattn(bank, H),
        "cnn": lambda: expert_cnn(bank, H)[0],
        "cue": lambda: expert_cue(bank, H, C),
        "contrast": lambda: expert_contrast(bank, H, D),
    }
    return [fwd[name]() for name in names]


class TestRunAllExperts:
    def test_all_flags_on(self):
        bank = make_bank(d=3, seed=20)
        H = np.random.default_rng(20).normal(size=(4, 3))
        vectors = run_all_experts(bank, H, {1}, {2})
        for got, want in zip(vectors, direct_outputs(bank, H, {1}, {2}), strict=True):
            np.testing.assert_array_equal(got, want)
        assert len(vectors) == 6
        assert all(np.all(np.isfinite(v)) for v in vectors)

    def test_single_expert(self):
        bank = make_bank(d=3, seed=21)
        H = np.random.default_rng(21).normal(size=(4, 3))
        vectors = run_all_experts(bank, H, set(), set(), ("mean",))
        assert len(vectors) == 1
        np.testing.assert_array_equal(vectors[0], expert_mean(bank, H))

    def test_without_self_attention(self):
        bank = make_bank(d=3, seed=22)
        H = np.random.default_rng(22).normal(size=(4, 3))
        names = tuple(n for n in EXPERT_NAMES if n != "self_attention")
        # an unordered request still comes back in canonical order
        vectors = run_all_experts(bank, H, {1}, {2}, set(names))
        assert len(vectors) == 5
        for got, want in zip(vectors, direct_outputs(bank, H, {1}, {2}, names), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_all_flags_off_rejected(self):
        bank = make_bank()
        with pytest.raises(ValueError):
            run_all_experts(bank, np.zeros((2, 4)), set(), set(), ())

    def test_backward_rejects_one_gradient_for_two_experts(self):
        bank = make_bank(d=3, seed=25)
        H = np.random.default_rng(25).normal(size=(4, 3))
        with pytest.raises(ValueError, match="expected 2 expert gradients.*got 1"):
            run_all_experts_backward(bank, H, {1}, {2}, ("mean", "cnn"), [np.ones(3)])

    def test_statistics_stand_in_for_the_masks_but_form_no_input_gradient(self):
        """Given the rows' statistics, the experts project them and read no
        mask; forming dL/dH needs the masks, and without them the backward
        refuses, naming them, before it accumulates any gradient."""
        bank = make_bank(d=3, seed=28)
        H = np.random.default_rng(28).normal(size=(4, 3))
        stats = row_statistics(bank, H, {1}, {2})
        for got, want in zip(run_all_experts(bank, H, None, None, EXPERT_NAMES, stats),
                             run_all_experts(bank, H, {1}, {2})):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        bank.zero_grads()
        dvecs = [np.ones(3)] * len(EXPERT_NAMES)
        with pytest.raises(ValueError, match="needs the cue mask and contrast mask"):
            run_all_experts_backward(bank, H, None, None, EXPERT_NAMES, dvecs, stats=stats)
        with pytest.raises(ValueError, match="needs the contrast mask;"):
            run_all_experts_backward(bank, H, {1}, None, EXPERT_NAMES, dvecs, stats=stats)
        assert not any(grad.any() for _, _, grad in bank.named_params())

    def test_pooling_without_statistics_names_a_missing_mask(self):
        """Given neither statistics nor a cue or contrast mask, the forward
        refuses, naming the mask, and so does a backward that forms no dL/dH."""
        bank = make_bank(d=3, seed=29)
        H = np.random.default_rng(29).normal(size=(4, 3))
        with pytest.raises(ValueError, match="pooling the rows needs the cue mask and contrast"):
            run_all_experts(bank, H, None, None, ("cue", "contrast"))
        with pytest.raises(ValueError, match="needs the cue mask;"):
            run_all_experts(bank, H, None, {2}, EXPERT_NAMES)
        with pytest.raises(ValueError, match="needs the cue mask;"):
            expert_cue(bank, H, None)
        with pytest.raises(ValueError, match="needs the contrast mask;"):
            expert_contrast(bank, H, None)
        with pytest.raises(ValueError, match="pooling the rows needs the contrast mask;"):
            run_all_experts_backward(bank, H, {1}, None, ("contrast",), [np.ones(3)],
                                     input_grad=False)
        # mean and max pooling read no mask
        run_all_experts(bank, H, None, None, ("mean", "max"))

    def test_a_set_of_positions_with_a_stack_is_rejected(self):
        """A set of mask positions marks one sequence: with a stack of
        three it is refused, not read as rows of the batch axis, forward
        and backward; the stack's (B, T) indicator and one sequence's set
        (a 0-d length) are read."""
        rng = np.random.default_rng(30)
        bank = make_bank(d=4, seed=30)
        H, C, D = ragged_input(rng)
        message = r"a set of positions marks one sequence; a stack takes a \(B, T\) indicator"
        with pytest.raises(ValueError, match=message):
            run_all_experts(bank, H, {1}, D)
        with pytest.raises(ValueError, match=message):
            run_all_experts(bank, H, C, {1})
        with pytest.raises(ValueError, match=message):
            run_all_experts_backward(bank, H, {1}, D, ("cue",), [np.ones((3, 4))])
        with pytest.raises(ValueError, match=message):
            expert_cue(bank, H, {1})
        with pytest.raises(ValueError, match=message):
            expert_contrast(bank, H, {1})
        run_all_experts(bank, H, C, D)
        one = Padded.of([H.data[2]], single=True)  # one sequence: a 0-d length
        np.testing.assert_array_equal(expert_cue(bank, one, {2}),
                                      expert_cue(bank, H.data[2], {2}))

    def test_unknown_expert_name_rejected(self):
        with pytest.raises(ValueError, match="pooler9000"):
            ModelParams.init(20, 4, 8, np.random.default_rng(0),
                             active_experts=("mean", "pooler9000"))
        # the layer itself: an unknown name is not dropped
        with pytest.raises(ValueError, match="maxx"):
            run_all_experts(make_bank(d=3), np.zeros((4, 3)), {1}, {2}, ("mean", "maxx", "cnn"))


def ragged_input(rng):
    """A ragged (3, 6, 4) stack with lengths 1, 4 and 6, and cue and contrast
    indicators on real rows only: the first sequence has empty masks and the
    second an empty contrast mask."""
    H = Padded.stack([rng.normal(size=(n, 4)) for n in (1, 4, 6)])
    C, D = np.zeros((3, 6)), np.zeros((3, 6))
    C[1, [1, 3]] = C[2, 2] = 1.0
    D[2, [1, 4, 5]] = 1.0
    return H, C, D


# each expert alone, the four pooled experts together on one sequence, and
# all six on a ragged stack
GRADIENT_CASES = {**{name: (name,) for name in EXPERT_NAMES},
                  "pooled": POOLED_NAMES, "ragged": EXPERT_NAMES}


class TestExpertGradients:
    @pytest.mark.parametrize("case", GRADIENT_CASES)
    def test_gradients_match_finite_differences(self, case):
        names, ragged = GRADIENT_CASES[case], case == "ragged"
        rng = np.random.default_rng(100 + list(GRADIENT_CASES).index(case))
        bank = make_bank(d=4, n_filters=2, seed=23)
        if ragged:
            H, C, D = ragged_input(rng)
            X = H.data
        else:
            H = X = rng.normal(size=(5, 4))
            C, D = frozenset({1, 3}), frozenset({2, 4})
        gH = np.zeros_like(X)

        def f():
            bank.zero_grads()
            es = direct_outputs(bank, H, C, D, names)
            gH[:] = run_all_experts_backward(bank, H, C, D, names, es)
            return 0.5 * sum(float(np.sum(e * e)) for e in es)

        params = [("H", X, gH)] + list(bank.named_params())
        rep = grad_check(f, params)
        assert rep.max_rel_err < 1e-3, rep.worst_param
        if ragged:
            f()
            assert not (gH * (1.0 - H.valid[..., None])).any()  # padding rows
