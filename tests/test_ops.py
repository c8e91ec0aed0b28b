import numpy as np
import pytest

from stancemoe.ops import (
    GradCheckError,
    LinearParams,
    affine,
    affine_backward,
    conv1d,
    conv1d_backward,
    grad_check,
    log_softmax,
    param_affine,
    softmax,
    softmax_backward,
)

# leading shapes for the last-axis ops: one vector, a (T, n) matrix, a (B, T, n) stack
LEADING = pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["vector", "rows", "stack"])


def lin(weight, bias):
    return LinearParams(np.asarray(weight, float), np.asarray(bias, float))


class TestAffine:
    def test_identity_map(self):
        p = lin(np.eye(2), [0.0, 0.0])
        np.testing.assert_array_equal(affine(p, np.array([2.0, 1.0])), [2.0, 1.0])

    def test_zero_weight_returns_bias(self):
        p = lin(np.zeros((2, 2)), [5.0, 7.0])
        np.testing.assert_array_equal(affine(p, np.array([3.0, -4.0])), [5.0, 7.0])

    def test_hand_matrix_vector_product(self):
        p = lin([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
        np.testing.assert_allclose(affine(p, np.array([1.0, 1.0])), [3.0, 7.0])

    def test_dimension_mismatch_raises(self):
        p = lin(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            affine(p, np.array([1.0, 2.0, 3.0]))

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(0)
        p = lin(rng.normal(size=(3, 4)), np.zeros(3))
        x, y = rng.normal(size=4), rng.normal(size=4)
        a, b = 1.7, -0.4
        np.testing.assert_allclose(
            affine(p, a * x + b * y), a * affine(p, x) + b * affine(p, y), atol=1e-12
        )

    @LEADING
    def test_backward_matches_finite_differences(self, lead):
        rng = np.random.default_rng(1)
        p = LinearParams.init(3, 4, rng)
        x = rng.normal(size=lead + (4,))
        target = rng.normal(size=lead + (3,))

        def f():
            p.zero_grads()
            y = affine(p, x)
            affine_backward(p, x, y - target)
            return 0.5 * float(np.sum((y - target) ** 2))

        rep = grad_check(f, [("w", p.weight, p.grad_weight), ("b", p.bias, p.grad_bias)])
        assert rep.max_rel_err < 1e-6

    def test_grad_buffers_shape_match(self):
        p = LinearParams.init(5, 3, np.random.default_rng(2))
        assert p.grad_weight.shape == p.weight.shape
        assert p.grad_bias.shape == p.bias.shape
        p.grad_weight += 1.0
        p.zero_grads()
        assert not p.grad_weight.any()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_constant_input_is_uniform(self):
        for c in (-3.0, 0.0, 42.0):
            s = softmax(np.full(5, c))
            np.testing.assert_allclose(s, np.full(5, 0.2), atol=1e-15)

    def test_frozen_exponential_oracle(self):
        # exp(0)=1, exp(0.7616)=2.14165..., computed at 50 digits
        s = softmax(np.array([0.0, 0.7616]))
        np.testing.assert_allclose(
            s, [0.3182989897356916, 0.6817010102643084], atol=1e-12
        )
        np.testing.assert_allclose(s, [0.3183, 0.6817], atol=1e-4)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))
        with pytest.raises(ValueError):
            log_softmax(np.zeros((3, 0)))

    def test_log_softmax_is_log_of_softmax_and_finite_where_it_underflows(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(4, 6))
        np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)
        extreme = np.array([0.0, -1e3, 1e3])
        np.testing.assert_allclose(log_softmax(extreme), [-1e3, -2e3, 0.0], atol=1e-12)

    def test_simplex_up_to_magnitude_1e3(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            z = rng.uniform(-1e3, 1e3, size=rng.integers(1, 9))
            s = softmax(z)
            assert np.all(np.isfinite(s))
            assert np.all(s >= 0.0)
            assert abs(s.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.normal(size=6)
            c = rng.uniform(-50, 50)
            np.testing.assert_allclose(softmax(z + c), softmax(z), atol=1e-12)

    @LEADING
    def test_backward_matches_finite_differences(self, lead):
        rng = np.random.default_rng(5)
        z = rng.normal(size=lead + (5,))
        gz = np.zeros_like(z)
        target = rng.normal(size=lead + (5,))

        def f():
            s = softmax(z)
            gz[:] = softmax_backward(s, s - target)
            return 0.5 * float(np.sum((s - target) ** 2))

        rep = grad_check(f, [("z", z, gz)])
        assert rep.max_rel_err < 1e-6


class TestBatchedMatchesRows:
    """A (B, T, n) call of each last-axis op equals its calls on every row."""

    def test_affine_forward_and_backward(self):
        rng = np.random.default_rng(9)
        batched = LinearParams.init(3, 4, rng)
        rows = LinearParams(batched.weight, batched.bias)
        X = rng.normal(size=(2, 5, 4))
        dY = rng.normal(size=(2, 5, 3))
        Y = affine(batched, X)
        dX = affine_backward(batched, X, dY)
        assert Y.shape == dY.shape and dX.shape == X.shape
        for b in range(2):
            for t in range(5):
                np.testing.assert_allclose(Y[b, t], affine(rows, X[b, t]), atol=1e-12)
                np.testing.assert_allclose(dX[b, t], affine_backward(rows, X[b, t], dY[b, t]),
                                           atol=1e-12)
        np.testing.assert_allclose(batched.grad_weight, rows.grad_weight, atol=1e-12)
        np.testing.assert_allclose(batched.grad_bias, rows.grad_bias, atol=1e-12)

    def test_softmax_family(self):
        """Bit for bit: every shape takes one path, a vector included, which
        equals row 0 of the same call on a (1, n) array."""
        rng = np.random.default_rng(10)
        for shape in ((2, 5, 6), (1, 3)):
            Z = rng.normal(size=shape)
            dS = rng.normal(size=shape)
            S = softmax(Z)
            dZ = softmax_backward(S, dS)
            L = log_softmax(Z)
            for row in np.ndindex(shape[:-1]):
                s = softmax(Z[row])
                np.testing.assert_array_equal(S[row], s)
                np.testing.assert_array_equal(dZ[row], softmax_backward(s, dS[row]))
                np.testing.assert_array_equal(L[row], log_softmax(Z[row]))


class TestConv1dValid:
    # one filter (F = 1): tap-major kernel stacks are (k, 1, d), outputs (R, 1);
    # the rows of a full window are the valid convolution, the last k - 1
    # rows keep the taps that fit
    def test_all_ones_on_constants(self):
        out = conv1d(np.ones((3, 1)), np.ones((2, 1, 1)), np.zeros(1), (0, 0))
        np.testing.assert_array_equal(out[:, 0], [2.0, 2.0, 1.0])

    def test_bias_only(self):
        out = conv1d(np.random.default_rng(0).normal(size=(5, 2)),
                     np.zeros((2, 1, 2)), np.array([3.0]), (0, 0))
        np.testing.assert_array_equal(out[:, 0], np.full(5, 3.0))

    def test_hand_dot_products(self):
        H = np.array([[1.0], [2.0], [3.0]])
        kernel = np.array([[[1.0]], [[-1.0]]])
        np.testing.assert_allclose(conv1d(H, kernel, np.zeros(1), (0, 0))[:, 0],
                                   [-1.0, -1.0, 3.0])

    def test_feature_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="feature dims"):
            conv1d(np.ones((4, 3)), np.ones((2, 1, 2)), np.zeros(1), (0, 0))

    def test_short_sequence_keeps_the_taps_that_fit(self):
        # two rows, a four-tap filter: window 0 has taps 0 and 1, window 1 tap 0
        H = np.array([[1.0], [10.0]])
        kernel = np.array([[[1.0]], [[2.0]], [[3.0]], [[4.0]]])
        np.testing.assert_array_equal(conv1d(H, kernel, np.zeros(1), (0,) * 4)[:, 0],
                                      [21.0, 10.0])

    def test_tap_starts_leave_out_absent_taps(self):
        # filter 0 has two taps, filter 1 three; tap 2 of filter 0 holds a
        # value no product may read
        rng = np.random.default_rng(5)
        H = rng.normal(size=(6, 3))
        kernels = rng.normal(size=(3, 2, 3))
        bias = rng.normal(size=2)
        out = conv1d(H, kernels, bias, (0, 0, 1))
        for t in range(6):
            for f, k in enumerate((2, 3)):
                expected = bias[f] + sum(kernels[j, f] @ H[t + j]
                                         for j in range(k) if t + j < 6)
                np.testing.assert_allclose(out[t, f], expected, rtol=0, atol=1e-12)

    def test_constant_sequence_yields_constant_output(self):
        rng = np.random.default_rng(6)
        row = rng.normal(size=4)
        H = np.tile(row, (7, 1))
        out = conv1d(H, rng.normal(size=(3, 1, 4)), np.array([rng.normal()]), (0,) * 3)
        assert np.ptp(out[:5]) <= 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        # one two-tap filter; then a two-tap and a three-tap filter, whose
        # absent tap must get no gradient
        for shape, starts in (((2, 1, 3), (0, 0)), ((3, 2, 3), (0, 0, 1))):
            H = rng.normal(size=(6, 3))
            kernel = rng.normal(size=shape)
            bias = rng.normal(size=shape[1])
            gH, gk, gb = np.zeros_like(H), np.zeros_like(kernel), np.zeros_like(bias)
            weights = rng.normal(size=(6, shape[1]))

            def f():
                out = conv1d(H, kernel, bias, starts)
                dout = weights * out  # loss = 0.5 sum w_t out_t^2
                gk[:] = 0.0
                gb[:] = 0.0
                gH[:] = conv1d_backward(H, kernel, starts, dout, gk, gb)
                return 0.5 * float(np.sum(weights * out**2))

            taps = [(f"kernel_tap{j}", kernel[j, s:], gk[j, s:]) for j, s in enumerate(starts)]
            rep = grad_check(f, [("H", H, gH), ("bias", bias, gb)] + taps)
            assert rep.max_rel_err < 1e-6
            f()
            for j, s in enumerate(starts):
                assert not gk[j, :s].any()
            assert conv1d_backward(H, kernel, starts, weights, gk, gb,
                                   input_grad=False) is None


class TestGradCheck:
    def test_quadratic(self):
        x = np.array([3.0])
        g = np.zeros(1)

        def f():
            g[:] = 2.0 * x
            return float(x[0] ** 2)

        rep = grad_check(f, [("x", x, g)], h=1e-4)
        assert rep.max_rel_err < 1e-6

    def test_constant_function(self):
        x = np.array([1.0, -2.0])
        g = np.zeros(2)
        rep = grad_check(lambda: 7.0, [("x", x, g)])
        assert rep.max_rel_err == 0.0

    def test_detects_wrong_gradient(self):
        x = np.array([2.0])
        g = np.zeros(1)

        def f():
            g[:] = 3.0 * x  # wrong on purpose (should be 2x)
            return float(x[0] ** 2)

        rep = grad_check(f, [("x", x, g)])
        assert rep.max_rel_err > 0.2
        assert rep.worst_param == "x[0]"

    def test_non_finite_probe_names_parameter(self):
        x = np.array([5e-5])
        g = np.zeros(1)

        def f():
            g[:] = 0.5 / np.sqrt(x)
            return float(np.sqrt(x[0]))  # x - h < 0 -> nan

        with np.errstate(invalid="ignore"), pytest.raises(GradCheckError, match=r"x\[0\]"):
            grad_check(f, [("x", x, g)], h=1e-4)

    def test_duplicate_names_rejected(self):
        x = np.array([1.0])
        g = np.zeros(1)
        with pytest.raises(ValueError, match="duplicate"):
            grad_check(lambda: 0.0, [("x", x, g), ("x", x, g)])


@pytest.mark.parametrize("K", [None, 3], ids=["plain", "fold-stack"])
@LEADING
def test_param_affine_equals_its_row_by_row_calls(K, lead):
    """One flattened product, plain or fold-stacked, equals a call per row."""
    rng = np.random.default_rng(13)
    fold = () if K is None else (K,)
    W, b = rng.normal(size=fold + (4, 3)), rng.normal(size=fold + (3,))
    X = rng.normal(size=fold + lead + (4,))
    Y = param_affine(X, W, b)
    assert Y.shape == fold + lead + (3,)
    for k in np.ndindex(*fold):
        for i in np.ndindex(*lead):
            np.testing.assert_allclose(Y[k + i], param_affine(X[k + i], W[k], b[k]),
                                       rtol=0, atol=1e-12)
