"""Dense numerical kernel shared by every model component.

Array conventions used throughout the package: matrices are C-contiguous
float64 arrays of shape (rows, cols), vectors are float64 arrays of shape
(dim,).  A token sequence of length T in a model of width d travels as a
(T, d) matrix, one token representation per row.

Every differentiable operation comes as a forward / ``*_backward`` pair.
Backward passes are hand-derived, accumulate parameter gradients in place
(``+=``) and return the gradient with respect to the operation's input,
so callers chain them in reverse order without a tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearParams",
    "affine",
    "affine_backward",
    "affine_rows",
    "affine_rows_backward",
    "softmax",
    "softmax_backward",
    "conv1d_valid",
    "conv1d_valid_backward",
    "grad_check",
    "GradCheckReport",
    "GradCheckError",
    "as_f64",
]


def as_f64(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(x, dtype=np.float64)


class LinearParams:
    """An affine map y = W x + b with paired gradient buffers.

    ``weight`` has shape (out_dim, in_dim) and ``bias`` shape (out_dim,).
    Gradient buffers always shape-match their parameters and accumulate
    across backward calls until :meth:`zero_grads`.
    """

    def __init__(self, weight, bias):
        self.weight = as_f64(weight)
        self.bias = as_f64(bias)
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be 2-d, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match weight rows {self.weight.shape[0]}"
            )
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    @classmethod
    def init(cls, out_dim: int, in_dim: int, rng: np.random.Generator) -> "LinearParams":
        """Uniform(-1/sqrt(in_dim), +1/sqrt(in_dim)) weights, zero bias."""
        limit = 1.0 / np.sqrt(in_dim)
        return cls(rng.uniform(-limit, limit, size=(out_dim, in_dim)), np.zeros(out_dim))

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def zero_grads(self) -> None:
        self.grad_weight[:] = 0.0
        self.grad_bias[:] = 0.0


def affine(p: LinearParams, x: np.ndarray) -> np.ndarray:
    """W x + b for a single input vector."""
    if x.shape != (p.in_dim,):
        raise ValueError(f"affine expects input of shape ({p.in_dim},), got {x.shape}")
    return p.weight @ x + p.bias


def affine_backward(p: LinearParams, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Accumulate dW += dy xᵀ, db += dy; return dx = Wᵀ dy."""
    p.grad_weight += np.outer(dy, x)
    p.grad_bias += dy
    return p.weight.T @ dy


def affine_rows(p: LinearParams, X: np.ndarray) -> np.ndarray:
    """Apply the affine map to each row of X: (T, in) -> (T, out)."""
    if X.ndim != 2 or X.shape[1] != p.in_dim:
        raise ValueError(f"affine_rows expects (T, {p.in_dim}), got {X.shape}")
    return X @ p.weight.T + p.bias


def affine_rows_backward(p: LinearParams, X: np.ndarray, dY: np.ndarray) -> np.ndarray:
    """Row-stacked counterpart of :func:`affine_backward`; returns dX."""
    p.grad_weight += dY.T @ X
    p.grad_bias += dY.sum(axis=0)
    return dY @ p.weight


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a vector (max-subtracted)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError(f"softmax expects a non-empty vector, got shape {z.shape}")
    e = np.exp(z - z.max())
    return e / e.sum()


def softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Stable softmax applied independently to each row of a matrix."""
    if Z.ndim != 2 or Z.shape[1] == 0:
        raise ValueError(f"softmax_rows expects a (T, n) matrix, got shape {Z.shape}")
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True)


def softmax_backward(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Given s = softmax(z) and ds = dL/ds, return dL/dz = s * (ds - s.ds)."""
    return s * (ds - float(s @ ds))


def softmax_rows_backward(S: np.ndarray, dS: np.ndarray) -> np.ndarray:
    """Row-wise counterpart of :func:`softmax_backward`."""
    return S * (dS - (S * dS).sum(axis=1, keepdims=True))


def conv1d_valid(H: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 1-d convolution of a (T, d) sequence with an (n_f, k, d) kernel stack.

    Output row t, column f is ``bias[f] + sum_j kernels[f, j] . H[t+j]``,
    evaluated only where the kernel fits entirely inside the sequence, so
    the result has shape (T - k + 1, n_f).  No padding.
    """
    T, d = H.shape  # unpacking rejects arrays of the wrong rank
    _, k, kernel_d = kernels.shape
    if d != kernel_d:
        raise ValueError(f"feature dims differ: H has {d}, kernels have {kernel_d}")
    if T < k:
        raise ValueError(f"sequence length {T} shorter than kernel size {k}")
    L = T - k + 1
    out = np.tile(bias, (L, 1))
    for j in range(k):
        out += H[j : j + L] @ kernels[:, j, :].T
    return out


def conv1d_valid_backward(
    H: np.ndarray, kernels: np.ndarray, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_valid for dL/dout of shape (L, n_f); returns
    (dH, dkernels, dbias)."""
    k = kernels.shape[1]
    L = dout.shape[0]
    dH = np.zeros_like(H)
    dkernels = np.empty_like(kernels)
    for j in range(k):
        dkernels[:, j, :] = dout.T @ H[j : j + L]
        dH[j : j + L] += dout @ kernels[:, j, :]
    return dH, dkernels, dout.sum(axis=0)


class GradCheckError(RuntimeError):
    """Raised when a finite-difference probe produces a non-finite loss."""


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_err: float
    worst_param: str
    per_param: dict[str, float] = field(default_factory=dict)

    def passed(self, tol: float = 1e-3) -> bool:
        return self.max_rel_err < tol


def grad_check(f, params, h: float = 1e-4) -> GradCheckReport:
    """Verify analytic gradients of a scalar function by central differences.

    Args:
        f: Zero-argument callable returning the scalar loss.  Each call must
            recompute the loss at the current parameter values and repopulate
            the gradient buffers from a clean state (i.e. ``f`` zeroes the
            buffers itself before its backward pass).
        params: Iterable of ``(name, value, grad)`` triples; ``value`` and
            ``grad`` are same-shaped float64 arrays.  ``value`` is perturbed
            in place and restored.
        h: Step for the central difference (f(x+h) - f(x-h)) / 2h.

    Returns:
        A :class:`GradCheckReport` with per-tensor and overall maxima of the
        relative error |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    params = [(name, value, grad) for name, value, grad in params]
    names = [name for name, _, _ in params]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate parameter name(s): {dupes}")
    loss0 = float(f())
    if not np.isfinite(loss0):
        raise GradCheckError(f"loss is non-finite at the probe point: {loss0}")
    analytic = {name: grad.copy() for name, _, grad in params}

    per_param: dict[str, float] = {}
    worst = 0.0
    worst_name = ""
    for name, value, _ in params:
        ana = analytic[name].ravel()
        tensor_worst = 0.0
        for i in range(value.size):
            orig = value.flat[i]
            value.flat[i] = orig + h
            f_plus = float(f())
            value.flat[i] = orig - h
            f_minus = float(f())
            value.flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise GradCheckError(f"non-finite loss while probing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            rel = abs(ana[i] - numeric) / max(abs(ana[i]), abs(numeric), 1e-8)
            if rel > tensor_worst:
                tensor_worst = rel
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{i}]"
        per_param[name] = tensor_worst
    return GradCheckReport(max_rel_err=worst, worst_param=worst_name, per_param=per_param)
