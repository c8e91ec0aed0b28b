"""Dense numerical kernel shared by every model component.

Array conventions used throughout the package: matrices are C-contiguous
float64 arrays of shape (rows, cols), vectors are float64 arrays of shape
(dim,).  A token sequence of length T in a model of width d travels as a
(T, d) matrix, one token representation per row.  The affine map and the
softmax act on the last axis, so a vector, a (T, d) matrix and a (B, T, d)
stack all go through the same function.

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
    "softmax",
    "softmax_backward",
    "log_softmax",
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
    """W x + b along the last axis: (..., in_dim) -> (..., out_dim).

    A vector is one row; a (B, T, in_dim) stack maps every row at once.
    """
    if x.shape[-1:] != (p.in_dim,):
        raise ValueError(f"affine expects input of shape (..., {p.in_dim}), got {x.shape}")
    return x @ p.weight.T + p.bias


def affine_backward(p: LinearParams, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Accumulate dW += dyᵀ x and db += dy, each summed over the leading
    axes; return dx = dy W, shaped like x."""
    if x.ndim == 1:
        # the outer product is the cheapest weight gradient for one row
        p.grad_weight += np.outer(dy, x)
        p.grad_bias += dy
    else:
        dY = dy.reshape(-1, p.out_dim)
        p.grad_weight += dY.T @ x.reshape(-1, p.in_dim)
        p.grad_bias += dY.sum(axis=0)
    return dy @ p.weight


def _shifted(z: np.ndarray) -> np.ndarray:
    """z minus its maximum over the last axis: the stable-softmax shift."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0 or z.shape[-1] == 0:
        raise ValueError(f"softmax expects a non-empty last axis, got shape {z.shape}")
    return z - z.max(axis=-1, keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable (max-subtracted) softmax over the last axis."""
    e = np.exp(_shifted(z))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Given s = softmax(z) and ds = dL/ds, return dL/dz = s * (ds - s.ds),
    the dot product taken over the last axis."""
    return s * (ds - (s * ds).sum(axis=-1, keepdims=True))


def log_softmax(z: np.ndarray) -> np.ndarray:
    """log(softmax(z)) over the last axis, computed as z - logsumexp(z) so
    exact zeros in the softmax never reach a log."""
    shifted = _shifted(z)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


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
