"""Dense numerical kernel shared by every model component.

Array conventions used throughout the package: matrices are C-contiguous
float64 arrays of shape (rows, cols), vectors are float64 arrays of shape
(dim,).  A token sequence of length T in a model of width d travels as a
(T, d) matrix, one token representation per row; B sequences of different
lengths travel as a :class:`Padded` (B, T, d) stack with a length mask.
The affine map, the softmax and the convolution act on the last axes, so a
vector, a (T, d) matrix and a (B, T, d) stack all go through the same
function.
Each model's parameters can also be held as a fold stack: K models of one
architecture whose every parameter is one (K, ...) array (see
:func:`fold_stack`).  The data then carry a leading fold axis too, and
:func:`param_affine`, the one place where a parameter meets data, applies
parameter entry k to entry k of that axis, so the same functions run K
models in one pass, on one example or on a padded stack of them.

Every differentiable operation comes as a forward / ``*_backward`` pair.
Backward passes are hand-derived, accumulate parameter gradients in place
(``+=``) and return the gradient with respect to the operation's input,
so callers chain them in reverse order without a tape.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearParams",
    "fold_stack",
    "param_affine",
    "affine",
    "affine_backward",
    "softmax",
    "softmax_backward",
    "log_softmax",
    "Padded",
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
    across backward calls until :meth:`zero_grads`.  A fold-stacked map
    (:meth:`stack`) has a leading fold axis on both parameters and no
    gradient buffers.
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

    @classmethod
    def stack(cls, parts) -> "LinearParams":
        """K maps of one shape as one fold-stacked map; see :func:`fold_stack`."""
        return fold_stack(parts, {"weight": "grad_weight", "bias": "grad_bias"})

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    def zero_grads(self) -> None:
        self.grad_weight[:] = 0.0
        self.grad_bias[:] = 0.0


def fold_stack(parts, params: dict[str, str]):
    """A shallow copy of ``parts[0]`` whose array attributes named by the
    keys of ``params`` are (K, ...) stacks over the K same-shaped parts.
    Each part's attribute becomes a view of its entry in the stack, so
    every value is held once and a write through either is seen by both.
    The copy is forward-only: the gradient buffers named by the values of
    ``params`` stay with the parts and are None on the copy."""
    out = copy.copy(parts[0])
    for name, grad in params.items():
        stack = np.stack([getattr(p, name) for p in parts])
        for p, view in zip(parts, stack):
            setattr(p, name, view)
        setattr(out, name, stack)
        setattr(out, grad, None)
    return out


def param_affine(x: np.ndarray, W: np.ndarray | None = None,
                 b: np.ndarray | None = None) -> np.ndarray:
    """x W + b along the last axis: data x (..., n) times a weight W (n, m),
    plus a bias b (m,).  Without W the map is the identity; without b it
    has no bias.

    For a fold stack of K models, W is (K, n, m) and b is (K, m), and x
    carries the fold axis first, (K, ..., n): fold k's rows meet fold k's
    parameters as one batched product over each fold's flattened rows,
    ``x.reshape(K, -1, n) @ W``.  A plain W is exactly ``x @ W``.
    """
    fold = W.ndim == 3 if W is not None else b.ndim == 2
    flat = fold and x.ndim != 3  # (K, T, n) rows already have the flattened layout
    rows = x.reshape(len(W if W is not None else b), -1, x.shape[-1]) if flat else x
    if fold and b is not None:
        b = b[:, None, :]
    if W is None:
        y = rows + b
    else:
        y = rows @ W
        if b is not None:
            y += b
    return y.reshape(x.shape[:-1] + y.shape[-1:]) if flat else y


def affine(p: LinearParams, x: np.ndarray) -> np.ndarray:
    """W x + b along the last axis: (..., in_dim) -> (..., out_dim).

    A vector is one row; a (B, T, in_dim) stack maps every row at once.  A
    fold-stacked map applies map k to entry k of x's leading axis (see
    :func:`param_affine`).
    """
    if x.shape[-1:] != p.weight.shape[-1:]:
        raise ValueError(f"affine expects input of shape (..., {p.in_dim}), got {x.shape}")
    return param_affine(x, p.weight.swapaxes(-1, -2), p.bias)


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
    """z minus its maximum over the last axis: the stable-softmax shift.
    A vector reduces to a scalar maximum, which numpy broadcasts faster
    than a keepdims (1,) array."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0 or z.shape[-1] == 0:
        raise ValueError(f"softmax expects a non-empty last axis, got shape {z.shape}")
    if z.ndim == 1:
        return z - z.max()
    return z - z.max(axis=-1, keepdims=True)


def _sum_last(x: np.ndarray):
    """Sum over the last axis: a scalar for a vector, else kept as a length-1 axis."""
    return x.sum() if x.ndim == 1 else x.sum(axis=-1, keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable (max-subtracted) softmax over the last axis.
    Entries of -inf (masked positions) get probability zero, provided each
    row keeps at least one finite entry."""
    e = _shifted(z)
    np.exp(e, out=e)
    e /= _sum_last(e)
    return e


def softmax_backward(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Given s = softmax(z) and ds = dL/ds, return dL/dz = s * (ds - s.ds),
    the dot product taken over the last axis."""
    return s * (ds - _sum_last(s * ds))


def log_softmax(z: np.ndarray) -> np.ndarray:
    """log(softmax(z)) over the last axis, computed as z - logsumexp(z) so
    exact zeros in the softmax never reach a log."""
    shifted = _shifted(z)
    shifted -= np.log(_sum_last(np.exp(shifted)))
    return shifted


class Padded:
    """Sequences of different lengths stacked into one array.

    ``data`` has shape (B, T, ...) for B sequences padded to the longest
    length T, with zero rows past each sequence's end; ``lengths`` holds
    the B lengths.  One sequence is the same with no leading axis: data
    (T, ...) and a 0-d length.  ``valid`` is the (..., T) float mask (1 on
    real rows, 0 on padding) and ``fill`` the additive mask (0 on real
    rows, -inf on padding) that keeps padding out of a max or a softmax;
    ``ragged`` is False when no sequence is padded, so the masks are no-ops
    and callers skip them.  ``shape`` and ``len`` are those of ``data``.
    """

    __slots__ = ("data", "lengths", "valid", "fill", "ragged")

    def __init__(self, data: np.ndarray, lengths):
        self.data = data
        self.lengths = lengths = np.asarray(lengths)
        T = data.shape[lengths.ndim]
        self.ragged = bool((lengths < T).any())
        real = np.arange(T) < lengths[..., None]
        self.valid = real.astype(np.float64)
        self.fill = np.where(real, 0.0, -np.inf)

    @classmethod
    def stack(cls, sequences, dtype=np.float64) -> "Padded":
        """Zero-pad a list of arrays of shape (T_i, ...) into one stack."""
        lengths = np.fromiter(map(len, sequences), np.intp, len(sequences))
        T = int(lengths.max())
        if lengths.min() == T:
            return cls(np.array(sequences, dtype=dtype), lengths)
        data = np.zeros((len(sequences), T) + np.shape(sequences[0])[1:], dtype=dtype)
        for row, seq, n in zip(data, sequences, lengths):
            row[:n] = seq
        return cls(data, lengths)

    def like(self, data: np.ndarray) -> "Padded":
        """Another stack of the same sequences and lengths, holding ``data``."""
        out = object.__new__(Padded)
        out.data, out.lengths, out.valid, out.fill = data, self.lengths, self.valid, self.fill
        out.ragged = self.ragged
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __len__(self) -> int:
        return len(self.data)


def conv1d_valid(H: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 1-d convolution of (..., T, d) sequences with an (n_f, k, d) kernel stack.

    Output row t, column f is ``bias[f] + sum_j kernels[f, j] . H[t+j]``,
    evaluated only where the kernel fits entirely inside the sequence, so
    the result has shape (..., T - k + 1, n_f).  No padding.  One matmul
    applies every tap of every kernel to every row, then k shifted adds
    line the taps up.  A fold stack of (K, n_f, k, d) kernels and (K, n_f)
    biases convolves entry k of H's leading axis with kernels k (see
    :func:`param_affine`).
    """
    T, d = H.shape[-2:]
    n_f, k, kernel_d = kernels.shape[-3:]
    if d != kernel_d:
        raise ValueError(f"feature dims differ: H has {d}, kernels have {kernel_d}")
    if T < k:
        raise ValueError(f"sequence length {T} shorter than kernel size {k}")
    L = T - k + 1
    flat = kernels.reshape(kernels.shape[:-3] + (n_f * k, d))
    taps = param_affine(H, flat.swapaxes(-1, -2))
    taps = taps.reshape(taps.shape[:-1] + (n_f, k))
    out = param_affine(taps[..., 0:L, :, 0], b=bias)
    for j in range(1, k):
        out += taps[..., j : j + L, :, j]
    return out


def conv1d_valid_backward(
    H: np.ndarray, kernels: np.ndarray, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_valid for dL/dout of shape (..., L, n_f); returns
    (dH, dkernels, dbias), the kernel and bias gradients summed over the
    leading axes."""
    n_f, k, d = kernels.shape
    L = dout.shape[-2]
    dtaps = np.zeros(H.shape[:-1] + (n_f, k))
    for j in range(k):
        dtaps[..., j : j + L, :, j] = dout
    dtaps = dtaps.reshape(H.shape[:-1] + (n_f * k,))
    flat = kernels.reshape(n_f * k, d)
    dkernels = (dtaps.reshape(-1, n_f * k).T @ H.reshape(-1, d)).reshape(n_f, k, d)
    return dtaps @ flat, dkernels, dout.reshape(-1, n_f).sum(axis=0)


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
