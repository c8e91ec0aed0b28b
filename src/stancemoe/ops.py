"""Dense numerical kernel shared by every model component.

Array conventions used throughout the package: matrices are float64
arrays of shape (rows, cols), C-contiguous as built, vectors are float64
arrays of shape (dim,).  A token sequence of length T in a model of width
d travels as a (T, d) matrix, one token representation per row; B
sequences of different lengths travel as a :class:`Padded` (B, T, d)
stack with a length mask.
The affine map, the softmax and the convolution act on the last axes, so a
vector, a (T, d) matrix and a (B, T, d) stack all go through the same
function.
Each parameter set (:class:`ParamSet`) declares its tensors once, and
:func:`fold_stack` reads that declaration to hold K models of one
architecture as a fold stack, every parameter one (K, ...) array.  The
data then carry a leading fold axis too, and :func:`param_affine`, the
one place where a parameter meets data, applies parameter entry k to
entry k of that axis, so the same functions run K models in one pass, on
one example or on a padded stack of them.  A stacked weight is the
transposed view of a C-contiguous (K, in, out) buffer, the layout the
fold-batched product reads without a copy; each model's own weight is
then a (non-contiguous) view of its entry.  :meth:`ParamSet.zero_grads`
walks the same declaration.

Every parameter-times-data product is one BLAS call: data of any rank
meets a plain (n, m) weight as ``x.reshape(-1, n) @ W``, and fold-stacked
data as one (K, rows, n) @ (K, n, m) product.

Every differentiable operation comes as a forward / ``*_backward`` pair.
Backward passes are hand-derived, accumulate parameter gradients in place
(``+=``) and return the gradient with respect to the operation's input,
so callers chain them in reverse order without a tape.  Called with
``input_grad=False``, when nothing consumes that gradient, they skip its
product and return None in its place.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "ParamSet",
    "LinearParams",
    "fold_stack",
    "param_affine",
    "affine",
    "affine_backward",
    "softmax",
    "softmax_backward",
    "log_softmax",
    "Padded",
    "conv1d",
    "conv1d_backward",
    "grad_check",
    "GradCheckReport",
    "GradCheckError",
    "as_f64",
]


def as_f64(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(x, dtype=np.float64)


class ParamSet:
    """Parameter tensors declared once per class: ``TENSORS`` names the
    arrays, each ``x`` with a same-shaped gradient buffer ``grad_x``;
    ``PARTS`` the sub-sets, each one set, a dict of sets, or None;
    ``TRANSPOSED`` the weights whose last axis meets the data."""

    TENSORS: tuple[str, ...] = ()
    PARTS: tuple[str, ...] = ()
    TRANSPOSED: tuple[str, ...] = ()

    def zero_grads(self) -> None:
        for name in self.TENSORS:
            getattr(self, "grad_" + name)[...] = 0.0
        for name in self.PARTS:
            part = getattr(self, name)
            for sub in part.values() if isinstance(part, dict) else (part,):
                if sub is not None:
                    sub.zero_grads()


class LinearParams(ParamSet):
    """An affine map y = W x + b with paired gradient buffers.

    ``weight`` has shape (out_dim, in_dim) and ``bias`` shape (out_dim,).
    Gradient buffers always shape-match their parameters and accumulate
    across backward calls until :meth:`zero_grads`.  A fold-stacked map
    (:func:`fold_stack`) has a leading fold axis on both parameters and no
    gradient buffers.
    """

    TENSORS = ("weight", "bias")
    TRANSPOSED = ("weight",)

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
        return self.weight.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    def named_params(self, prefix: str):
        yield f"{prefix}/weight", self.weight, self.grad_weight
        yield f"{prefix}/bias", self.bias, self.grad_bias


def fold_stack(parts):
    """K parameter sets of one shape as one fold-stacked set: a shallow copy
    of ``parts[0]`` whose declared tensors (``TENSORS``) are (K, ...) stacks
    over the K parts, and whose sub-sets (``PARTS``) are stacked the same
    way.  Each part's tensor becomes a view of its entry in the stack, so
    every value is held once and a write through either is seen by both.
    An undeclared attribute is shared with ``parts[0]``.  The copy is
    forward-only: its gradient buffers are None.

    A ``TRANSPOSED`` weight's stack is held as one C-contiguous buffer with
    its last axis moved to the front of each entry, (K, in, ...), and
    exposed with the parts' axis order as a view of it, so the product in
    :func:`param_affine` reads the buffer as it lies."""
    out = copy.copy(parts[0])
    for name in out.TENSORS:
        values = [getattr(p, name) for p in parts]
        if name in out.TRANSPOSED:
            buffer = np.ascontiguousarray(np.stack([np.moveaxis(v, -1, 0) for v in values]))
            stack = np.moveaxis(buffer, 1, -1)
        else:
            stack = np.stack(values)
        for p, view in zip(parts, stack):
            setattr(p, name, view)
        setattr(out, name, stack)
        setattr(out, "grad_" + name, None)
    for name in out.PARTS:
        part = getattr(out, name)
        if isinstance(part, dict):
            part = {key: fold_stack([getattr(p, name)[key] for p in parts]) for key in part}
        elif part is not None:
            part = fold_stack([getattr(p, name) for p in parts])
        setattr(out, name, part)
    return out


def param_affine(x: np.ndarray, W: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x W + b along the last axis: data x (..., n) times a weight W (n, m),
    plus a bias b (m,).  Without b the map has no bias.

    Every product is one BLAS call: a plain W meets the data's flattened
    rows, ``x.reshape(-1, n) @ W``.  For a fold stack of K models, W is
    (K, n, m) and b is (K, m), and x carries the fold axis first,
    (K, ..., n): fold k's rows meet fold k's parameters as one batched
    product over each fold's flattened rows, ``x.reshape(K, -1, n) @ W``;
    (K, n) vectors are one row per fold.
    """
    fold = W.ndim == 3
    if fold and b is not None and x.ndim > 2:
        b = b.reshape(b.shape[:1] + (1,) * (x.ndim - 2) + b.shape[1:])  # (K, 1, ..., m)
    if fold and x.ndim == 2:
        y = (x[:, None, :] @ W)[:, 0, :]
    elif x.ndim <= 2 or (fold and x.ndim == 3):  # already one matrix of rows (per fold)
        y = x @ W
    else:
        lead = (len(W),) if fold else ()
        y = (x.reshape(lead + (-1, x.shape[-1])) @ W).reshape(x.shape[:-1] + W.shape[-1:])
    if b is not None:
        y += b
    return y


def affine(p: LinearParams, x: np.ndarray) -> np.ndarray:
    """W x + b along the last axis: (..., in_dim) -> (..., out_dim).

    A vector is one row; a (B, T, in_dim) stack maps every row at once.  A
    fold-stacked map applies map k to entry k of x's leading axis (see
    :func:`param_affine`).
    """
    if x.shape[-1:] != p.weight.shape[-1:]:
        raise ValueError(f"affine expects input of shape (..., {p.in_dim}), got {x.shape}")
    return param_affine(x, p.weight.swapaxes(-1, -2), p.bias)


def affine_backward(p: LinearParams, x: np.ndarray, dy: np.ndarray,
                    input_grad: bool = True) -> np.ndarray | None:
    """Accumulate dW += dyᵀ x and db += dy, each summed over the leading
    axes; return dx = dy W, shaped like x, or None without ``input_grad``
    (nothing consumes it)."""
    dY = dy.reshape(-1, p.out_dim)
    p.grad_weight += dY.T @ x.reshape(-1, p.in_dim)
    p.grad_bias += dY.sum(axis=0)
    return (dY @ p.weight).reshape(x.shape) if input_grad else None


def _shifted(z: np.ndarray) -> np.ndarray:
    """z minus its maximum over the last axis: the stable-softmax shift."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0 or z.shape[-1] == 0:
        raise ValueError(f"softmax expects a non-empty last axis, got shape {z.shape}")
    return z - z.max(axis=-1, keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable (max-subtracted) softmax over the last axis.
    Entries of -inf (masked positions) get probability zero, provided each
    row keeps at least one finite entry."""
    e = _shifted(z)
    np.exp(e, out=e)
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


class Padded:
    """Sequences of different lengths stacked into one array.

    ``data`` has shape (B, T, ...) for B sequences padded to the longest
    length T, with zero rows past each sequence's end; ``lengths`` holds
    the B lengths.  One sequence is the same with no leading axis: data
    (T, ...) and a 0-d length.  ``real`` is the (..., T) boolean mask of
    real rows, ``valid`` the same as floats (1 on real rows, 0 on padding)
    and ``fill`` the additive mask (0 on real rows, -inf on padding) that
    keeps padding out of a max or a softmax; ``ragged`` is False when no
    sequence is padded, so the masks are no-ops and callers skip them.
    ``shape`` and ``len`` are those of ``data``.
    """

    __slots__ = ("data", "lengths", "real", "valid", "fill", "ragged")

    def __init__(self, data: np.ndarray, lengths):
        self.data = data
        self.lengths = lengths = np.asarray(lengths)
        T = data.shape[lengths.ndim]
        self.ragged = bool((lengths < T).any())
        self.real = real = np.arange(T) < lengths[..., None]
        self.valid = real.astype(np.float64)
        self.fill = np.where(real, 0.0, -np.inf)

    @classmethod
    def stack(cls, sequences, dtype=np.float64) -> "Padded":
        """Zero-pad a list of arrays of shape (T_i, ...), or of runs of T_i
        scalars, into one stack."""
        lengths = np.fromiter(map(len, sequences), np.intp, len(sequences))
        out = cls(np.empty((len(sequences), lengths.max()), dtype), lengths)
        out.data = out.pad(sequences, dtype)
        return out

    def pad(self, sequences, dtype=np.float64) -> np.ndarray:
        """The (B, T, ...) array of B sequences of this stack's lengths,
        zero on padding: their rows, concatenated, go into place through
        ``real`` in one assignment."""
        data = np.zeros(self.real.shape + np.shape(sequences[0])[1:], dtype)
        data[self.real] = (np.concatenate(sequences) if data.ndim > self.real.ndim else
                           np.fromiter(chain.from_iterable(sequences), dtype, self.lengths.sum()))
        return data

    def like(self, data: np.ndarray) -> "Padded":
        """Another stack of the same sequences and lengths, holding ``data``."""
        out = object.__new__(Padded)
        out.data, out.lengths, out.real = data, self.lengths, self.real
        out.valid, out.fill, out.ragged = self.valid, self.fill, self.ragged
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __len__(self) -> int:
        return len(self.data)


def conv1d(rows: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
           starts) -> np.ndarray:
    """1-d convolution down the (..., R, d) rows with a tap-major (W, F, d)
    stack of F filters of up to W taps.

    Output row t, column f is ``bias[f] + sum_j kernels[j, f] . rows[t+j]``,
    summed over the taps filter f has (``f >= starts[j]``: filters are
    ordered by width, narrowest first, and ``starts[j]`` is the first with
    a tap j) and that fit (``t + j < R``).
    Every row starts a window, so the result has shape (..., R, F); the
    windows of the last rows run out of rows and keep the taps that fit.
    Tap j is one product of the row-offset view ``rows[j:]`` with its
    filters, added into the first R - j output rows: nothing is padded and
    no absent tap is multiplied.  A fold stack of (K, W, F, d) kernels and
    (K, F) biases convolves (K, R, d) rows, entry k with kernels k (see
    :func:`param_affine`).
    """
    W, F, d = kernels.shape[-3:]
    if rows.shape[-1] != d:
        raise ValueError(f"feature dims differ: rows have {rows.shape[-1]}, kernels have {d}")
    R = rows.shape[-2]
    out = param_affine(rows, kernels[..., 0, :, :].swapaxes(-1, -2), bias)
    for j in range(1, min(W, R)):
        s = starts[j]
        out[..., : R - j, s:] += param_affine(rows[..., j:, :],
                                              kernels[..., j, s:, :].swapaxes(-1, -2))
    return out


def conv1d_backward(rows: np.ndarray, kernels: np.ndarray, starts, dout: np.ndarray,
                    grad_kernels: np.ndarray, grad_bias: np.ndarray,
                    input_grad: bool = True) -> np.ndarray | None:
    """Backward pass of :func:`conv1d` on (R, d) rows for dL/dout of shape
    (R, F): accumulate the kernel gradients of the taps each filter has into
    ``grad_kernels`` and the bias gradient into ``grad_bias``; return
    dL/drows, or None without ``input_grad`` (nothing consumes it)."""
    W = kernels.shape[0]
    R = rows.shape[0]
    grad_kernels[0] += dout.T @ rows
    grad_bias += dout.sum(axis=0)
    drows = dout @ kernels[0] if input_grad else None
    for j in range(1, min(W, R)):
        s = starts[j]
        dtap = dout[: R - j, s:]
        grad_kernels[j, s:] += dtap.T @ rows[j:]
        if input_grad:
            drows[j:] += dtap @ kernels[j, s:]
    return drows


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
