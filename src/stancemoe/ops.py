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
Each parameter set (:class:`ParamSet`) declares its tensors once, from
its settings: each tensor's path, shape and init rule (:class:`Tensor`).
One builder allocates the arrays from that declaration.  A set that will
train gets one float64 value buffer for all of its arrays, its sub-sets'
included, each a reshaped view of its slice, and one gradient buffer laid
out the same way, and keeps both: :meth:`ParamSet.named_params` hands
the optimizer the region of each that it steps in place.  A forward-only
set holds each array in an allocation of its own.  Two fills follow it:
:meth:`ParamSet.draw` from a seeded generator, in declaration order, to
train; and :meth:`ParamSet.fill` from given arrays, which is how a
checkpoint loads, with no random draw and no gradient buffer.
:func:`fold_stack` holds K models of one architecture as a fold stack,
every parameter one (K, ...) array.  The data then carry a leading fold
axis too, and :func:`param_affine`, the one place where a parameter
meets data, applies parameter entry k to entry k of that axis, so the
same functions run K models in one pass, on one example or on a padded
stack of them.  Each model's own tensor is then a view of its entry.
The stack holds each weight with its last two axes swapped, so forward
products read it row-major, which OpenBLAS does faster (:func:`fold_stack`).
:meth:`ParamSet.named_params`, :meth:`ParamSet.zero_grads` and
:meth:`ParamSet.drop_grads` walk the same declaration.

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

import dataclasses
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "Region",
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
]


class Tensor(NamedTuple):
    """One declared tensor: its path below its set, its shape and its init
    rule, uniform(-limit, +limit), or zeros for a limit of None (a bias).
    Its set holds it as the array attribute named by its path, beside
    ``grad_<path>``, or, if it is part of a larger ``array``, as ``view``
    of that array."""

    path: str
    shape: tuple[int, ...]
    limit: float | None = None
    array: str | None = None
    view: Callable[[np.ndarray], np.ndarray] | None = None


class Region(list):
    """(path, value, grad) triples whose values and gradients fill
    ``values`` and ``grads``, one region of a set's value buffer and the same
    region of its gradient buffer; both are None where it keeps none."""

    def __init__(self, triples, values=None, grads=None):
        super().__init__(triples)
        self.values, self.grads = values, grads


class ParamSet:
    """Parameter tensors declared once, by :meth:`declare`: a set is a
    dataclass of its settings and holds no array until one of the fills
    (:meth:`draw`, :meth:`fill`, :func:`fold_stack`) allocates them."""

    _flat = None  # (values, grads): the flat buffers of a set drawn to train

    def declare(self):
        """The set's tensors and its sub-sets, as (path, set) pairs with None
        for an absent one, in draw order."""
        return ()

    @functools.cached_property
    def _declared(self) -> tuple:
        """:meth:`declare`'s entries, built once: they depend only on the
        settings and the sub-sets built from them, and :func:`fold_stack`
        builds a new set."""
        return tuple(self.declare())

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_declared", None)  # its views are lambdas, which do not pickle
        state.pop("_flat", None)  # a copy's arrays are not views of its buffers
        return state

    # arrays a fold stack holds with their last two axes swapped, as its forward
    # products read them (see fold_stack); a set that trains keeps the declared order
    TRANSPOSED: tuple[str, ...] = ()

    def arrays(self) -> dict[str, tuple[int, ...]]:
        """Attribute name -> shape of each array the set itself holds: one
        per tensor of its own that is not part of a larger array."""
        return {t.path: t.shape for t in self._declared
                if isinstance(t, Tensor) and t.array is None}

    def sets(self):
        """The set and its sub-sets, depth first in declaration order."""
        yield self
        for entry in self._declared:
            if not isinstance(entry, Tensor) and entry[1] is not None:
                yield from entry[1].sets()

    def declaration(self, prefix: str = ""):
        """(owning set, path, Tensor) of every tensor of the set and its
        sub-sets, in draw order."""
        for entry in self._declared:
            if isinstance(entry, Tensor):
                yield self, prefix + entry.path, entry
            elif entry[1] is not None:
                yield from entry[1].declaration(f"{prefix}{entry[0]}/")

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Path -> declared shape of every tensor, in declaration order."""
        return {path: t.shape for _, path, t in self.declaration()}

    def _tensor(self, t: Tensor, kind: str = "") -> np.ndarray | None:
        array = getattr(self, kind + (t.array or t.path))
        return array if array is None or t.view is None else t.view(array)

    def named_params(self, frozen: "ParamSet | None" = None) -> Region:
        """(path, value, grad) of every tensor in declaration order but those
        of ``frozen``, a sub-set drawn first, as a :class:`Region` of the
        flat buffers (the whole of each, or the tail past ``frozen``'s
        arrays); grad is None in a forward-only set."""
        skip = set(frozen.sets() if frozen else ())
        triples = [(path, owner._tensor(t), owner._tensor(t, "grad_"))
                   for owner, path, t in self.declaration() if owner not in skip]
        head = sum(math.prod(shape) for s in skip for shape in s.arrays().values())
        return Region(triples, *(b[head:] for b in self._flat or ()))

    def _allocate(self, grads: bool) -> None:
        """The one builder: zeroed arrays for the set and its sub-sets.  A set
        that trains (``grads``) gets one value buffer, each set's
        :meth:`arrays` in :meth:`sets` order as reshaped views of its slices,
        and one gradient buffer of the same layout, and keeps both; a frozen
        encoder, drawn first, is a head of each and the tensors that train a
        tail.  A forward-only set gets one allocation per array, so
        :func:`fold_stack` frees a fold one array at a time, and None for
        each gradient."""
        layout = [(s, name, shape) for s in self.sets() for name, shape in s.arrays().items()]
        ends = np.cumsum([math.prod(shape) for _, _, shape in layout]).tolist()
        self._flat = (np.zeros(ends[-1]), np.zeros(ends[-1])) if grads else None
        for (s, name, shape), start, end in zip(layout, [0, *ends], ends):
            if grads:
                value, grad = (b[start:end].reshape(shape) for b in self._flat)
            else:
                value, grad = np.zeros(shape), None
            setattr(s, name, value)
            setattr(s, "grad_" + name, grad)

    def fill(self, source, grads: bool = False) -> "ParamSet":
        """Allocate the set's arrays, forward-only unless ``grads``, and set
        each tensor to ``source(path, tensor)``, in declaration order;
        returns the set."""
        self._allocate(grads)
        for owner, path, t in self.declaration():
            owner._tensor(t)[...] = source(path, t)
        return self

    def draw(self, rng: np.random.Generator) -> "ParamSet":
        """:meth:`fill` the set to train from ``rng``, each tensor drawn by its
        init rule in declaration order, so a seeded generator gives the same
        values bit for bit."""
        return self.fill(lambda path, t: 0.0 if t.limit is None else
                         rng.uniform(-t.limit, t.limit, size=t.shape), grads=True)

    @classmethod
    def init(cls, *settings, rng: np.random.Generator | None = None, **named) -> "ParamSet":
        """A set of these settings drawn to train from ``rng`` (:meth:`draw`),
        which is given by keyword or as the last positional argument."""
        if rng is None:
            *settings, rng = settings
        return cls(*settings, **named).draw(rng)

    def zero_grads(self) -> None:
        for s in self.sets():
            for name in s.arrays():
                getattr(s, "grad_" + name)[...] = 0.0

    def drop_grads(self) -> None:
        """Make the set forward-only, held as a forward-only :meth:`fill`
        holds it: every gradient, its own and its sub-sets', becomes None
        and each array a copy in an allocation of its own, so the value and
        gradient buffers are freed."""
        self._flat = None
        for s in self.sets():
            for name in s.arrays():
                setattr(s, name, getattr(s, name).copy())
                setattr(s, "grad_" + name, None)


@dataclass(eq=False)
class LinearParams(ParamSet):
    """An affine map y = W x + b: ``weight`` (out_dim, in_dim), drawn
    uniform(-1/sqrt(in_dim), +1/sqrt(in_dim)), and ``bias`` (out_dim,), zero.

    Gradient buffers accumulate across backward calls until
    :meth:`zero_grads`, or are None in a forward-only map.  A fold-stacked
    map (:func:`fold_stack`) has a leading fold axis on both parameters.
    """

    out_dim: int
    in_dim: int

    TRANSPOSED = ("weight",)

    def declare(self):
        return (Tensor("weight", (self.out_dim, self.in_dim), 1.0 / math.sqrt(self.in_dim)),
                Tensor("bias", (self.out_dim,)))


def fold_stack(parts):
    """K parameter sets of one shape as one fold-stacked set of the settings
    of ``parts[0]``, whose arrays are (K, ...) stacks of the parts', built
    one array at a time; each part's array becomes a view of its entry, so
    a write through either is seen by both.  The stack and the parts are
    forward-only: a forward-only part's arrays are freed as they move into
    the stack, and a part's gradient views and flat buffers are dropped.

    Each :attr:`ParamSet.TRANSPOSED` array is a C-contiguous buffer with its
    last two axes swapped, (K, in, out) for a weight and (K, W, d, F) for the
    CNN kernels, exposed in the declared order as a view.  OpenBLAS 0.3.31
    takes 1.3-1.5x as long for a few rows times a transposed operand:
    (60, 64) @ (64, 64) in 8.39 against 5.98 us, the fold-stacked
    (3, 51, 64) @ (3, 64, 32) in 16.3 against 10.6 us; level from ~480 rows."""
    out = dataclasses.replace(parts[0])
    for stack, *folds in zip(out.sets(), *(p.sets() for p in parts)):
        for name, shape in stack.arrays().items():
            if name in stack.TRANSPOSED:
                array = np.empty((len(folds), *shape[:-2], shape[-1], shape[-2])).swapaxes(-1, -2)
            else:
                array = np.empty((len(folds), *shape))
            setattr(stack, name, array)
            setattr(stack, "grad_" + name, None)
            for f, view in zip(folds, array):
                view[...] = getattr(f, name)
                setattr(f, name, view)
                setattr(f, "grad_" + name, None)
    for p in parts:
        p._flat = None
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
        """Zero-pad a list of arrays of shape (T_i, ...), each copied into
        its slice, or of runs of T_i scalars, put in place through ``real``
        in one assignment, into one stack."""
        lengths = np.fromiter(map(len, sequences), np.intp, len(sequences))
        out = cls(np.zeros((len(sequences), lengths.max(), *np.shape(sequences[0])[1:]), dtype),
                  lengths)
        if out.data.ndim == 2:  # runs of ids: fromiter reads each tuple unconverted
            out.data[out.real] = np.fromiter(chain.from_iterable(sequences), dtype, lengths.sum())
            return out
        for row, seq in zip(out.data, sequences):
            row[: len(seq)] = seq
        return out

    @classmethod
    def one(cls, sequence, dtype=None) -> "Padded":
        """One sequence of T entries as a stack with no leading axis: data
        (T, ...) and a 0-d length.  A Padded stack passes through."""
        if isinstance(sequence, Padded):
            return sequence
        data = np.asarray(sequence, dtype=dtype)
        return cls(data, np.intp(len(data)))

    @classmethod
    def of(cls, sequences, single: bool, dtype=np.float64) -> "Padded":
        """The one sequence of ``sequences`` (:meth:`one`) when ``single``,
        else their padded stack (:meth:`stack`)."""
        return cls.one(sequences[0], dtype) if single else cls.stack(sequences, dtype)

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


# the step of the central difference (f(x+h) - f(x-h)) / 2h
GRAD_CHECK_STEP = 1e-4


def grad_check(f, params) -> GradCheckReport:
    """Verify analytic gradients of a scalar function by central differences
    with a step of GRAD_CHECK_STEP.

    Args:
        f: Zero-argument callable returning the scalar loss.  Each call must
            recompute the loss at the current parameter values and repopulate
            the gradient buffers from a clean state (i.e. ``f`` zeroes the
            buffers itself before its backward pass).
        params: Iterable of ``(name, value, grad)`` triples; ``value`` and
            ``grad`` are same-shaped float64 arrays.  ``value`` is perturbed
            in place and restored.

    Returns:
        A :class:`GradCheckReport` with per-tensor and overall maxima of the
        relative error |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    h = GRAD_CHECK_STEP
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
