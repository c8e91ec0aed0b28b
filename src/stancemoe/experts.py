"""The six pooling experts mapping a token matrix H to vectors e_1..e_6.

In canonical order: mean pooling, max pooling, self-attention pooling,
multi-kernel CNN, lexical-cue pooling over the cue mask C, and
contrast-amplified pooling over the contrast mask D.  Each expert projects
to the model width d, so the gating head can mix them freely.  Mean, max,
cue and contrast pooling depend on no parameter before their projection:
:func:`row_statistics` forms those four statistics of the rows once per
forward, :func:`run_all_experts` only projects them, and the backward
reads them.  Self-attention and the CNN pool the rows themselves.  Each
expert alone (:func:`expert_mean` and the rest) is the same layer with one
expert active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import (
    LinearParams,
    Padded,
    ParamSet,
    Tensor,
    affine,
    affine_backward,
    conv1d,
    conv1d_backward,
    param_affine,
    softmax,
    softmax_backward,
)

EXPERT_NAMES = ("mean", "max", "self_attention", "cnn", "cue", "contrast")
# the experts whose dL/dH is a row-weighted sum, in the order of the one
# product that forms it
POOLED_NAMES = ("mean", "self_attention", "cue", "contrast")
# the experts whose projected input depends on no parameter, in the order
# their statistics are formed
STATISTICS = ("mean", "cue", "contrast", "max")
KERNEL_SIZES = (2, 3, 4, 5)


@dataclass(eq=False)
class ExpertBank(ParamSet):
    """All trainable expert parameters for one model.

    Holds the six output projections (each d -> d), the attention vector
    for self-attention pooling, the CNN kernels and the inner projection
    that maps the concatenated CNN features back to d.  ``contrast_scale``
    multiplies contrast-marked rows; ``eps`` keeps the masked-mean
    denominators away from zero.

    The CNN kernels of all sizes live in one tap-major (max(KERNEL_SIZES),
    len(KERNEL_SIZES) * n_filters, d) stack ``cnn_kernels``: entry [j, f]
    is tap j of filter f, the filters ordered by kernel size, n_filters of
    each.  A size-k filter has taps 0..k-1; its taps from k on are no
    parameter, no product reads them, and they stay zero.  The declared
    per-size tensors ``cnn/k{k}/kernels`` (n_filters, k, d) and
    ``cnn/k{k}/bias`` (n_filters,), as :meth:`named_params` gives them with
    their gradients, are views into ``cnn_kernels`` and ``cnn_biases``.
    ``filter_sizes`` holds each filter's kernel size and ``tap_starts[j]``
    the first filter with a tap j.
    """

    d: int
    n_filters: int
    contrast_scale: float = 3.0
    eps: float = 1e-8

    def __post_init__(self):
        if self.contrast_scale <= 0 or self.eps <= 0:
            raise ValueError("contrast_scale and eps must be positive")
        self.contrast_scale, self.eps = float(self.contrast_scale), float(self.eps)
        self.proj = {name: LinearParams(self.d, self.d) for name in EXPERT_NAMES}
        self.filter_sizes = np.repeat(KERNEL_SIZES, self.n_filters)
        self.tap_starts = tuple(
            int(np.searchsorted(self.filter_sizes, j, side="right"))
            for j in range(KERNEL_SIZES[-1]))
        self.cnn_proj = LinearParams(self.d, len(KERNEL_SIZES) * self.n_filters)

    def declare(self):
        d, n_f = self.d, self.n_filters
        for name in EXPERT_NAMES:
            yield f"{name}_proj", self.proj[name]
        yield Tensor("attn_vector", (d,), 1.0 / math.sqrt(d))
        for i, k in enumerate(KERNEL_SIZES):
            rows = slice(i * n_f, (i + 1) * n_f)
            yield Tensor(f"cnn/k{k}/kernels", (n_f, k, d), 1.0 / math.sqrt(k * d), "cnn_kernels",
                         lambda stack, k=k, rows=rows: stack[..., :k, rows, :].swapaxes(-3, -2))
            yield Tensor(f"cnn/k{k}/bias", (n_f,), None, "cnn_biases",
                         lambda stack, rows=rows: stack[..., rows])
        yield "cnn_feature_proj", self.cnn_proj

    TRANSPOSED = ("cnn_kernels",)

    def arrays(self):
        filters = len(KERNEL_SIZES) * self.n_filters
        return {**super().arrays(), "cnn_kernels": (KERNEL_SIZES[-1], filters, self.d),
                "cnn_biases": (filters,)}


# --- the input rules -------------------------------------------------------

def canonical_experts(names) -> tuple[str, ...]:
    """The expert names in ``names`` in canonical EXPERT_NAMES order.
    Rejects an unknown name, naming it, and an empty set."""
    names = set(names)
    chosen = tuple([name for name in EXPERT_NAMES if name in names])
    if len(chosen) < len(names):
        raise ValueError(f"unknown expert name(s): {sorted(names.difference(chosen))}")
    if not chosen:
        raise ValueError("at least one expert must be active")
    return chosen


def _require_masks(task: str, names, cue, contrast) -> None:
    """Rejects a cue or contrast mask of None that ``task`` needs, naming it."""
    missing = [f"{name} mask" for name, mask in (("cue", cue), ("contrast", contrast))
               if name in names and mask is None]
    if missing:
        raise ValueError(f"{task} needs the {' and '.join(missing)}; the statistics of rows "
                         "stand in for the masks only where no dL/dH is formed")


def check_positions(T: int, *masks) -> None:
    """Rejects a position of any of the ``masks`` (sets of row indices)
    outside [0, T), naming it."""
    bad = {i for mask in masks for i in mask if not 0 <= i < T}
    if bad:
        raise ValueError(f"mask positions {sorted(bad)} out of range for length {T}")


# --- shared plumbing ------------------------------------------------------
#
# Every expert acts on the last two axes of H: a (T, d) matrix of one
# sequence, or a Padded (B, T, d) stack of B sequences, with position masks
# to match (a set of row indices, or a (B, T) 0/1 indicator).  The same
# code serves both; a stack just carries a leading axis through.

def _rows(H) -> tuple[np.ndarray, Padded]:
    """The (..., T, d) rows of H and the Padded stack carrying their lengths
    and masks (:meth:`~stancemoe.ops.Padded.one`)."""
    stack = Padded.one(H)
    return stack.data, stack


def indicators(position_sets, T: int) -> np.ndarray:
    """The (B, T) 0/1 indicators of B sets of row indices."""
    ind = np.zeros((len(position_sets), T))
    for row, positions in zip(ind, position_sets):
        if positions:  # an empty fancy-index assignment still costs about 1 µs
            row[list(positions)] = 1.0
    return ind


def _indicator(positions, stack: Padded) -> np.ndarray:
    """(..., T) 0/1 indicator of mask positions given as a set of row
    indices (one sequence) or already as an indicator."""
    if isinstance(positions, np.ndarray):
        return positions
    if stack.lengths.ndim:
        raise ValueError("a set of positions marks one sequence; a stack takes a (B, T) indicator")
    check_positions(stack.valid.shape[-1], positions)
    return indicators([positions], stack.valid.shape[-1])[0]


def _pool(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row-weighted sums: (..., T) weights and (..., T, d) rows give (..., d)."""
    return (w[..., None, :] @ X)[..., 0, :]


# --- the pooled experts ----------------------------------------------------
#
# Mean, lexical-cue and contrast pooling take a row-weighted sum of H, each
# with its own row-weight rule, and max pooling takes its column max.  None
# of the four has a parameter before its projection, so each pools a
# statistic of the rows (:func:`row_statistics`), formed once per forward
# and then only projected (:func:`project_statistics`); their backward
# reads it and never pools the rows again.  Self-attention pooling's row
# weights depend on its attention vector, so it pools the rows itself.

def attention_weights(bank: ExpertBank, H) -> tuple[np.ndarray, np.ndarray]:
    """Token weights alpha_i = softmax_i(s_i), which sum to one over each
    sequence's rows, and the scores s_i = tanh(h_i . v) they are taken over."""
    X, stack = _rows(H)
    scores = np.tanh(param_affine(X, bank.attn_vector[..., None])[..., 0])
    return softmax(scores + stack.fill if stack.ragged else scores), scores


def _row_weights(bank: ExpertBank, name: str, stack: Padded, cue_positions,
                 contrast_positions):
    """The row-weight rule of expert ``name`` (mean, cue or contrast) on the
    rows of ``stack``: its (..., T) row weights and the (..., 1) 0/1 flag
    its output is multiplied by (None when every output counts).  None when
    every contrast mask is empty."""
    if name == "mean":
        return stack.valid / stack.lengths[..., None], None
    if name == "cue":  # the eps-regularized mean of the cue rows
        ind = _indicator(cue_positions, stack)
        return ind / (ind.sum(axis=-1, keepdims=True) + bank.eps), None
    # contrast: all rows, contrast rows amplified, over the mask size.  An
    # empty mask zeroes the weights and the output, as dividing by eps alone
    # would blow them up by ~1e8 (and rows near the float range to inf, which
    # a zero flag turns into NaN); when every mask is empty, nothing is
    # pooled or projected.
    ind = _indicator(contrast_positions, stack)
    if not ind.any():
        return None
    n = ind.sum(axis=-1, keepdims=True)
    nonempty = (n > 0).astype(np.float64)
    return (stack.valid + (bank.contrast_scale - 1.0) * ind) / (n + bank.eps) * nonempty, nonempty


def _masked(X: np.ndarray, stack: Padded) -> np.ndarray:
    """The rows X with every padding row at -inf, so a column max skips it."""
    return X + stack.fill[..., None] if stack.ragged else X


@dataclass
class Statistics:
    """The parameter-free statistics of some rows: ``values[name]`` is the
    (..., d) input of expert ``name``'s projection (:func:`row_statistics`),
    for the experts of STATISTICS they were formed for, and ``flag`` the
    (..., 1) indicator of a non-empty contrast mask, which the contrast
    vector is multiplied by, or None when every contrast mask is empty or
    no contrast statistic was formed.  The contrast sum of a sequence whose
    mask is empty is zero, and never read."""

    values: dict[str, np.ndarray]
    flag: np.ndarray | None

    def take(self, index) -> "Statistics":
        """The statistics of the sequences ``index`` of the leading axis."""
        flag = self.flag[index]
        return Statistics({name: u[index] for name, u in self.values.items()},
                          flag if flag.any() else None)

    def repeat(self, k: int) -> "Statistics":
        """The same statistics k times along a new leading axis (the flag
        broadcasts against it as it is)."""
        return Statistics({name: u[None].repeat(k, axis=0) for name, u in self.values.items()},
                          self.flag)


def row_statistics(bank: ExpertBank, H, cue_positions, contrast_positions,
                   names=STATISTICS) -> Statistics:
    """The statistics of the rows of H for the experts in ``names`` that
    have one: for max pooling the column max over real rows, for the others
    the rows summed under :func:`_row_weights` (zero when every contrast mask is empty)."""
    _require_masks("pooling the rows", names, cue_positions, contrast_positions)
    X, stack = _rows(H)
    values, flag = {}, None
    for name in STATISTICS:
        if name not in names:
            continue
        if name == "max":
            values[name] = _masked(X, stack).max(axis=-2)
        elif (pool := _row_weights(bank, name, stack, cue_positions, contrast_positions)) is None:
            values[name] = np.zeros(X.shape[:-2] + X.shape[-1:])
        else:
            values[name] = _pool(pool[0], X)
            flag = flag if pool[1] is None else pool[1]
    return Statistics(values, flag)


def project_statistics(bank: ExpertBank, names, stats: Statistics) -> dict[str, np.ndarray]:
    """{name: vector} of the experts in ``names`` that are in STATISTICS,
    each its own projection of its statistic; the contrast vector is zero
    where the contrast mask is empty, and nothing is projected for it when
    every mask is."""
    vectors = {}
    for name in STATISTICS:
        if name not in names:
            continue
        u = stats.values[name]
        if name == "contrast" and stats.flag is None:
            vectors[name] = np.zeros(u.shape[:-1] + (bank.d,))
            continue
        e = affine(bank.proj[name], u)
        vectors[name] = e * stats.flag if name == "contrast" else e
    return vectors


def project_statistics_backward(bank: ExpertBank, grads: dict, stats: Statistics,
                                input_grad: bool) -> dict[str, np.ndarray]:
    """Backward pass of :func:`project_statistics` for the dL/de of the
    experts in ``grads`` ({name: gradient}): accumulates the projections'
    gradients, reading the statistics, and returns {name: dL/d statistic}
    (None without ``input_grad``) of each expert whose statistic was
    projected."""
    dstats = {}
    for name in STATISTICS:
        if name not in grads:
            continue
        de = grads[name]
        if name == "contrast":
            if stats.flag is None:
                continue
            de = de * stats.flag
        dstats[name] = affine_backward(bank.proj[name], stats.values[name], de, input_grad)
    return dstats


def expert_selfattn(bank: ExpertBank, H) -> np.ndarray:
    """Project the attention-weighted row sum of H."""
    X, stack = _rows(H)
    return affine(bank.proj["self_attention"], _pool(attention_weights(bank, stack)[0], X))


def _selfattn_backward(bank: ExpertBank, X: np.ndarray, stack: Padded, de: np.ndarray):
    """Backward pass of :func:`expert_selfattn` for dL/de: accumulates its
    gradients and returns the (..., T) weights and the (..., d) vectors
    whose products sum to its dL/dH, the row weights' term and the score
    term."""
    alpha, scores = attention_weights(bank, stack)
    du = affine_backward(bank.proj["self_attention"], _pool(alpha, X), de)
    dpre = softmax_backward(alpha, (X @ du[..., :, None])[..., 0]) * (1.0 - scores**2)  # tanh
    bank.grad_attn_vector += dpre.reshape(-1) @ X.reshape(-1, bank.d)
    return (alpha, dpre), (du, np.broadcast_to(bank.attn_vector, du.shape))


# --- multi-kernel CNN ----------------------------------------------------
#
# All kernel sizes run as one convolution (ops.conv1d) down the rows of
# every sequence flattened end to end, (..., R, d).  Each row starts one
# window per filter; window t of a sequence counts for kernel size k when
# t + k <= length, and each size mean-pools its own counted windows.  A
# window that reads a padding row or runs on into the next sequence is not
# counted: the pooling leaves it out (even a NaN row cannot reach it), so
# sequences never mix, and in the backward pass no gradient reaches a
# padding row.

def cnn_features(bank: ExpertBank, H) -> tuple[np.ndarray, tuple]:
    """Concatenated mean-pooled ReLU conv features, one block of n_f per
    kernel size, and the record the backward pass reads.

    Kernel sizes longer than a sequence contribute a zero block, so the
    features always have length len(KERNEL_SIZES) * n_filters.
    """
    X, stack = _rows(H)
    T, d = X.shape[-2:]
    lead = X.shape[: bank.cnn_kernels.ndim - 3]  # (K,) for a fold stack
    rows = X.reshape(lead + (-1, d))
    pre = conv1d(rows, bank.cnn_kernels, bank.cnn_biases, bank.tap_starts)
    pre = pre.reshape(X.shape[:-1] + pre.shape[-1:])  # (..., T, n_f * sizes)
    # windows per sequence and kernel size; 1/count weights each counted window
    counts = stack.lengths[..., None] - bank.filter_sizes + 1
    counted = np.arange(T)[:, None] < counts[..., None, :]
    weights = counted / np.maximum(counts, 1)[..., None, :]
    relu = np.maximum(pre, 0.0)
    if rows.shape[-2] > T:  # windows that run on into the next sequence's rows
        np.copyto(relu, 0.0, where=~counted)  # left out, not weighted by zero: 0 * NaN is NaN
    feats = (relu * weights).sum(axis=-2)
    return feats, (rows, pre, weights)


def expert_cnn(bank: ExpertBank, H) -> tuple[np.ndarray, tuple]:
    """Project the multi-kernel CNN feature vector; returns it and the
    forward record its backward can read (what :func:`cnn_features` returned)."""
    record = cnn_features(bank, H)
    return affine(bank.proj["cnn"], affine(bank.cnn_proj, record[0])), record


def expert_cnn_backward(bank: ExpertBank, H, de: np.ndarray, input_grad: bool = True,
                        record: tuple | None = None) -> np.ndarray | None:
    """Backward pass of :func:`expert_cnn`: reads the forward's ``record``
    or, given only H, runs the convolution again first."""
    feats, (rows, pre, weights) = cnn_features(bank, H) if record is None else record
    inner = affine(bank.cnn_proj, feats)
    dinner = affine_backward(bank.proj["cnn"], inner, de)
    dfeats = affine_backward(bank.cnn_proj, feats, dinner)
    dpre = np.where(pre > 0.0, weights, 0.0) * dfeats[..., None, :]
    drows = conv1d_backward(rows, bank.cnn_kernels, bank.tap_starts,
                            dpre.reshape(-1, pre.shape[-1]),
                            bank.grad_cnn_kernels, bank.grad_cnn_biases, input_grad)
    return drows.reshape(pre.shape[:-1] + rows.shape[-1:]) if input_grad else None


# --- all experts -------------------------------------------------------------

def run_all_experts(bank: ExpertBank, H, cue_positions, contrast_positions,
                    active=EXPERT_NAMES, stats: Statistics | None = None,
                    record: dict | None = None) -> list[np.ndarray]:
    """Evaluate the experts named in ``active`` (:func:`canonical_experts`);
    returns their vectors in the canonical EXPERT_NAMES order.  Mean, max,
    cue and contrast pooling project the rows' ``stats``
    (:func:`row_statistics`, formed here from the masks when not given)
    and read neither the rows nor the masks.  Given a dict ``record``, the
    CNN's forward record (the second value of :func:`expert_cnn`), which its
    backward reads, is kept there under "cnn".  Self-attention and the CNN
    are called by their module names at call time, so a wrapper installed
    on this module (a profiler, a test double) sees those calls."""
    names = canonical_experts(active)
    if stats is None:
        stats = row_statistics(bank, H, cue_positions, contrast_positions, names)
    vectors = project_statistics(bank, names, stats)
    if "self_attention" in names:
        vectors["self_attention"] = expert_selfattn(bank, H)
    if "cnn" in names:
        vectors["cnn"], cnn = expert_cnn(bank, H)
        if record is not None:
            record["cnn"] = cnn
    return [vectors[name] for name in names]


def run_all_experts_backward(bank: ExpertBank, H, cue_positions, contrast_positions,
                             active, dvecs, input_grad: bool = True,
                             stats: Statistics | None = None,
                             cnn_record: tuple | None = None) -> np.ndarray | None:
    """Backward pass of :func:`run_all_experts` for dL/de_i in ``dvecs``, one
    per active expert; accumulates expert gradients and returns the summed
    dL/dH, shaped like the rows of H.  Without ``input_grad`` (nothing
    consumes dL/dH) no expert forms its share of it and the result is None.
    Mean, max, cue and contrast pooling read the forward's ``stats`` (pooled
    here from the masks when not given); their dL/dH comes from the row
    weights, which need the cue and contrast masks, and each column's
    argmax.  The row weights of every row-weighted sum meet their vectors'
    gradients, and self-attention's score gradient meets the attention
    vector, as one (..., T, P) @ (..., P, d) product.  Given the CNN's
    forward record (``record["cnn"]`` of :func:`run_all_experts`), the CNN
    reads it instead of running the convolution again."""
    names = canonical_experts(active)
    if len(dvecs) != len(names):
        raise ValueError(f"expected {len(names)} expert gradients, one per active "
                         f"expert, got {len(dvecs)}")
    grads = dict(zip(names, dvecs))
    if input_grad:
        _require_masks("forming dL/dH", names, cue_positions, contrast_positions)
    if stats is None:
        stats = row_statistics(bank, H, cue_positions, contrast_positions, names)
    dstats = project_statistics_backward(bank, grads, stats, input_grad)
    X, stack = _rows(H)
    weights, vectors = [], []  # (..., T) row weights and the (..., d) vectors they meet
    for name in POOLED_NAMES:
        if name == "self_attention" and name in grads:
            w, v = _selfattn_backward(bank, X, stack, grads[name])
            weights += w
            vectors += v
        elif name in dstats and input_grad:
            weights.append(_row_weights(bank, name, stack, cue_positions, contrast_positions)[0])
            vectors.append(dstats[name])
    dH = None
    if input_grad:
        dH = np.stack(weights, axis=-1) @ np.stack(vectors, axis=-2) if weights else np.zeros_like(X)
        if "max" in dstats:  # each column's gradient at its argmax row, ties at the lowest
            dH_max = np.zeros_like(X)
            np.put_along_axis(dH_max, _masked(X, stack).argmax(axis=-2)[..., None, :],
                              dstats["max"][..., None, :], axis=-2)
            dH += dH_max  # in place, so at most two dL/dH are live
    if "cnn" in grads:
        dH_cnn = expert_cnn_backward(bank, H, grads["cnn"], input_grad=input_grad,
                                     record=cnn_record)
        if input_grad:
            dH += dH_cnn
    return dH


# --- each expert alone -------------------------------------------------------
#
# Mean, max, cue and contrast pooling alone, and self-attention's backward,
# are the experts' layer with that one expert active.

def expert_mean(bank: ExpertBank, H) -> np.ndarray:
    """Project the unweighted row mean of H."""
    return run_all_experts(bank, H, None, None, ("mean",))[0]


def expert_mean_backward(bank: ExpertBank, H, de: np.ndarray) -> np.ndarray:
    return run_all_experts_backward(bank, H, None, None, ("mean",), (de,))


def expert_max(bank: ExpertBank, H) -> np.ndarray:
    """Project the columnwise max over rows of H."""
    return run_all_experts(bank, H, None, None, ("max",))[0]


def expert_max_backward(bank: ExpertBank, H, de: np.ndarray) -> np.ndarray:
    return run_all_experts_backward(bank, H, None, None, ("max",), (de,))


def expert_selfattn_backward(bank: ExpertBank, H, de: np.ndarray) -> np.ndarray:
    return run_all_experts_backward(bank, H, None, None, ("self_attention",), (de,))


def expert_cue(bank: ExpertBank, H, cue_positions) -> np.ndarray:
    """Project the eps-regularized mean of rows at the cue positions."""
    return run_all_experts(bank, H, cue_positions, None, ("cue",))[0]


def expert_cue_backward(bank, H, cue_positions, de: np.ndarray) -> np.ndarray:
    return run_all_experts_backward(bank, H, cue_positions, None, ("cue",), (de,))


def expert_contrast(bank: ExpertBank, H, contrast_positions) -> np.ndarray:
    """Sum all rows with contrast rows amplified, normalized by the mask
    size; an empty contrast mask gives the zero vector."""
    return run_all_experts(bank, H, None, contrast_positions, ("contrast",))[0]


def expert_contrast_backward(bank, H, contrast_positions, de: np.ndarray) -> np.ndarray:
    return run_all_experts_backward(bank, H, None, contrast_positions, ("contrast",), (de,))
