"""The six pooling experts mapping a token matrix H to vectors e_1..e_6.

In canonical order: mean pooling, max pooling, self-attention pooling,
multi-kernel CNN, lexical-cue pooling over the cue mask C, and
contrast-amplified pooling over the contrast mask D.  Each expert projects
to the model width d, so the gating head can mix them freely.  The four
that take a row-weighted sum of H (mean, self-attention, cue, contrast)
are one layer, :func:`pooled_experts`, each with its own row-weight rule.
"""

from __future__ import annotations

import logging

import numpy as np

from .ops import (
    LinearParams,
    Padded,
    ParamSet,
    affine,
    affine_backward,
    conv1d,
    conv1d_backward,
    param_affine,
    softmax,
    softmax_backward,
)

logger = logging.getLogger(__name__)

EXPERT_NAMES = ("mean", "max", "self_attention", "cnn", "cue", "contrast")
POOLED_NAMES = ("mean", "self_attention", "cue", "contrast")
KERNEL_SIZES = (2, 3, 4, 5)


class ExpertBank(ParamSet):
    """All trainable expert parameters for one model.

    Holds the six output projections (each d -> d), the attention vector
    for self-attention pooling, the CNN kernels and the inner projection
    that maps the concatenated CNN features back to d.  ``contrast_scale``
    multiplies contrast-marked rows; ``eps`` keeps the masked-mean
    denominators away from zero.

    The CNN kernels of all sizes live in one tap-major (max(KERNEL_SIZES),
    len(KERNEL_SIZES) * n_f, d) stack: entry [j, f] is tap j of filter f,
    the filters ordered by kernel size, n_f of each.  A size-k filter has
    taps 0..k-1; its taps from k on are no parameter, no product reads them,
    and they stay zero.  The per-size ``kernels[k]`` (n_f, k, d) and
    ``kernel_biases[k]`` (and their gradients) are views into the stacks.
    ``filter_sizes`` holds each filter's kernel size and ``tap_starts[j]``
    the first filter with a tap j; a fold stack shares both.
    """

    TENSORS = ("attn_vector", "cnn_kernels", "cnn_biases")
    PARTS = ("proj", "cnn_proj")
    TRANSPOSED = ("cnn_kernels",)

    def __init__(self, d, proj, attn_vector, kernels, cnn_proj, contrast_scale=3.0,
                 eps=1e-8):
        if contrast_scale <= 0 or eps <= 0:
            raise ValueError("contrast_scale and eps must be positive")
        self.d = d
        self.proj = proj  # dict name -> LinearParams, in EXPERT_NAMES order
        self.attn_vector = attn_vector  # (d,)
        self.grad_attn_vector = np.zeros_like(attn_vector)
        n_f = kernels[KERNEL_SIZES[0]].shape[0]
        self.filter_sizes = np.repeat(KERNEL_SIZES, n_f)
        self.tap_starts = tuple(
            int(np.searchsorted(self.filter_sizes, j, side="right"))
            for j in range(KERNEL_SIZES[-1]))
        self.cnn_kernels = np.zeros((KERNEL_SIZES[-1], len(KERNEL_SIZES) * n_f, d))
        self.cnn_biases = np.zeros(len(KERNEL_SIZES) * n_f)
        self.grad_cnn_kernels = np.zeros_like(self.cnn_kernels)
        self.grad_cnn_biases = np.zeros_like(self.cnn_biases)
        for k in KERNEL_SIZES:
            self.kernels[k][...] = kernels[k]
        self.cnn_proj = cnn_proj  # LinearParams len(KERNEL_SIZES)*n_f -> d
        self.contrast_scale = float(contrast_scale)
        self.eps = float(eps)

    @classmethod
    def init(cls, d: int, n_filters: int, rng: np.random.Generator,
             contrast_scale: float = 3.0, eps: float = 1e-8) -> "ExpertBank":
        proj = {name: LinearParams.init(d, d, rng) for name in EXPERT_NAMES}
        limit = 1.0 / np.sqrt(d)
        attn_vector = rng.uniform(-limit, limit, size=d)
        kernels = {}
        for k in KERNEL_SIZES:
            klimit = 1.0 / np.sqrt(k * d)
            kernels[k] = rng.uniform(-klimit, klimit, size=(n_filters, k, d))
        cnn_proj = LinearParams.init(d, len(KERNEL_SIZES) * n_filters, rng)
        return cls(d, proj, attn_vector, kernels, cnn_proj, contrast_scale, eps)

    @property
    def n_filters(self) -> int:
        return self.cnn_biases.shape[-1] // len(KERNEL_SIZES)

    def _per_size(self, stack: np.ndarray) -> dict[int, np.ndarray]:
        """{k: view of kernel size k's rows, and of its k taps, in a CNN stack}
        (None for the gradient buffers a fold-stacked bank does not have)."""
        if stack is None:
            return dict.fromkeys(KERNEL_SIZES)
        n_f = self.n_filters
        kernels = stack.ndim == self.cnn_kernels.ndim
        views = {}
        for i, k in enumerate(KERNEL_SIZES):
            rows = slice(i * n_f, (i + 1) * n_f)
            views[k] = (stack[..., :k, rows, :].swapaxes(-3, -2) if kernels
                        else stack[..., rows])
        return views

    @property
    def kernels(self) -> dict[int, np.ndarray]:
        return self._per_size(self.cnn_kernels)

    @property
    def kernel_biases(self) -> dict[int, np.ndarray]:
        return self._per_size(self.cnn_biases)

    def named_params(self, prefix: str = "experts"):
        for name in EXPERT_NAMES:
            yield from self.proj[name].named_params(f"{prefix}/{name}_proj")
        yield f"{prefix}/attn_vector", self.attn_vector, self.grad_attn_vector
        kernels, biases = self.kernels, self.kernel_biases
        grad_kernels = self._per_size(self.grad_cnn_kernels)
        grad_biases = self._per_size(self.grad_cnn_biases)
        for k in KERNEL_SIZES:
            yield f"{prefix}/cnn/k{k}/kernels", kernels[k], grad_kernels[k]
            yield f"{prefix}/cnn/k{k}/bias", biases[k], grad_biases[k]
        yield from self.cnn_proj.named_params(f"{prefix}/cnn_feature_proj")


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


def _check_pooled(names) -> None:
    """Rejects a name in ``names`` that is not a pooled expert, naming it."""
    bad = [name for name in names if name not in POOLED_NAMES]
    if bad:
        raise ValueError(f"not pooled expert name(s): {bad}; expected names from "
                         f"{POOLED_NAMES}")


def _check_gradients(names, dvecs) -> None:
    """Rejects a gradient list ``dvecs`` that is not one per expert in ``names``."""
    if len(dvecs) != len(names):
        raise ValueError(f"expected {len(names)} expert gradients, one per active "
                         f"expert, got {len(dvecs)}")


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
    and masks."""
    if isinstance(H, Padded):
        return H.data, H
    return H, Padded(H, np.intp(H.shape[0]))


def _indicator(positions, stack: Padded) -> np.ndarray:
    """(..., T) 0/1 indicator of mask positions given as a set of row
    indices (one sequence) or already as an indicator."""
    if isinstance(positions, np.ndarray):
        return positions
    check_positions(stack.valid.shape[-1], positions)
    ind = np.zeros(stack.valid.shape)
    ind[sorted(positions)] = 1.0
    return ind


def _pool(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row-weighted sums: (..., T) weights and (..., T, d) rows give (..., d)."""
    return (w[..., None, :] @ X)[..., 0, :]


# --- the pooled experts ----------------------------------------------------
#
# Mean, self-attention, lexical-cue and contrast pooling are one layer: each
# expert pools the rows of H with its own (..., T) row weights, in its own
# product, and projects the result with its own d x d map.  An expert is
# only its row-weight rule.

def attention_weights(bank: ExpertBank, H) -> tuple[np.ndarray, np.ndarray]:
    """Token weights alpha_i = softmax_i(s_i), which sum to one over each
    sequence's rows, and the scores s_i = tanh(h_i . v) they are taken over."""
    X, stack = _rows(H)
    scores = np.tanh(param_affine(X, bank.attn_vector[..., None])[..., 0])
    return softmax(scores + stack.fill if stack.ragged else scores), scores


def _row_weights(bank: ExpertBank, name: str, stack: Padded, cue_positions,
                 contrast_positions):
    """The row-weight rule of pooled expert ``name`` on the rows of
    ``stack``: its (..., T) row weights, the (..., 1) 0/1 flag its output is
    multiplied by (None when every output counts) and, for self-attention,
    the scores its weights are the softmax of.  None when every contrast
    mask is empty."""
    if name == "mean":
        return stack.valid / stack.lengths[..., None], None, None
    if name == "self_attention":
        alpha, scores = attention_weights(bank, stack)
        return alpha, None, scores
    if name == "cue":  # the eps-regularized mean of the cue rows
        ind = _indicator(cue_positions, stack)
        return ind / (ind.sum(axis=-1, keepdims=True) + bank.eps), None, None
    # contrast: all rows, contrast rows amplified, over the mask size.  An
    # empty mask zeroes the output, as dividing by eps alone would blow it
    # up by ~1e8; when every mask is empty, nothing is pooled or projected.
    ind = _indicator(contrast_positions, stack)
    if not ind.any():
        logger.debug("contrast expert: empty mask, emitting zero vector")
        return None
    n = ind.sum(axis=-1, keepdims=True)
    nonempty = (n > 0).astype(np.float64)
    if not nonempty.all():
        logger.debug("contrast expert: empty mask, emitting zero vector")
    return (stack.valid + (bank.contrast_scale - 1.0) * ind) / (n + bank.eps), nonempty, None


def pooled_experts(bank: ExpertBank, H, names, cue_positions=None,
                   contrast_positions=None) -> list[np.ndarray]:
    """The vectors of the pooled experts in ``names``, in that order.
    Rejects a name that is not in POOLED_NAMES, naming it."""
    _check_pooled(names)
    X, stack = _rows(H)
    vectors = []
    for name in names:
        pool = _row_weights(bank, name, stack, cue_positions, contrast_positions)
        if pool is None:
            vectors.append(np.zeros(X.shape[:-2] + (bank.d,)))
            continue
        w, flag, _ = pool
        e = affine(bank.proj[name], _pool(w, X))
        vectors.append(e if flag is None else e * flag)
    return vectors


def pooled_experts_backward(bank: ExpertBank, H, names, dvecs, cue_positions=None,
                            contrast_positions=None,
                            input_grad: bool = True) -> np.ndarray | None:
    """Backward pass of :func:`pooled_experts` for dL/de_i in ``dvecs``:
    accumulates the experts' parameter gradients and returns their summed
    dL/dH, shaped like the rows of H (None without ``input_grad``).  Each
    expert's row weights meet its pooled vector's gradient, and the score
    gradient meets the attention vector, as one (..., T, P) @ (..., P, d)
    product.  Rejects a name that is not pooled and a ``dvecs`` that is not
    one gradient per name."""
    _check_pooled(names)
    _check_gradients(names, dvecs)
    X, stack = _rows(H)
    weights, vectors = [], []  # (..., T) row weights and the (..., d) vectors they meet
    for name, de in zip(names, dvecs):
        pool = _row_weights(bank, name, stack, cue_positions, contrast_positions)
        if pool is None:
            continue
        w, flag, scores = pool
        du = affine_backward(bank.proj[name], _pool(w, X), de if flag is None else de * flag,
                             input_grad or scores is not None)
        weights.append(w)
        vectors.append(du)
        if scores is not None:  # self-attention: the score term
            dscores = softmax_backward(w, (X @ du[..., :, None])[..., 0])
            dpre = dscores * (1.0 - scores**2)  # through tanh
            bank.grad_attn_vector += dpre.reshape(-1) @ X.reshape(-1, bank.d)
            weights.append(dpre)
            vectors.append(np.broadcast_to(bank.attn_vector, du.shape))
    if not input_grad:
        return None
    if not weights:
        return np.zeros_like(X)
    return np.stack(weights, axis=-1) @ np.stack(vectors, axis=-2)


# each pooled expert alone: the shared layer with one expert

def expert_mean(bank: ExpertBank, H) -> np.ndarray:
    """Project the unweighted row mean of H."""
    return pooled_experts(bank, H, ("mean",))[0]


def expert_mean_backward(bank: ExpertBank, H, de: np.ndarray) -> np.ndarray:
    return pooled_experts_backward(bank, H, ("mean",), (de,))


def expert_selfattn(bank: ExpertBank, H) -> np.ndarray:
    """Project the attention-weighted row sum of H."""
    return pooled_experts(bank, H, ("self_attention",))[0]


def expert_selfattn_backward(bank: ExpertBank, H, de: np.ndarray) -> np.ndarray:
    return pooled_experts_backward(bank, H, ("self_attention",), (de,))


def expert_cue(bank: ExpertBank, H, cue_positions) -> np.ndarray:
    """Project the eps-regularized mean of rows at the cue positions."""
    return pooled_experts(bank, H, ("cue",), cue_positions)[0]


def expert_cue_backward(bank, H, cue_positions, de: np.ndarray) -> np.ndarray:
    return pooled_experts_backward(bank, H, ("cue",), (de,), cue_positions)


def expert_contrast(bank: ExpertBank, H, contrast_positions) -> np.ndarray:
    """Sum all rows with contrast rows amplified, normalized by the mask
    size; an empty contrast mask gives the zero vector."""
    return pooled_experts(bank, H, ("contrast",), None, contrast_positions)[0]


def expert_contrast_backward(bank, H, contrast_positions, de: np.ndarray) -> np.ndarray:
    return pooled_experts_backward(bank, H, ("contrast",), (de,), None, contrast_positions)


# --- max pooling --------------------------------------------------------

def expert_max(bank: ExpertBank, H) -> np.ndarray:
    """Project the columnwise max over rows of H."""
    X, stack = _rows(H)
    masked = X + stack.fill[..., None] if stack.ragged else X
    return affine(bank.proj["max"], masked.max(axis=-2))


def expert_max_backward(bank: ExpertBank, H, de: np.ndarray,
                        input_grad: bool = True) -> np.ndarray | None:
    X, stack = _rows(H)
    masked = X + stack.fill[..., None] if stack.ragged else X
    du = affine_backward(bank.proj["max"], masked.max(axis=-2), de, input_grad)
    if not input_grad:
        return None
    # ties route to the lowest row index (argmax picks the first maximum)
    arg = masked.argmax(axis=-2)[..., None, :]
    dH = np.zeros_like(X)
    np.put_along_axis(dH, arg, du[..., None, :], axis=-2)
    return dH


# --- multi-kernel CNN ----------------------------------------------------
#
# All kernel sizes run as one convolution (ops.conv1d) down the rows of
# every sequence flattened end to end, (..., R, d).  Each row starts one
# window per filter; window t of a sequence counts for kernel size k when
# t + k <= length, and each size mean-pools its own counted windows.  A
# window that reads a padding row or runs on into the next sequence is one
# those weights zero, so sequences never mix, and in the backward pass no
# gradient reaches a padding row.

def cnn_features(bank: ExpertBank, H) -> tuple[np.ndarray, tuple]:
    """Concatenated mean-pooled ReLU conv features, one block of n_f per
    kernel size, and the cache the backward pass reads.

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
    weights = ((np.arange(T)[:, None] < counts[..., None, :])
               / np.maximum(counts, 1)[..., None, :])
    feats = (np.maximum(pre, 0.0) * weights).sum(axis=-2)
    return feats, (rows, pre, weights)


def expert_cnn(bank: ExpertBank, H) -> np.ndarray:
    """Project the multi-kernel CNN feature vector."""
    feats, _ = cnn_features(bank, H)
    return affine(bank.proj["cnn"], affine(bank.cnn_proj, feats))


def expert_cnn_backward(bank: ExpertBank, H, de: np.ndarray,
                        input_grad: bool = True) -> np.ndarray | None:
    feats, (rows, pre, weights) = cnn_features(bank, H)
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
                    active=EXPERT_NAMES) -> list[np.ndarray]:
    """Evaluate the experts named in ``active`` (:func:`canonical_experts`);
    returns their vectors in the canonical EXPERT_NAMES order.  Max pooling
    and the CNN are called by their module names at call time, so a wrapper
    installed on this module (a profiler, a test double) sees those calls."""
    names = canonical_experts(active)
    pooled = [name for name in names if name in POOLED_NAMES]
    vectors = dict(zip(pooled, pooled_experts(bank, H, pooled, cue_positions,
                                              contrast_positions)))
    for name, forward in (("max", expert_max), ("cnn", expert_cnn)):
        if name in names:
            vectors[name] = forward(bank, H)
    return [vectors[name] for name in names]


def run_all_experts_backward(bank: ExpertBank, H, cue_positions, contrast_positions,
                             active, dvecs, input_grad: bool = True) -> np.ndarray | None:
    """Backward pass of :func:`run_all_experts` for dL/de_i in ``dvecs``, one
    per active expert; accumulates expert gradients and returns the summed
    dL/dH, shaped like the rows of H.  Without ``input_grad`` (nothing
    consumes dL/dH) no expert forms its share of it and the result is None."""
    names = canonical_experts(active)
    _check_gradients(names, dvecs)
    grads = dict(zip(names, dvecs))
    pooled = [name for name in grads if name in POOLED_NAMES]
    dH = pooled_experts_backward(bank, H, pooled, [grads[name] for name in pooled],
                                 cue_positions, contrast_positions, input_grad)
    for name, backward in (("max", expert_max_backward), ("cnn", expert_cnn_backward)):
        if name in grads:
            dH_i = backward(bank, H, grads[name], input_grad=input_grad)
            if input_grad:
                dH += dH_i  # in place, so at most two dL/dH are live
    return dH
