"""The six pooling experts mapping a token matrix H to vectors e_1..e_6.

In canonical order: mean pooling, max pooling, self-attention pooling,
multi-kernel CNN, lexical-cue pooling over the cue mask C, and
contrast-amplified pooling over the contrast mask D.  Each expert projects
to the model width d, so the gating head can mix them freely.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ops import (
    LinearParams,
    Padded,
    ParamSet,
    affine,
    affine_backward,
    conv1d_valid,
    conv1d_valid_backward,
    param_affine,
    softmax,
    softmax_backward,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExpertSpec:
    """One expert: its name, the names of its forward and backward functions
    in this module, and the position mask it reads (None, "cue" or
    "contrast").  The functions are looked up by name on every call, so a
    wrapper installed on this module (a profiler, a test double) sees the
    calls made through the table."""

    name: str
    forward: str
    backward: str
    mask: str | None = None


EXPERTS = (
    ExpertSpec("mean", "expert_mean", "expert_mean_backward"),
    ExpertSpec("max", "expert_max", "expert_max_backward"),
    ExpertSpec("self_attention", "expert_selfattn", "expert_selfattn_backward"),
    ExpertSpec("cnn", "expert_cnn", "expert_cnn_backward"),
    ExpertSpec("cue", "expert_cue", "expert_cue_backward", "cue"),
    ExpertSpec("contrast", "expert_contrast", "expert_contrast_backward", "contrast"),
)
EXPERT_NAMES = tuple(spec.name for spec in EXPERTS)
KERNEL_SIZES = (2, 3, 4, 5)


class ExpertBank(ParamSet):
    """All trainable expert parameters for one model.

    Holds the six output projections (each d -> d), the attention vector
    for self-attention pooling, the CNN kernels and the inner projection
    that maps the concatenated CNN features back to d.  ``contrast_scale``
    multiplies contrast-marked rows; ``eps`` keeps the masked-mean
    denominators away from zero.

    The CNN kernels of all sizes live in one (len(KERNEL_SIZES) * n_f,
    max(KERNEL_SIZES), d) stack, each size's (n_f, k, d) kernels zero-padded
    to the widest size, so the convolution runs once for all sizes.  The
    per-size ``kernels[k]`` and ``kernel_biases[k]`` (and their gradients)
    are views into the stacks; the padding taps are no parameter and stay
    zero.
    """

    TENSORS = ("attn_vector", "cnn_kernels", "cnn_biases")
    PARTS = ("proj", "cnn_proj")
    TRANSPOSED = ("cnn_kernels",)

    def __init__(self, d, proj, attn_vector, kernels, kernel_biases, cnn_proj,
                 contrast_scale=3.0, eps=1e-8):
        if contrast_scale <= 0 or eps <= 0:
            raise ValueError("contrast_scale and eps must be positive")
        self.d = d
        self.proj = proj  # dict name -> LinearParams, in EXPERT_NAMES order
        self.attn_vector = attn_vector  # (d,)
        self.grad_attn_vector = np.zeros_like(attn_vector)
        n_f = kernels[KERNEL_SIZES[0]].shape[0]
        self.cnn_kernels = np.zeros((len(KERNEL_SIZES) * n_f, KERNEL_SIZES[-1], d))
        self.cnn_biases = np.zeros(len(KERNEL_SIZES) * n_f)
        self.grad_cnn_kernels = np.zeros_like(self.cnn_kernels)
        self.grad_cnn_biases = np.zeros_like(self.cnn_biases)
        for k in KERNEL_SIZES:
            self.kernels[k][...] = kernels[k]
            self.kernel_biases[k][...] = kernel_biases[k]
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
        kernel_biases = {}
        for k in KERNEL_SIZES:
            klimit = 1.0 / np.sqrt(k * d)
            kernels[k] = rng.uniform(-klimit, klimit, size=(n_filters, k, d))
            kernel_biases[k] = np.zeros(n_filters)
        cnn_proj = LinearParams.init(d, len(KERNEL_SIZES) * n_filters, rng)
        return cls(d, proj, attn_vector, kernels, kernel_biases, cnn_proj,
                   contrast_scale, eps)

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
            views[k] = stack[..., rows, :k, :] if kernels else stack[..., rows]
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
    ind = np.zeros(stack.valid.shape)
    ind[sorted(positions)] = 1.0
    return ind


def _pool(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row-weighted sums: (..., T) weights and (..., T, d) rows give (..., d)."""
    return (w[..., None, :] @ X)[..., 0, :]


def _pool_backward(w: np.ndarray, du: np.ndarray) -> np.ndarray:
    return w[..., :, None] * du[..., None, :]


# --- mean pooling -------------------------------------------------------

def _mean_weights(stack: Padded) -> np.ndarray:
    return stack.valid / stack.lengths[..., None]


def expert_mean(bank: ExpertBank, H) -> np.ndarray:
    """Project the unweighted row mean of H."""
    X, stack = _rows(H)
    return affine(bank.proj["mean"], _pool(_mean_weights(stack), X))


def expert_mean_backward(bank: ExpertBank, H, de: np.ndarray,
                         input_grad: bool = True) -> np.ndarray | None:
    X, stack = _rows(H)
    w = _mean_weights(stack)
    du = affine_backward(bank.proj["mean"], _pool(w, X), de, input_grad)
    return _pool_backward(w, du) if input_grad else None


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


# --- self-attention pooling ---------------------------------------------

def _attention(bank: ExpertBank, X: np.ndarray, stack: Padded):
    scores = np.tanh(param_affine(X, bank.attn_vector[..., None])[..., 0])
    return softmax(scores + stack.fill if stack.ragged else scores), scores


def attention_weights(bank: ExpertBank, H) -> tuple[np.ndarray, np.ndarray]:
    """Token weights alpha_i = softmax_i(s_i), which sum to one over each
    sequence's rows, and the scores s_i = tanh(h_i . v) they are taken over."""
    X, stack = _rows(H)
    return _attention(bank, X, stack)


def expert_selfattn(bank: ExpertBank, H) -> np.ndarray:
    """Project the attention-weighted row sum of H."""
    X, stack = _rows(H)
    alpha, _ = _attention(bank, X, stack)
    return affine(bank.proj["self_attention"], _pool(alpha, X))


def expert_selfattn_backward(bank: ExpertBank, H, de: np.ndarray,
                             input_grad: bool = True) -> np.ndarray | None:
    X, stack = _rows(H)
    alpha, scores = _attention(bank, X, stack)
    du = affine_backward(bank.proj["self_attention"], _pool(alpha, X), de)
    dalpha = (X @ du[..., :, None])[..., 0]
    dscores = softmax_backward(alpha, dalpha)
    dpre = dscores * (1.0 - scores**2)  # through tanh
    bank.grad_attn_vector += dpre.reshape(-1) @ X.reshape(-1, bank.d)
    if not input_grad:
        return None
    return _pool_backward(alpha, du) + dpre[..., None] * bank.attn_vector


# --- multi-kernel CNN ----------------------------------------------------
#
# All kernel sizes run as one convolution over the bank's zero-padded
# kernel stack of width K = max(KERNEL_SIZES).  The rows get K - 1 zero rows
# appended, so there is one output window per row; window t counts for
# kernel size k when t + k <= length, and each size mean-pools its own
# valid windows.

def cnn_features(bank: ExpertBank, H) -> tuple[np.ndarray, tuple]:
    """Concatenated mean-pooled ReLU conv features, one block of n_f per
    kernel size, and the cache the backward pass reads.

    Kernel sizes longer than a sequence contribute a zero block, so the
    features always have length len(KERNEL_SIZES) * n_filters.
    """
    X, stack = _rows(H)
    T = X.shape[-2]
    padded = np.zeros(X.shape[:-2] + (T + KERNEL_SIZES[-1] - 1, bank.d))
    padded[..., :T, :] = X
    pre = conv1d_valid(padded, bank.cnn_kernels, bank.cnn_biases)  # (..., T, n_f * sizes)
    # windows per sequence and kernel size; 1/count weights each valid window
    counts = stack.lengths[..., None] - np.repeat(KERNEL_SIZES, bank.n_filters) + 1
    weights = ((np.arange(T)[:, None] < counts[..., None, :])
               / np.maximum(counts, 1)[..., None, :])
    feats = (np.maximum(pre, 0.0) * weights).sum(axis=-2)
    return feats, (padded, pre, weights)


def expert_cnn(bank: ExpertBank, H) -> np.ndarray:
    """Project the multi-kernel CNN feature vector."""
    feats, _ = cnn_features(bank, H)
    return affine(bank.proj["cnn"], affine(bank.cnn_proj, feats))


def expert_cnn_backward(bank: ExpertBank, H, de: np.ndarray,
                        input_grad: bool = True) -> np.ndarray | None:
    feats, (padded, pre, weights) = cnn_features(bank, H)
    inner = affine(bank.cnn_proj, feats)
    dinner = affine_backward(bank.proj["cnn"], inner, de)
    dfeats = affine_backward(bank.cnn_proj, feats, dinner)
    dpre = np.where(pre > 0.0, weights, 0.0) * dfeats[..., None, :]
    dpadded, dkernels, dbias = conv1d_valid_backward(padded, bank.cnn_kernels, dpre,
                                                     input_grad)
    n_f = bank.n_filters
    for i, k in enumerate(KERNEL_SIZES):
        dkernels[i * n_f : (i + 1) * n_f, k:] = 0.0  # padding taps are no parameter
    bank.grad_cnn_kernels += dkernels
    bank.grad_cnn_biases += dbias
    return dpadded[..., : pre.shape[-2], :] if input_grad else None


# --- lexical-cue pooling --------------------------------------------------

def _cue_weights(bank: ExpertBank, H, cue_positions) -> tuple[np.ndarray, np.ndarray]:
    """Rows and the eps-regularized mean weights over the cue positions."""
    X, stack = _rows(H)
    ind = _indicator(cue_positions, stack)
    return X, ind / (ind.sum(axis=-1, keepdims=True) + bank.eps)


def expert_cue(bank: ExpertBank, H, cue_positions) -> np.ndarray:
    """Project the eps-regularized mean of rows at the cue positions."""
    X, w = _cue_weights(bank, H, cue_positions)
    return affine(bank.proj["cue"], _pool(w, X))


def expert_cue_backward(bank, H, cue_positions, de: np.ndarray,
                        input_grad: bool = True) -> np.ndarray | None:
    X, w = _cue_weights(bank, H, cue_positions)
    du = affine_backward(bank.proj["cue"], _pool(w, X), de, input_grad)
    return _pool_backward(w, du) if input_grad else None


# --- contrast-amplified pooling --------------------------------------------

def _contrast_weights(bank: ExpertBank, stack: Padded, ind: np.ndarray):
    """Row weights (contrast rows amplified, normalized by the mask size)
    and the (..., 1) 0/1 flag of a non-empty mask."""
    n = ind.sum(axis=-1, keepdims=True)
    w = (stack.valid + (bank.contrast_scale - 1.0) * ind) / (n + bank.eps)
    return w, (n > 0).astype(np.float64)


def expert_contrast(bank: ExpertBank, H, contrast_positions) -> np.ndarray:
    """Sum all rows with contrast rows amplified, normalized by the mask size.

    An empty contrast mask gives the zero vector: dividing the full-row
    sum by eps alone would blow the output up by ~1e8, so the degenerate
    case is clamped and logged instead.
    """
    X, stack = _rows(H)
    ind = _indicator(contrast_positions, stack)
    if not ind.any():
        logger.debug("contrast expert: empty mask, emitting zero vector")
        return np.zeros(X.shape[:-2] + (bank.d,))
    w, nonempty = _contrast_weights(bank, stack, ind)
    if not nonempty.all():
        logger.debug("contrast expert: empty mask, emitting zero vector")
    return affine(bank.proj["contrast"], _pool(w, X)) * nonempty


def expert_contrast_backward(bank, H, contrast_positions, de: np.ndarray,
                             input_grad: bool = True) -> np.ndarray | None:
    X, stack = _rows(H)
    ind = _indicator(contrast_positions, stack)
    if not ind.any():
        return np.zeros_like(X) if input_grad else None
    w, nonempty = _contrast_weights(bank, stack, ind)
    du = affine_backward(bank.proj["contrast"], _pool(w, X), de * nonempty, input_grad)
    return _pool_backward(w, du) if input_grad else None


# --- dispatch --------------------------------------------------------------

def _active_specs(active) -> list[ExpertSpec]:
    specs = [spec for spec in EXPERTS if spec.name in active]
    if not specs:
        raise ValueError("at least one expert must be active")
    return specs


def _mask_args(cue_positions, contrast_positions) -> dict:
    return {None: (), "cue": (cue_positions,), "contrast": (contrast_positions,)}


def run_all_experts(bank: ExpertBank, H, cue_positions, contrast_positions,
                    active=EXPERT_NAMES) -> list[np.ndarray]:
    """Evaluate the experts named in ``active``; returns their vectors in the
    canonical EXPERT_NAMES order."""
    masks = _mask_args(cue_positions, contrast_positions)
    fns = globals()
    return [fns[spec.forward](bank, H, *masks[spec.mask]) for spec in _active_specs(active)]


def run_all_experts_backward(bank: ExpertBank, H, cue_positions, contrast_positions,
                             active, dvecs, input_grad: bool = True) -> np.ndarray | None:
    """Backward pass of :func:`run_all_experts` for dL/de_i in ``dvecs``;
    accumulates expert gradients and returns the summed dL/dH, shaped like
    the rows of H.  Without ``input_grad`` (nothing consumes dL/dH) no
    expert forms its share of it and the result is None."""
    masks = _mask_args(cue_positions, contrast_positions)
    fns = globals()
    grads = (fns[spec.backward](bank, H, *masks[spec.mask], de, input_grad=input_grad)
             for spec, de in zip(_active_specs(active), dvecs))
    dH = next(grads)
    for dH_i in grads:  # one expert's dL/dH is live at a time
        if input_grad:
            dH += dH_i
    return dH
