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
    affine,
    affine_backward,
    conv1d_valid,
    conv1d_valid_backward,
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


class ExpertBank:
    """All trainable expert parameters for one model.

    Holds the six output projections (each d -> d), the attention vector
    for self-attention pooling, one kernel stack per CNN kernel size, and
    the inner projection that maps the concatenated CNN features back to d.
    ``contrast_scale`` multiplies contrast-marked rows; ``eps`` keeps the
    masked-mean denominators away from zero.
    """

    def __init__(self, d, proj, attn_vector, kernels, kernel_biases, cnn_proj,
                 contrast_scale=3.0, eps=1e-8):
        if contrast_scale <= 0 or eps <= 0:
            raise ValueError("contrast_scale and eps must be positive")
        self.d = d
        self.proj = proj  # dict name -> LinearParams, in EXPERT_NAMES order
        self.attn_vector = attn_vector  # (d,)
        self.grad_attn_vector = np.zeros_like(attn_vector)
        self.kernels = kernels  # dict k -> (n_f, k, d)
        self.kernel_biases = kernel_biases  # dict k -> (n_f,)
        self.grad_kernels = {k: np.zeros_like(v) for k, v in kernels.items()}
        self.grad_kernel_biases = {k: np.zeros_like(v) for k, v in kernel_biases.items()}
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
        return self.kernels[KERNEL_SIZES[0]].shape[0]

    def named_params(self, prefix: str = "experts"):
        for name in EXPERT_NAMES:
            lin = self.proj[name]
            yield f"{prefix}/{name}_proj/weight", lin.weight, lin.grad_weight
            yield f"{prefix}/{name}_proj/bias", lin.bias, lin.grad_bias
        yield f"{prefix}/attn_vector", self.attn_vector, self.grad_attn_vector
        for k in KERNEL_SIZES:
            yield f"{prefix}/cnn/k{k}/kernels", self.kernels[k], self.grad_kernels[k]
            yield f"{prefix}/cnn/k{k}/bias", self.kernel_biases[k], self.grad_kernel_biases[k]
        yield f"{prefix}/cnn_feature_proj/weight", self.cnn_proj.weight, self.cnn_proj.grad_weight
        yield f"{prefix}/cnn_feature_proj/bias", self.cnn_proj.bias, self.cnn_proj.grad_bias

    def zero_grads(self) -> None:
        for _, _, grad in self.named_params():
            grad[:] = 0.0


# --- mean pooling -------------------------------------------------------

def expert_mean(bank: ExpertBank, H: np.ndarray) -> np.ndarray:
    """Project the unweighted row mean of H."""
    return affine(bank.proj["mean"], H.mean(axis=0))


def expert_mean_backward(bank: ExpertBank, H: np.ndarray, de: np.ndarray) -> np.ndarray:
    du = affine_backward(bank.proj["mean"], H.mean(axis=0), de)
    return np.tile(du / H.shape[0], (H.shape[0], 1))


# --- max pooling --------------------------------------------------------

def expert_max(bank: ExpertBank, H: np.ndarray) -> np.ndarray:
    """Project the columnwise max over rows of H."""
    return affine(bank.proj["max"], H.max(axis=0))


def expert_max_backward(bank: ExpertBank, H: np.ndarray, de: np.ndarray) -> np.ndarray:
    # ties route to the lowest row index (argmax picks the first maximum)
    arg = H.argmax(axis=0)
    du = affine_backward(bank.proj["max"], H.max(axis=0), de)
    dH = np.zeros_like(H)
    dH[arg, np.arange(H.shape[1])] = du
    return dH


# --- self-attention pooling ---------------------------------------------

def attention_weights(bank: ExpertBank, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Token weights alpha_i = softmax_i(s_i), which sum to one, and the
    scores s_i = tanh(h_i . v) they are taken over."""
    scores = np.tanh(H @ bank.attn_vector)
    return softmax(scores), scores


def expert_selfattn(bank: ExpertBank, H: np.ndarray) -> np.ndarray:
    """Project the attention-weighted row sum of H."""
    alpha, _ = attention_weights(bank, H)
    return affine(bank.proj["self_attention"], alpha @ H)


def expert_selfattn_backward(bank: ExpertBank, H: np.ndarray, de: np.ndarray) -> np.ndarray:
    alpha, scores = attention_weights(bank, H)
    pooled = alpha @ H
    du = affine_backward(bank.proj["self_attention"], pooled, de)
    dalpha = H @ du
    dscores = softmax_backward(alpha, dalpha)
    dpre = dscores * (1.0 - scores**2)  # through tanh
    bank.grad_attn_vector += H.T @ dpre
    return np.outer(alpha, du) + np.outer(dpre, bank.attn_vector)


# --- multi-kernel CNN ----------------------------------------------------

def cnn_features(bank: ExpertBank, H: np.ndarray) -> tuple[np.ndarray, list]:
    """Concatenated mean-pooled ReLU conv features, one block per kernel size,
    and the (L, n_f) pre-activation conv outputs they pool.

    Kernel sizes longer than the sequence contribute a zero block and a
    None pre-activation, so the features always have length
    len(KERNEL_SIZES) * n_filters.
    """
    T = H.shape[0]
    pres = [conv1d_valid(H, bank.kernels[k], bank.kernel_biases[k]) if T >= k else None
            for k in KERNEL_SIZES]
    feats = np.concatenate([np.zeros(bank.n_filters) if pre is None
                            else np.maximum(pre, 0.0).mean(axis=0) for pre in pres])
    return feats, pres


def expert_cnn(bank: ExpertBank, H: np.ndarray) -> np.ndarray:
    """Project the multi-kernel CNN feature vector."""
    feats, _ = cnn_features(bank, H)
    return affine(bank.proj["cnn"], affine(bank.cnn_proj, feats))


def expert_cnn_backward(bank: ExpertBank, H: np.ndarray, de: np.ndarray) -> np.ndarray:
    feats, pres = cnn_features(bank, H)
    inner = affine(bank.cnn_proj, feats)
    dinner = affine_backward(bank.proj["cnn"], inner, de)
    dfeats = affine_backward(bank.cnn_proj, feats, dinner)
    dH = np.zeros_like(H)
    n_f = bank.n_filters
    for bi, (k, pre) in enumerate(zip(KERNEL_SIZES, pres)):
        if pre is None:
            continue
        dpool = dfeats[bi * n_f : (bi + 1) * n_f]
        dpre = np.where(pre > 0.0, 1.0, 0.0) * (dpool / pre.shape[0])  # (L, n_f)
        dHk, dkernels, dbias = conv1d_valid_backward(H, bank.kernels[k], dpre)
        dH += dHk
        bank.grad_kernels[k] += dkernels
        bank.grad_kernel_biases[k] += dbias
    return dH


# --- lexical-cue pooling --------------------------------------------------

def _masked_mean(H: np.ndarray, positions, eps: float) -> np.ndarray:
    idx = sorted(positions)
    total = H[idx].sum(axis=0) if idx else np.zeros(H.shape[1])
    return total / (len(idx) + eps)


def expert_cue(bank: ExpertBank, H: np.ndarray, cue_positions) -> np.ndarray:
    """Project the eps-regularized mean of rows at the cue positions."""
    return affine(bank.proj["cue"], _masked_mean(H, cue_positions, bank.eps))


def expert_cue_backward(bank, H, cue_positions, de: np.ndarray) -> np.ndarray:
    u = _masked_mean(H, cue_positions, bank.eps)
    du = affine_backward(bank.proj["cue"], u, de)
    dH = np.zeros_like(H)
    idx = sorted(cue_positions)
    if idx:
        dH[idx] = du / (len(idx) + bank.eps)
    return dH


# --- contrast-amplified pooling --------------------------------------------

def _contrast_weights(bank: ExpertBank, T: int, contrast_positions) -> np.ndarray:
    w = np.ones(T)
    w[sorted(contrast_positions)] = bank.contrast_scale
    return w


def expert_contrast(bank: ExpertBank, H: np.ndarray, contrast_positions) -> np.ndarray:
    """Sum all rows with contrast rows amplified, normalized by the mask size.

    An empty contrast mask returns the zero vector: dividing the full-row
    sum by eps alone would blow the output up by ~1e8, so the degenerate
    case is clamped and logged instead.
    """
    if not contrast_positions:
        logger.debug("contrast expert: empty mask, emitting zero vector")
        return np.zeros(bank.d)
    w = _contrast_weights(bank, H.shape[0], contrast_positions)
    u = (w[:, None] * H).sum(axis=0) / (len(contrast_positions) + bank.eps)
    return affine(bank.proj["contrast"], u)


def expert_contrast_backward(bank, H, contrast_positions, de: np.ndarray) -> np.ndarray:
    if not contrast_positions:
        return np.zeros_like(H)
    w = _contrast_weights(bank, H.shape[0], contrast_positions)
    denom = len(contrast_positions) + bank.eps
    u = (w[:, None] * H).sum(axis=0) / denom
    du = affine_backward(bank.proj["contrast"], u, de)
    return np.outer(w / denom, du)


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
                             active, dvecs) -> np.ndarray:
    """Backward pass of :func:`run_all_experts` for dL/de_i in ``dvecs``;
    accumulates expert gradients and returns the summed dL/dH."""
    masks = _mask_args(cue_positions, contrast_positions)
    fns = globals()
    dH = np.zeros_like(H)
    for spec, de in zip(_active_specs(active), dvecs):
        dH += fns[spec.backward](bank, H, *masks[spec.mask], de)
    return dH
