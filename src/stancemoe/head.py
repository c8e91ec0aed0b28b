"""Context-aware gating, expert fusion, and the 3-way classifier.

Each function acts on rows: a vector for one example, or a (B, ...) stack
of B examples with the same code.
"""

from __future__ import annotations

import numpy as np

from .ops import LinearParams, affine, affine_backward, softmax, softmax_backward


def gate_forward(gate: LinearParams, h_cls: np.ndarray) -> np.ndarray:
    """Gating weights g = softmax(W_g h_cls + b_g); one weight per expert."""
    return softmax(affine(gate, h_cls))


def gate_backward(gate: LinearParams, h_cls, g, dg) -> np.ndarray:
    """Accumulate gate gradients; returns dL/dh_cls."""
    dz = softmax_backward(g, dg)
    return affine_backward(gate, h_cls, dz)


def fuse(g: np.ndarray, vectors) -> np.ndarray:
    """Weighted sum of expert vectors: h = sum_i g_i e_i, row by row."""
    if g.shape[-1] != len(vectors):
        raise ValueError(f"{g.shape[-1]} gate weights for {len(vectors)} expert outputs")
    return (g[..., None, :] @ _expert_axis_last_but_one(vectors))[..., 0, :]


def fuse_backward(g, vectors, dh) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (dg, [de_i]) for the weighted sum."""
    dg = (_expert_axis_last_but_one(vectors) @ dh[..., None])[..., 0]
    return dg, list(np.swapaxes(g[..., None] * dh[..., None, :], 0, -2))


def _expert_axis_last_but_one(vectors) -> np.ndarray:
    """The n expert vectors (each (d,) or (B, d)) as an (n, d) or (B, n, d) view."""
    return np.swapaxes(np.asarray(vectors), 0, -2)


def classify(classifier: LinearParams, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class logits W_o h + b_o and their softmax probabilities."""
    logits = affine(classifier, h)
    return logits, softmax(logits)


def classify_backward(classifier: LinearParams, h, dlogits) -> np.ndarray:
    """Accumulate classifier gradients; returns dL/dh."""
    return affine_backward(classifier, h, dlogits)
