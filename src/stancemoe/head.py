"""Context-aware gating, expert fusion, and the 3-way classifier."""

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
    """Weighted sum of expert vectors: h = sum_i g_i e_i."""
    if len(g) != len(vectors):
        raise ValueError(f"{len(g)} gate weights for {len(vectors)} expert outputs")
    return g @ np.asarray(vectors)


def fuse_backward(g, vectors, dh) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (dg, [de_i]) for the weighted sum."""
    E = np.asarray(vectors)
    return E @ dh, [gi * dh for gi in g]


def classify(classifier: LinearParams, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class logits W_o h + b_o and their softmax probabilities."""
    logits = affine(classifier, h)
    return logits, softmax(logits)


def classify_backward(classifier: LinearParams, h, dlogits) -> np.ndarray:
    """Accumulate classifier gradients; returns dL/dh."""
    return affine_backward(classifier, h, dlogits)
