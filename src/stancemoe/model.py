"""Whole-model assembly: parameters, end-to-end forward pass, and the
hand-derived backward pass from classifier logits down to the embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import ToyEncoderParams, encode, encode_backward
from .experts import EXPERT_NAMES, ExpertBank, run_all_experts, run_all_experts_backward
from .head import (
    classify,
    classify_backward,
    fuse,
    fuse_backward,
    gate_backward,
    gate_forward,
)
from .ops import LinearParams, affine, affine_backward
from .text import N_CLASSES, TokenizedExample

HEAD_KINDS = ("moe", "stacked", "fusion")
ENCODER_MODES = ("toy", "precomputed")


def canonical_experts(head: str, active_experts) -> tuple[str, ...]:
    """The active expert names in canonical order.  Rejects unknown names, an
    empty selection, and a stacked or fusion head without all six experts."""
    unknown = set(active_experts) - set(EXPERT_NAMES)
    if unknown:
        raise ValueError(f"unknown expert name(s): {sorted(unknown)}")
    active = tuple(n for n in EXPERT_NAMES if n in set(active_experts))
    if not active:
        raise ValueError("at least one expert must be active")
    if head != "moe" and active != EXPERT_NAMES:
        raise ValueError(f"the {head} head requires all six experts active")
    return active


class ModelParams:
    """Every trainable tensor of one model, with paired gradient buffers.

    ``encoder`` is None in precomputed-embedding mode.  ``gate`` exists only
    for the moe head (its output width equals the number of active experts)
    and ``fusion_proj`` only for the fusion head.
    """

    def __init__(self, d, active_experts, head, encoder, bank, gate, fusion_proj,
                 classifier, freeze_encoder=False):
        if head not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {head!r}")
        self.d = d
        self.active_experts = canonical_experts(head, active_experts)
        self.head = head
        self.encoder = encoder
        self.bank = bank
        self.gate = gate
        self.fusion_proj = fusion_proj
        self.classifier = classifier
        self.freeze_encoder = freeze_encoder

    @classmethod
    def init(cls, vocab_size: int, d: int, max_len: int, rng: np.random.Generator,
             n_filters: int = 8, contrast_scale: float = 3.0, eps: float = 1e-8,
             head: str = "moe", active_experts=EXPERT_NAMES,
             encoder_mode: str = "toy", freeze_encoder: bool = False) -> "ModelParams":
        """Build a freshly initialized model.  Parameter draw order is fixed
        (encoder, experts, gate, fusion projection, classifier) so a seeded
        generator reproduces the same model bit for bit."""
        if encoder_mode not in ENCODER_MODES:
            raise ValueError(f"unknown encoder mode {encoder_mode!r}")
        active = canonical_experts(head, active_experts)
        encoder = None
        if encoder_mode == "toy":
            encoder = ToyEncoderParams.init(vocab_size, d, max_len, rng)
        bank = ExpertBank.init(d, n_filters, rng, contrast_scale, eps)
        gate = LinearParams.init(len(active), d, rng) if head == "moe" else None
        fusion_proj = (LinearParams.init(d, len(EXPERT_NAMES) * d, rng)
                       if head == "fusion" else None)
        classifier = LinearParams.init(N_CLASSES, d, rng)
        return cls(d, active, head, encoder, bank, gate, fusion_proj, classifier,
                   freeze_encoder)

    def named_params(self):
        """All (path, value, grad) triples, in a fixed order."""
        if self.encoder is not None:
            yield from self.encoder.named_params("encoder")
        yield from self.bank.named_params("experts")
        if self.gate is not None:
            yield "gate/weight", self.gate.weight, self.gate.grad_weight
            yield "gate/bias", self.gate.bias, self.gate.grad_bias
        if self.fusion_proj is not None:
            yield "fusion_proj/weight", self.fusion_proj.weight, self.fusion_proj.grad_weight
            yield "fusion_proj/bias", self.fusion_proj.bias, self.fusion_proj.grad_bias
        yield "classifier/weight", self.classifier.weight, self.classifier.grad_weight
        yield "classifier/bias", self.classifier.bias, self.classifier.grad_bias

    def trainable_params(self):
        """named_params minus the encoder when it is frozen."""
        for triple in self.named_params():
            if self.freeze_encoder and triple[0].startswith("encoder/"):
                continue
            yield triple

    def zero_grads(self) -> None:
        for _, _, grad in self.named_params():
            grad[:] = 0.0


@dataclass
class ModelOutput:
    """Forward-pass record: final prediction plus the intermediates the
    backward pass consumes."""

    H: np.ndarray
    h_cls: np.ndarray
    expert_vectors: list[np.ndarray]  # in params.active_experts order
    gate_weights: np.ndarray
    fused: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def model_forward(params: ModelParams, example: TokenizedExample,
                  H_override: np.ndarray | None = None) -> ModelOutput:
    """Run the whole model on one example.

    ``H_override`` supplies a precomputed (T, d) token matrix (row 0 = CLS),
    one row per token of the example; otherwise the toy encoder produces it.
    """
    if H_override is not None:
        H = H_override
        if H.ndim != 2 or H.shape[1] != params.d:
            raise ValueError(
                f"precomputed embeddings have width {H.shape[-1]}, model expects {params.d}"
            )
        if H.shape[0] != len(example.token_ids):
            raise ValueError(
                f"precomputed embeddings for {example.id!r} have {H.shape[0]} rows, "
                f"but the example has {len(example.token_ids)} tokens"
            )
    else:
        if params.encoder is None:
            raise ValueError("model has no encoder; precomputed embeddings required")
        H = encode(params.encoder, example.token_ids).H
    h_cls = H[0]

    C, D = example.cue_positions, example.contrast_positions
    _check_positions(H.shape[0], C, D)
    vectors = run_all_experts(params.bank, H, C, D, params.active_experts)

    if params.head == "moe":
        g = gate_forward(params.gate, h_cls)
        fused = fuse(g, vectors)
    else:  # stacked and fusion report a uniform placeholder gate
        g = np.full(len(vectors), 1.0 / len(vectors))
        if params.head == "stacked":
            fused = np.sum(vectors, axis=0)
        else:
            fused = affine(params.fusion_proj, np.concatenate(vectors))
    logits, probs = classify(params.classifier, fused)
    return ModelOutput(H=H, h_cls=h_cls, expert_vectors=vectors, gate_weights=g,
                       fused=fused, logits=logits, probs=probs)


def model_backward(params: ModelParams, example: TokenizedExample,
                   out: ModelOutput, dlogits: np.ndarray) -> None:
    """Accumulate gradients for dL/dlogits through the whole model.

    The encoder receives no gradient when it is frozen or absent
    (precomputed embeddings); expert and head gradients still accumulate.
    """
    dfused = classify_backward(params.classifier, out.fused, dlogits)

    dh_cls = np.zeros(params.d)
    if params.head == "moe":
        dg, dvecs = fuse_backward(out.gate_weights, out.expert_vectors, dfused)
        dh_cls = gate_backward(params.gate, out.h_cls, out.gate_weights, dg)
    elif params.head == "stacked":
        dvecs = [dfused] * len(out.expert_vectors)
    else:  # fusion
        concat = np.concatenate(out.expert_vectors)
        dconcat = affine_backward(params.fusion_proj, concat, dfused)
        dvecs = list(dconcat.reshape(len(out.expert_vectors), params.d))

    dH = run_all_experts_backward(params.bank, out.H, example.cue_positions,
                                  example.contrast_positions, params.active_experts, dvecs)
    dH[0] += dh_cls

    if params.encoder is not None and not params.freeze_encoder:
        encode_backward(params.encoder, example.token_ids, dH)


def _check_positions(T: int, cue_positions, contrast_positions) -> None:
    bad = [i for i in cue_positions | contrast_positions if not 0 <= i < T]
    if bad:
        raise ValueError(f"mask positions {sorted(bad)} out of range for length {T}")
