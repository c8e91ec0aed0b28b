"""Whole-model assembly: parameters, end-to-end forward pass, and the
hand-derived backward pass from classifier logits down to the embeddings."""

from __future__ import annotations

import copy
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
from .ops import LinearParams, Padded, affine, affine_backward
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
    and ``fusion_proj`` only for the fusion head.  A fold-stacked model
    (:meth:`stack`) holds K models of one architecture, each tensor with a
    leading fold axis.
    """

    def __init__(self, d, active_experts, head, encoder, bank, gate, fusion_proj,
                 classifier, freeze_encoder=False, max_len=128):
        if head not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {head!r}")
        self.d = d
        self.max_len = max_len  # longest input it is built for; caps sub-batch size
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
                   freeze_encoder, max_len)

    @classmethod
    def stack(cls, models) -> "ModelParams":
        """K models of one architecture as one fold-stacked model, whose
        forward pass on one example or a list gives the K models' outputs
        along a leading fold axis.  Each tensor is held once, as a (K, ...)
        array; the models' tensors become views into it.  Rejects models
        that differ in a setting or in the path or shape of a tensor, naming
        the model's index."""
        if not models:
            raise ValueError("cannot stack zero models")
        _check_same_architecture(models)

        def each(part):
            return [getattr(m, part) for m in models]

        out = copy.copy(models[0])
        if out.encoder is not None:
            out.encoder = ToyEncoderParams.stack(each("encoder"))
        out.bank = ExpertBank.stack(each("bank"))
        if out.gate is not None:
            out.gate = LinearParams.stack(each("gate"))
        if out.fusion_proj is not None:
            out.fusion_proj = LinearParams.stack(each("fusion_proj"))
        out.classifier = LinearParams.stack(each("classifier"))
        return out

    @property
    def n_folds(self) -> int | None:
        """K for a fold-stacked model, None for one model."""
        weight = self.classifier.weight
        return weight.shape[0] if weight.ndim == 3 else None

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


def _settings(params: ModelParams) -> dict:
    return {"head": params.head, "active experts": params.active_experts,
            "max_len": params.max_len, "contrast_scale": params.bank.contrast_scale,
            "eps": params.bank.eps}


def _check_same_architecture(models) -> None:
    ref_settings = _settings(models[0])
    ref_shapes = {name: value.shape for name, value, _ in models[0].named_params()}
    for j, m in enumerate(models[1:], start=1):
        for what, value in _settings(m).items():
            if value != ref_settings[what]:
                raise ValueError(f"fold {j}: {what} is {value!r}, "
                                 f"but {ref_settings[what]!r} in fold 0")
        shapes = {name: value.shape for name, value, _ in m.named_params()}
        for name in [*ref_shapes, *(shapes.keys() - ref_shapes.keys())]:
            if shapes.get(name) != ref_shapes.get(name):
                raise ValueError(
                    f"fold {j}: parameter {name} has shape {shapes.get(name, 'none')}, "
                    f"but {ref_shapes.get(name, 'none')} in fold 0")


@dataclass
class Batch:
    """Examples as padded stacks: token ids, cue and contrast indicators, and
    the precomputed token matrices when the model has no encoder.  A list
    of B examples gives (B, T, ...) stacks; one example the same without
    the leading axis."""

    ids: Padded  # (..., T) token ids
    cue: np.ndarray  # (..., T) 0/1
    contrast: np.ndarray  # (..., T) 0/1
    H: Padded | None = None  # (..., T, d) precomputed rows

    @property
    def single(self) -> bool:
        """One example, with no leading batch axis."""
        return self.ids.data.ndim == 1


def make_batch(params: ModelParams, examples, H_overrides=None) -> Batch:
    """Stack one example or a list of them, with their precomputed (T_i, d)
    matrices (row 0 = CLS, one row per token) when given."""
    single = isinstance(examples, TokenizedExample)
    if single:
        examples = [examples]
        H_overrides = None if H_overrides is None else [H_overrides]
    for b, ex in enumerate(examples):
        _check_positions(len(ex.token_ids), ex.cue_positions, ex.contrast_positions)
        if H_overrides is not None:
            _check_rows(params, ex, H_overrides[b])
    if single:
        ids = Padded(np.asarray(examples[0].token_ids, dtype=np.intp),
                     np.intp(len(examples[0].token_ids)))
        H = None if H_overrides is None else ids.like(H_overrides[0])
    else:
        ids = Padded.stack([ex.token_ids for ex in examples], dtype=np.intp)
        H = None if H_overrides is None else ids.like(Padded.stack(H_overrides).data)
    cue = np.zeros((len(examples), ids.shape[-1]))
    contrast = np.zeros((len(examples), ids.shape[-1]))
    for b, ex in enumerate(examples):
        if ex.cue_positions:
            cue[b, list(ex.cue_positions)] = 1.0
        if ex.contrast_positions:
            contrast[b, list(ex.contrast_positions)] = 1.0
    if single:
        return Batch(ids, cue[0], contrast[0], H)
    return Batch(ids, cue, contrast, H)


def _check_rows(params: ModelParams, example: TokenizedExample, H: np.ndarray) -> None:
    if H.ndim != 2 or H.shape[1] != params.d:
        raise ValueError(
            f"precomputed embeddings have width {H.shape[-1]}, model expects {params.d}"
        )
    if H.shape[0] != len(example.token_ids):
        raise ValueError(
            f"precomputed embeddings for {example.id!r} have {H.shape[0]} rows, "
            f"but the example has {len(example.token_ids)} tokens"
        )


@dataclass
class ModelOutput:
    """Forward-pass record: final prediction plus the intermediates the
    backward pass consumes.  For a list of B examples every field has a
    leading B axis (H is the Padded stack); for one example it has none."""

    H: np.ndarray | Padded
    h_cls: np.ndarray
    expert_vectors: list[np.ndarray]  # in params.active_experts order
    gate_weights: np.ndarray
    fused: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    batch: Batch


def model_forward(params: ModelParams, examples, H_override=None) -> ModelOutput:
    """Run the whole model on one example or on a list of examples.

    ``H_override`` supplies precomputed token matrices (row 0 = CLS, one
    row per token of the example): a (T, d) matrix for one example, a list
    of them for a list; otherwise the toy encoder produces them.  A
    :class:`Batch` from :func:`make_batch` may stand in for the examples
    and their matrices, so models of the same width can share one.

    A fold-stacked model (:meth:`ModelParams.stack`) takes the same inputs
    and gives every field but ``batch`` a leading fold axis, with the K
    models' outputs: (K, ...) for one example, (K, B, ...) for a list.
    """
    batch = (examples if isinstance(examples, Batch)
             else make_batch(params, examples, H_override))
    if batch.H is None and params.encoder is None:
        raise ValueError("model has no encoder; precomputed embeddings required")
    if batch.H is None:
        H = encode(params.encoder, batch.ids).H
    elif params.n_folds:  # every fold reads the same precomputed rows
        H = batch.H.like(np.broadcast_to(batch.H.data, (params.n_folds,) + batch.H.shape))
    else:
        H = batch.H
    h_cls = H.data[..., 0, :]
    vectors = run_all_experts(params.bank, H, batch.cue, batch.contrast, params.active_experts)

    if params.head == "moe":
        g = gate_forward(params.gate, h_cls)
        fused = fuse(g, vectors)
    else:  # stacked and fusion report a uniform placeholder gate
        g = np.full(h_cls.shape[:-1] + (len(vectors),), 1.0 / len(vectors))
        if params.head == "stacked":
            fused = np.sum(vectors, axis=0)
        else:
            fused = affine(params.fusion_proj, np.concatenate(vectors, axis=-1))
    logits, probs = classify(params.classifier, fused)
    return ModelOutput(H=H.data if batch.single else H,
                       h_cls=h_cls, expert_vectors=vectors, gate_weights=g, fused=fused,
                       logits=logits, probs=probs, batch=batch)


def model_backward(params: ModelParams, examples, out: ModelOutput,
                   dlogits: np.ndarray) -> None:
    """Accumulate gradients for dL/dlogits through the whole model.

    ``examples`` and ``out`` are the input and the record of one
    :func:`model_forward` call, whose stacks the backward pass reuses.  The
    encoder receives no gradient when it is frozen or absent (precomputed
    embeddings); expert and head gradients still accumulate.  A
    fold-stacked model has no backward pass.
    """
    if params.n_folds:
        raise ValueError("a fold-stacked model is forward-only; run each fold's backward")
    batch = out.batch
    if not isinstance(examples, Batch):
        single = isinstance(examples, TokenizedExample)
        if single != batch.single or (not single and len(examples) != len(out.logits)):
            raise ValueError("the examples are not those of this forward record")
    dfused = classify_backward(params.classifier, out.fused, dlogits)

    dh_cls = None
    if params.head == "moe":
        dg, dvecs = fuse_backward(out.gate_weights, out.expert_vectors, dfused)
        dh_cls = gate_backward(params.gate, out.h_cls, out.gate_weights, dg)
    elif params.head == "stacked":
        dvecs = [dfused] * len(out.expert_vectors)
    else:  # fusion
        concat = np.concatenate(out.expert_vectors, axis=-1)
        dconcat = affine_backward(params.fusion_proj, concat, dfused)
        dvecs = np.split(dconcat, len(out.expert_vectors), axis=-1)

    H = out.H if isinstance(out.H, Padded) else batch.ids.like(out.H)
    dH = run_all_experts_backward(params.bank, H, batch.cue, batch.contrast,
                                  params.active_experts, dvecs)
    if dh_cls is not None:
        dH[..., 0, :] += dh_cls

    if params.encoder is not None and not params.freeze_encoder:
        encode_backward(params.encoder, batch.ids, dH)


def _check_positions(T: int, cue_positions, contrast_positions) -> None:
    bad = [i for i in cue_positions | contrast_positions if not 0 <= i < T]
    if bad:
        raise ValueError(f"mask positions {sorted(bad)} out of range for length {T}")
