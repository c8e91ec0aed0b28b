"""Whole-model assembly: parameters, end-to-end forward pass, and the
hand-derived backward pass from classifier logits down to the embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import ToyEncoderParams, encode, encode_backward
from .experts import (EXPERT_NAMES, ExpertBank, canonical_experts, check_positions,
                      run_all_experts, run_all_experts_backward)
from .head import (
    classify,
    classify_backward,
    fuse,
    fuse_backward,
    gate_backward,
    gate_forward,
)
from .ops import LinearParams, Padded, ParamSet, affine, affine_backward, fold_stack
from .text import N_CLASSES, TokenizedExample

HEAD_KINDS = ("moe", "stacked", "fusion")
ENCODER_MODES = ("toy", "precomputed")


def head_experts(head: str, active_experts) -> tuple[str, ...]:
    """The active expert names in canonical order (:func:`canonical_experts`)
    for a head of kind ``head``.  Rejects a head not in HEAD_KINDS, and a
    stacked or fusion head without all six experts."""
    if head not in HEAD_KINDS:
        raise ValueError(f"head must be one of {HEAD_KINDS}, got {head!r}")
    active = canonical_experts(active_experts)
    if head != "moe" and active != EXPERT_NAMES:
        raise ValueError(f"the {head} head requires all six experts active")
    return active


class ModelParams(ParamSet):
    """Every trainable tensor of one model, with paired gradient buffers.

    ``encoder`` is None in precomputed-embedding mode.  ``gate`` exists only
    for the moe head (its output width equals the number of active experts)
    and ``fusion_proj`` only for the fusion head.  A fold-stacked model
    (:meth:`stack`) holds K models of one architecture, each tensor with a
    leading fold axis.
    """

    PARTS = ("encoder", "bank", "gate", "fusion_proj", "classifier")

    def __init__(self, d, active_experts, head, encoder, bank, gate, fusion_proj,
                 classifier, freeze_encoder=False, max_len=128):
        self.d = d
        self.max_len = max_len  # longest input it is built for; caps sub-batch size
        self.active_experts = head_experts(head, active_experts)
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
        active = head_experts(head, active_experts)
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
        return fold_stack(models)

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
        for name in ("gate", "fusion_proj", "classifier"):
            if getattr(self, name) is not None:
                yield from getattr(self, name).named_params(name)

    def trainable_params(self):
        """named_params minus the encoder when it is frozen."""
        for triple in self.named_params():
            if self.freeze_encoder and triple[0].startswith("encoder/"):
                continue
            yield triple


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


def make_batch(params: ModelParams, examples, store=None) -> Batch:
    """Stack one example or a list of them, with each example's precomputed
    (T_i, d) rows (row 0 = CLS, one row per token) looked up by its id in
    ``store``.  Rows come from a store exactly when the model has no
    encoder: a model without one needs a store, and one with the toy
    encoder, which makes its own rows, rejects a store.

    This is where stored rows become float64: a store read from disk holds
    float32 views of the file (:func:`~stancemoe.encoder.read_embedding_store`),
    and each batch widens only the rows it looks up, which is exact."""
    if params.encoder is None and store is None:
        raise ValueError("model has no encoder; precomputed embeddings required")
    if params.encoder is not None and store is not None:
        raise ValueError("model has the toy encoder, which makes its own rows; a store of "
                         "precomputed rows is read only in encoder mode 'precomputed'")
    single = isinstance(examples, TokenizedExample)
    if single:
        examples = [examples]
    rows = None if store is None else []
    for ex in examples:
        check_positions(len(ex.token_ids), ex.cue_positions, ex.contrast_positions)
        if store is not None:
            if ex.id not in store:
                raise KeyError(f"id {ex.id!r} not found in the embedding store")
            rows.append(store[ex.id])
            _check_rows(params, ex, rows[-1])
    if single:
        ids = Padded(np.asarray(examples[0].token_ids, dtype=np.intp),
                     np.intp(len(examples[0].token_ids)))
        H = None if rows is None else ids.like(np.asarray(rows[0], dtype=np.float64))
    else:
        ids = Padded.stack([ex.token_ids for ex in examples], dtype=np.intp)
        H = None if rows is None else ids.like(ids.pad(rows))
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
    encoder_cache: tuple | None  # the encoder's forward record, if a backward reads it


def model_forward(params: ModelParams, examples, store=None) -> ModelOutput:
    """Run the whole model on one example or on a list of examples.

    ``store`` maps an example id to its precomputed token matrix (row 0 =
    CLS, one row per token), which :func:`make_batch` looks up and checks;
    a model without an encoder needs one, and the toy encoder, which
    produces the matrices itself, takes none.

    A fold-stacked model (:meth:`ModelParams.stack`) takes the same inputs
    and gives every field but ``batch`` a leading fold axis, with the K
    models' outputs: (K, ...) for one example, (K, B, ...) for a list.
    """
    batch = make_batch(params, examples, store)
    encoder_cache = None
    if batch.H is None:
        encoded = encode(params.encoder, batch.ids)
        H = encoded.H
        if not (params.n_folds or params.freeze_encoder):  # else no backward reads it
            encoder_cache = encoded.cache
        del encoded  # an unread record is freed before the experts run
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
                       logits=logits, probs=probs, batch=batch,
                       encoder_cache=encoder_cache)


def model_backward(params: ModelParams, examples, out: ModelOutput,
                   dlogits: np.ndarray) -> None:
    """Accumulate gradients for dL/dlogits through the whole model.

    ``examples`` and ``out`` are the input and the record of one
    :func:`model_forward` call, whose stacks and encoder record the backward
    pass reuses.  The encoder receives no gradient when it is frozen or
    absent (precomputed embeddings), and no dL/dH is formed then; expert
    and head gradients still accumulate.  A fold-stacked model has no
    backward pass.
    """
    if params.n_folds:
        raise ValueError("a fold-stacked model is forward-only; run each fold's backward")
    batch = out.batch
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
    train_encoder = params.encoder is not None and not params.freeze_encoder
    dH = run_all_experts_backward(params.bank, H, batch.cue, batch.contrast,
                                  params.active_experts, dvecs, input_grad=train_encoder)
    if train_encoder:
        if dh_cls is not None:
            dH[..., 0, :] += dh_cls
        encode_backward(params.encoder, batch.ids, dH, out.encoder_cache)

