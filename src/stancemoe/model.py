"""Whole-model assembly: parameters, end-to-end forward pass, and the
hand-derived backward pass from classifier logits down to the embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import ToyEncoderParams, encode, encode_backward
from .experts import (EXPERT_NAMES, STATISTICS, ExpertBank, Statistics, canonical_experts,
                      check_positions, indicators, row_statistics, run_all_experts,
                      run_all_experts_backward)
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


@dataclass(eq=False)
class ModelParams(ParamSet):
    """Every trainable tensor of one model.

    ``encoder`` is None in precomputed-embedding mode.  ``gate`` exists only
    for the moe head (its output width equals the number of active experts)
    and ``fusion_proj`` only for the fusion head.  Built from its settings
    alone, a model holds no array; :meth:`init` draws one to train.  A
    fold-stacked model (:meth:`stack`) holds K models of one architecture,
    each tensor with a leading fold axis.
    """

    vocab_size: int
    d: int
    max_len: int  # longest input it is built for; caps sub-batch size
    n_filters: int = 8
    contrast_scale: float = 3.0
    eps: float = 1e-8
    head: str = "moe"
    active_experts: tuple[str, ...] = EXPERT_NAMES
    encoder_mode: str = "toy"
    freeze_encoder: bool = False

    def __post_init__(self):
        if self.encoder_mode not in ENCODER_MODES:
            raise ValueError(f"unknown encoder mode {self.encoder_mode!r}")
        self.active_experts = head_experts(self.head, self.active_experts)
        d = self.d
        self.encoder = (ToyEncoderParams(self.vocab_size, d, self.max_len)
                        if self.encoder_mode == "toy" else None)
        self.bank = ExpertBank(d, self.n_filters, self.contrast_scale, self.eps)
        self.gate = LinearParams(len(self.active_experts), d) if self.head == "moe" else None
        self.fusion_proj = (LinearParams(d, len(EXPERT_NAMES) * d)
                            if self.head == "fusion" else None)
        self.classifier = LinearParams(N_CLASSES, d)

    def declare(self):
        return (("encoder", self.encoder), ("experts", self.bank), ("gate", self.gate),
                ("fusion_proj", self.fusion_proj), ("classifier", self.classifier))

    @classmethod
    def stack(cls, models) -> "ModelParams":
        """K models of one architecture as one fold-stacked model, whose
        forward pass on one example or a list gives the K models' outputs
        along a leading fold axis.  Each tensor is held once, as a (K, ...)
        array; the models' tensors become views into it, and neither the
        stack nor the models keep gradient buffers.  Rejects models
        that differ in a setting or in the path or shape of a tensor, naming
        the model's index."""
        if not models:
            raise ValueError("cannot stack zero models")
        _check_same_architecture(models)
        return fold_stack(models)

    @property
    def forward_only(self) -> bool:
        """True for a model without gradient buffers (:meth:`drop_grads`): a
        fold stack, a fold it holds, a trained fold and a loaded one."""
        return self.classifier.grad_weight is None

    @property
    def n_folds(self) -> int | None:
        """K for a fold-stacked model, None for one model."""
        weight = self.classifier.weight
        return weight.shape[0] if weight.ndim == 3 else None

    def trainable_params(self):
        """named_params minus the encoder when it is frozen, as the
        :class:`~stancemoe.ops.Region` of the flat buffers they fill."""
        return self.named_params(self.encoder if self.freeze_encoder else None)


def _settings(params: ModelParams) -> dict:
    return {"head": params.head, "active experts": params.active_experts,
            "max_len": params.max_len, "contrast_scale": params.bank.contrast_scale,
            "eps": params.bank.eps}


def _check_same_architecture(models) -> None:
    ref_settings = _settings(models[0])
    ref_shapes = models[0].shapes()
    for j, m in enumerate(models[1:], start=1):
        for what, value in _settings(m).items():
            if value != ref_settings[what]:
                raise ValueError(f"fold {j}: {what} is {value!r}, "
                                 f"but {ref_settings[what]!r} in fold 0")
        shapes = m.shapes()
        for name in [*ref_shapes, *(shapes.keys() - ref_shapes.keys())]:
            if shapes.get(name) != ref_shapes.get(name):
                raise ValueError(
                    f"fold {j}: parameter {name} has shape {shapes.get(name, 'none')}, "
                    f"but {ref_shapes.get(name, 'none')} in fold 0")


@dataclass
class Batch:
    """Examples as padded stacks: token ids on the toy encoder, the
    precomputed token matrices from a store, and cue and contrast
    indicators; from :class:`PreparedRows`, the rows' pooled statistics
    (:func:`~stancemoe.experts.row_statistics`) stand in for the masks.  A
    list of B examples gives (B, T, ...) stacks; one example the same
    without the leading axis."""

    single: bool  # one example, with no leading batch axis
    ids: Padded | None = None  # (..., T) token ids
    cue: np.ndarray | None = None  # (..., T) 0/1
    contrast: np.ndarray | None = None  # (..., T) 0/1
    H: Padded | None = None  # (..., T, d) precomputed rows
    stats: Statistics | None = None  # prepared statistics of H


def _check_inputs(params: ModelParams, examples, store) -> None:
    """There is an example, and rows come from a store exactly when the
    model has no encoder."""
    if not examples:
        raise ValueError("the list of examples is empty")
    if params.encoder is None and store is None:
        raise ValueError("model has no encoder; precomputed embeddings required")
    if params.encoder is not None and store is not None:
        raise ValueError("model has the toy encoder, which makes its own rows; a store of "
                         "precomputed rows is read only in encoder mode 'precomputed'")


def _stored_rows(params: ModelParams, examples, store) -> list:
    """Each example's rows, as ``store`` holds them, in list order.  Rejects
    what :func:`_check_example` rejects, an id the store lacks and rows of
    another width or count, naming the id."""
    rows = []
    for ex in examples:
        _check_example(ex)
        if ex.id not in store:
            raise KeyError(f"id {ex.id!r} not found in the embedding store")
        H = store[ex.id]
        if H.ndim != 2 or H.shape[1] != params.d:
            raise ValueError(f"precomputed embeddings for {ex.id!r} have width "
                             f"{H.shape[-1]}, model expects {params.d}")
        if H.shape[0] != len(ex.token_ids):
            raise ValueError(f"precomputed embeddings for {ex.id!r} have {H.shape[0]} rows, "
                             f"but the example has {len(ex.token_ids)} tokens")
        rows.append(H)
    return rows


def _check_example(ex: TokenizedExample) -> None:
    """Rejects an example with no tokens, naming it, and a mask position
    out of range."""
    if not ex.token_ids:
        raise ValueError(f"example {ex.id!r} has no tokens")
    check_positions(len(ex.token_ids), ex.cue_positions, ex.contrast_positions)


def _masks(examples, T: int, single: bool) -> tuple[np.ndarray, np.ndarray]:
    """The (B, T) 0/1 cue and contrast indicators of B examples; (T,) for
    a single one."""
    cue = indicators([ex.cue_positions for ex in examples], T)
    contrast = indicators([ex.contrast_positions for ex in examples], T)
    return (cue[0], contrast[0]) if single else (cue, contrast)


class PreparedRows:
    """A store's rows for a fixed list of examples, checked, with each
    example's statistics pooled from its own rows: what every batch of
    those examples reads, formed once, for models of the settings of
    ``params``.  Keyed by example id, as the store is; an id that repeats
    must repeat its mask positions, as its statistics are shared."""

    def __init__(self, params: ModelParams, examples, store):
        _check_inputs(params, examples, store)
        self.rows = _stored_rows(params, examples, store)
        values = {name: np.empty((len(examples), params.d))
                  for name in STATISTICS if name in params.active_experts}
        flag = np.zeros((len(examples), 1))
        self.position = {}
        for i, (ex, H) in enumerate(zip(examples, self.rows)):
            first = examples[self.position.setdefault(ex.id, i)]
            if (first.cue_positions, first.contrast_positions) != (ex.cue_positions,
                                                                   ex.contrast_positions):
                raise ValueError(f"id {ex.id!r} repeats with other mask positions")
            stats = row_statistics(params.bank, np.asarray(H, dtype=np.float64),
                                   ex.cue_positions, ex.contrast_positions, params.active_experts)
            for name, u in stats.values.items():
                values[name][i] = u
            if stats.flag is not None:
                flag[i] = stats.flag
        self.stats = Statistics(values, flag)

    def take(self, examples, single: bool = False) -> tuple[list, Statistics]:
        """The rows and statistics of ``examples``, in list order; the
        statistics without a leading axis for a ``single`` example."""
        try:
            index = [self.position[ex.id] for ex in examples]
        except KeyError as err:
            raise KeyError(f"id {err.args[0]!r} is not among the prepared examples") from None
        return [self.rows[i] for i in index], self.stats.take(index[0] if single else index)


def make_batch(params: ModelParams, examples, store=None) -> Batch:
    """Stack one example or a list of them, with each example's precomputed
    (T_i, d) rows (row 0 = CLS, one row per token) looked up by its id in
    ``store``.  Rows come from a store exactly when the model has no
    encoder: a model without one needs a store, and one with the toy
    encoder, which makes its own rows, rejects a store.  An empty list
    fails, and so does an example with no tokens, naming it.

    A plain store's rows are checked here, and :func:`model_forward` pools
    them in the padded stack; :class:`PreparedRows` did both once, and a
    batch of its examples only gathers them.  This is where stored rows become
    float64: a store read from disk holds float32 arrays
    (:func:`~stancemoe.encoder.read_embedding_store`), and each batch
    widens only the rows it looks up, which is exact."""
    single = isinstance(examples, TokenizedExample)
    if single:
        examples = [examples]
    _check_inputs(params, examples, store)
    if isinstance(store, PreparedRows):
        rows, stats = store.take(examples, single)
        return Batch(single, H=Padded.of(rows, single), stats=stats)
    if store is not None:
        H = Padded.of(_stored_rows(params, examples, store), single)
        return Batch(single, None, *_masks(examples, H.shape[-2], single), H=H)
    for ex in examples:
        _check_example(ex)
    ids = Padded.of([ex.token_ids for ex in examples], single, np.intp)
    return Batch(single, ids, *_masks(examples, ids.shape[-1], single))


@dataclass
class ModelOutput:
    """Forward-pass record: final prediction plus the intermediates the
    backward pass consumes.  For a list of B examples every field has a
    leading B axis; for one example it has none.  H is the Padded stack
    either way."""

    H: Padded
    h_cls: np.ndarray
    expert_vectors: list[np.ndarray]  # in params.active_experts order
    gate_weights: np.ndarray
    fused: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    batch: Batch
    stats: Statistics  # the pooled statistics the experts projected
    encoder_cache: tuple | None  # the encoder's forward record, if a backward reads it
    cnn_record: tuple | None  # the CNN's forward record, if a backward reads it


def model_forward(params: ModelParams, examples, store=None) -> ModelOutput:
    """Run the whole model on one example or on a list of examples.

    ``store`` maps an example id to its precomputed token matrix (row 0 =
    CLS, one row per token), which :func:`make_batch` looks up and checks,
    or is the :class:`PreparedRows` of the examples; a model without an
    encoder needs one, and the toy encoder, which produces the matrices
    itself, takes none.

    A fold-stacked model (:meth:`ModelParams.stack`) takes the same inputs
    and gives every field but ``batch`` a leading fold axis, with the K
    models' outputs: (K, ...) for one example, (K, B, ...) for a list.
    The rows are pooled into their statistics once (stored rows before the
    fold axis is added, once per example rather than once per fold), unless
    :class:`PreparedRows` pooled them.  A model that trains on stored rows
    keeps the CNN's forward record, which the backward reads instead of
    running the convolution again.
    """
    batch = make_batch(params, examples, store)
    encoder_cache, H, stats = None, batch.H, batch.stats
    if H is None:
        encoded = encode(params.encoder, batch.ids)
        H = encoded.H
        if not (params.forward_only or params.freeze_encoder):  # else no backward reads it
            encoder_cache = encoded.cache
        del encoded  # an unread record is freed before the experts run
    if stats is None:
        stats = row_statistics(params.bank, H, batch.cue, batch.contrast, params.active_experts)
    if batch.ids is None and params.n_folds:  # every fold reads the same stored rows
        H = H.like(np.broadcast_to(H.data, (params.n_folds,) + H.shape))
        stats = stats.repeat(params.n_folds)
    h_cls = H.data[..., 0, :]
    record = {} if batch.ids is None and not params.forward_only else None
    vectors = run_all_experts(params.bank, H, batch.cue, batch.contrast, params.active_experts,
                              stats, record)

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
    return ModelOutput(H=H, h_cls=h_cls, expert_vectors=vectors, gate_weights=g, fused=fused,
                       logits=logits, probs=probs, batch=batch, stats=stats,
                       encoder_cache=encoder_cache,
                       cnn_record=record.get("cnn") if record else None)


def model_backward(params: ModelParams, examples, out: ModelOutput,
                   dlogits: np.ndarray) -> None:
    """Accumulate gradients for dL/dlogits through the whole model.

    ``examples`` and ``out`` are the input and the record of one
    :func:`model_forward` call, whose stacks, statistics and records the
    backward pass reuses.  The encoder receives no gradient when it is frozen or
    absent (precomputed embeddings), and no dL/dH is formed then; expert
    and head gradients still accumulate.  A forward-only model
    (:attr:`ModelParams.forward_only`) has no backward pass.
    """
    if params.forward_only:
        raise ValueError("this model is forward-only: it keeps no gradient buffers")
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

    train_encoder = params.encoder is not None and not params.freeze_encoder
    dH = run_all_experts_backward(params.bank, out.H, batch.cue, batch.contrast,
                                  params.active_experts, dvecs, input_grad=train_encoder,
                                  stats=out.stats, cnn_record=out.cnn_record)
    if train_encoder:
        if dh_cls is not None:
            dH[..., 0, :] += dh_cls
        encode_backward(params.encoder, batch.ids, dH, out.encoder_cache)

