"""SMCK1 model checkpoints: one binary file holding the config echo, the
vocabulary, both lexicons, fold weights, and every parameter tensor of
every fold, keyed by parameter path.

Layout, little-endian:
    magic "SMCK1\\0" | u32 metadata length | metadata JSON (UTF-8)
    u32 tensor count | records
Each record: u16 key length | key (UTF-8, "fold<j>/<param path>") |
u8 ndim | ndim * u32 dims | float64 values, row-major, all finite.
The bounded reads and checks this layout shares with the SMEB1 store are
in :mod:`.binfile`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .binfile import U8, U32, Reader, write_key
from .metrics import macro_metrics
from .text import CueLexicon, Vocab
from .train import EnsembleModel, FoldArtifact, TrainConfig

CHECKPOINT_MAGIC = b"SMCK1\0"
CHECKPOINT_FORMAT = 1  # the metadata "format" value this module writes and reads
METADATA_KEYS = ("config", "vocab", "cue_tokens", "contrast_tokens", "weights",
                 "fold_val_metrics")  # read by load_checkpoint, besides "format"
_VALUES = np.dtype("<f8")  # every tensor value


class CheckpointFormatError(ValueError):
    """The checkpoint file is corrupt or has the wrong magic."""


@dataclass
class LoadedCheckpoint:
    ensemble: EnsembleModel
    config: TrainConfig
    vocab: Vocab
    lexicon: CueLexicon


def save_checkpoint(path, ensemble: EnsembleModel, config: TrainConfig,
                    vocab: Vocab, lexicon: CueLexicon) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": config.to_dict(),
        "vocab": vocab.tail,
        "cue_tokens": sorted(lexicon.cue_tokens),
        "contrast_tokens": sorted(lexicon.contrast_tokens),
        "weights": [float(w) for w in ensemble.weights],
        "fold_val_metrics": [a.val_metrics.to_dict() for a in ensemble.folds],
    }
    records = []
    for j, art in enumerate(ensemble.folds):
        for name, value, _ in art.params.named_params():
            if not np.isfinite(value).all():
                raise ValueError(f"tensor 'fold{j}/{name}' holds a non-finite value")
            records.append((f"fold{j}/{name}", value))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        write_key(fh, json.dumps(meta, sort_keys=True), U32)
        fh.write(U32.pack(len(records)))
        for key, value in records:
            write_key(fh, key)
            fh.write(struct.pack(f"<B{value.ndim}I", value.ndim, *value.shape))
            fh.write(np.ascontiguousarray(value, dtype=_VALUES).tobytes())


def load_checkpoint(path) -> LoadedCheckpoint:
    r = Reader(path, CHECKPOINT_MAGIC, CheckpointFormatError, "checkpoint")
    meta_text = r.key("metadata", U32)
    try:
        meta = json.loads(meta_text)
    except json.JSONDecodeError as err:
        r.fail(f"metadata is not valid JSON: {err}")
    if not isinstance(meta, dict):
        r.fail(f"metadata is a JSON {type(meta).__name__}, not an object")
    if meta.get("format") != CHECKPOINT_FORMAT:
        r.fail(f"unsupported checkpoint format {meta.get('format')!r}; "
               f"expected {CHECKPOINT_FORMAT}")
    missing = [key for key in METADATA_KEYS if key not in meta]
    if missing:
        r.fail(f"metadata is missing key(s) {missing}")
    (n_records,) = r.unpack(U32, "tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        key = r.key("tensor key")
        if key in tensors:
            r.fail(f"duplicate tensor {key!r}")
        (ndim,) = r.unpack(U8, "tensor rank")
        dims = r.unpack(struct.Struct(f"<{ndim}I"), "tensor shape")
        tensors[key] = r.array(_VALUES, dims, "tensor {!r}", key)
    r.finish(f"{n_records} tensors")

    try:
        config = TrainConfig.from_dict(meta["config"])
        vocab = Vocab(meta["vocab"])
        lexicon = CueLexicon(
            cue_tokens=frozenset(meta["cue_tokens"]),
            contrast_tokens=frozenset(meta["contrast_tokens"]),
        )
        weights = np.asarray(meta["weights"], dtype=np.float64)
        # every stored score is a function of the fold's confusion matrix
        reports = [macro_metrics(d["confusion"]) for d in meta["fold_val_metrics"]]
    except KeyError as err:
        r.fail(f"malformed metadata: missing key {err}")
    except (TypeError, ValueError) as err:
        r.fail(f"malformed metadata: {err}")
    folds = []
    for j, report in enumerate(reports):
        params = config.build_model(len(vocab), np.random.default_rng(0))
        for name, value, _ in params.named_params():
            key = f"fold{j}/{name}"
            if key not in tensors:
                r.fail(f"checkpoint is missing tensor {key!r}")
            stored = tensors.pop(key)
            if stored.shape != value.shape:
                r.fail(f"tensor {key!r} has shape {stored.shape}, expected {value.shape}")
            value[:] = stored
        folds.append(FoldArtifact(fold_index=j, params=params, val_metrics=report))
    if tensors:
        r.fail(f"tensor {next(iter(tensors))!r} is not a parameter of any fold")
    if len(folds) != len(weights):
        r.fail("fold count and weight count disagree")
    try:
        ensemble = EnsembleModel(folds=folds, weights=weights)
    except ValueError as err:
        r.fail(str(err))
    return LoadedCheckpoint(ensemble=ensemble, config=config, vocab=vocab,
                            lexicon=lexicon)
