"""SMCK1 model checkpoints: one binary file holding the config echo, the
vocabulary, both lexicons, fold weights, and every parameter tensor of
every fold, keyed by parameter path.

Layout, little-endian:
    magic "SMCK1\\0" | u32 metadata length | metadata JSON (UTF-8)
    u32 tensor count | records
Each record: u16 key length | key (UTF-8, "fold<j>/<param path>") |
u8 ndim | ndim * u32 dims | float64 values, row-major.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .metrics import MetricsReport
from .text import CueLexicon, Vocab
from .train import EnsembleModel, FoldArtifact, TrainConfig

CHECKPOINT_MAGIC = b"SMCK1\0"
CHECKPOINT_FORMAT = 1  # the metadata "format" value this module writes and reads
METADATA_KEYS = ("config", "vocab", "cue_tokens", "contrast_tokens", "weights",
                 "fold_val_metrics")  # read by load_checkpoint, besides "format"


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
            records.append((f"fold{j}/{name}", value))
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(records)))
        for key, value in records:
            raw = key.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str, end: int | None = None) -> bytes:
    """Read n bytes.  Given the file size ``end``, a size field that claims
    more than the file holds fails before the read allocates it."""
    if end is not None and n > end - fh.tell():
        raise CheckpointFormatError(f"{fh.name}: truncated checkpoint while reading {what}: "
                                    f"{n} bytes declared, {end - fh.tell()} left")
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointFormatError(f"{fh.name}: truncated checkpoint while reading {what}")
    return buf


def _read_utf8(fh, n: int, what: str, end: int | None = None) -> str:
    try:
        return _read_exact(fh, n, what, end).decode("utf-8")
    except UnicodeDecodeError as err:
        raise CheckpointFormatError(f"{fh.name}: {what} is not valid UTF-8: {err}") from err


def load_checkpoint(path) -> LoadedCheckpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {magic!r}; not an SMCK1 checkpoint")
        end = os.fstat(fh.fileno()).st_size
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "header"))
        meta_text = _read_utf8(fh, meta_len, "metadata", end)
        try:
            meta = json.loads(meta_text)
        except json.JSONDecodeError as err:
            raise CheckpointFormatError(f"{path}: metadata is not valid JSON: {err}") from err
        if not isinstance(meta, dict):
            raise CheckpointFormatError(
                f"{path}: metadata is a JSON {type(meta).__name__}, not an object")
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointFormatError(
                f"{path}: unsupported checkpoint format {meta.get('format')!r}; "
                f"expected {CHECKPOINT_FORMAT}"
            )
        missing = [key for key in METADATA_KEYS if key not in meta]
        if missing:
            raise CheckpointFormatError(f"{path}: metadata is missing key(s) {missing}")
        (n_records,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_records):
            (key_len,) = struct.unpack("<H", _read_exact(fh, 2, "tensor key length"))
            key = _read_utf8(fh, key_len, "tensor key")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "tensor rank"))
            dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "tensor shape"))
            raw = _read_exact(fh, 8 * math.prod(dims), f"tensor {key!r} payload", end)
            tensors[key] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
        if fh.read(1):
            raise CheckpointFormatError(
                f"{path}: trailing bytes after the last of {n_records} tensors")

    try:
        config = TrainConfig.from_dict(meta["config"])
        vocab = Vocab(meta["vocab"])
        lexicon = CueLexicon(
            cue_tokens=frozenset(meta["cue_tokens"]),
            contrast_tokens=frozenset(meta["contrast_tokens"]),
        )
        weights = np.asarray(meta["weights"], dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise CheckpointFormatError(f"{path}: malformed metadata: {err}") from err
    folds = []
    for j, metrics_dict in enumerate(meta["fold_val_metrics"]):
        params = config.build_model(len(vocab), np.random.default_rng(0))
        for name, value, _ in params.named_params():
            key = f"fold{j}/{name}"
            if key not in tensors:
                raise CheckpointFormatError(f"{path}: checkpoint is missing tensor {key!r}")
            stored = tensors[key]
            if stored.shape != value.shape:
                raise CheckpointFormatError(
                    f"{path}: tensor {key!r} has shape {stored.shape}, expected {value.shape}"
                )
            value[:] = stored
        report = MetricsReport.from_dict(metrics_dict)
        folds.append(FoldArtifact(fold_index=j, params=params, val_metrics=report))
    if len(folds) != len(weights):
        raise CheckpointFormatError(f"{path}: fold count and weight count disagree")
    try:
        ensemble = EnsembleModel(folds=folds, weights=weights)
    except ValueError as err:
        raise CheckpointFormatError(f"{path}: {err}") from err
    return LoadedCheckpoint(ensemble=ensemble, config=config, vocab=vocab,
                            lexicon=lexicon)
