"""Contextual token encoder and the SMEB1 precomputed-embedding store.

The trainable toy encoder maps token ids to (embedding + fixed sinusoidal
position) vectors and mixes them with a single scaled dot-product
self-attention layer, producing a (T, d) matrix H whose row 0 is the
sequence-level CLS representation.  A Padded stack of id sequences is
encoded in one pass, with padded keys masked out of the attention.  The
output keeps the forward record that the backward pass reads.  The
SMEB1 store lets externally produced embeddings drive the classification
head instead; this module holds its layout, and :mod:`.binfile` the
bounded reads and checks it shares with the SMCK1 checkpoint.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .binfile import U32, Reader, write_key
from .ops import (LinearParams, Padded, ParamSet, Tensor, affine, affine_backward, softmax,
                  softmax_backward)
from .text import UNK_ID


@dataclass
class EncoderOutput:
    H: np.ndarray | Padded  # (T, d) rows of one sequence, or a Padded stack of them
    cache: tuple  # (X, Q, K, V, A), the intermediates encode_backward reads


@lru_cache(maxsize=None)
def sinusoidal_positions(max_len: int, d: int) -> np.ndarray:
    """Fixed sin/cos position table of shape (max_len, d).

    Scaled by 1/sqrt(d) so position rows have the same magnitude as the
    uniform(-1/sqrt(d), 1/sqrt(d)) token embeddings they are added to.
    The table is built once per (max_len, d) and is read-only, so every
    encoder of that shape, each fold's included, shares it.
    """
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.empty((max_len, d))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    table /= np.sqrt(d)
    table.flags.writeable = False
    return table


@dataclass(eq=False)
class ToyEncoderParams(ParamSet):
    """Embedding table and one attention layer, with the fixed position
    table, which is no parameter: every encoder of one shape, each fold's
    included, shares it."""

    vocab_size: int
    d: int
    max_len: int

    def __post_init__(self):
        self.query, self.key, self.value = (LinearParams(self.d, self.d) for _ in range(3))

    @property
    def positions(self) -> np.ndarray:
        return sinusoidal_positions(self.max_len, self.d)  # (max_len, d)

    def declare(self):
        # rows drawn uniform(-sqrt(3/d), sqrt(3/d)) have unit expected
        # squared norm, keeping token identity visible next to positions
        return (Tensor("embedding", (self.vocab_size, self.d), math.sqrt(3.0 / self.d)),
                ("query", self.query), ("key", self.key), ("value", self.value))


def _id_stack(token_ids) -> Padded:
    """The ids as a Padded stack (:meth:`~stancemoe.ops.Padded.one`);
    rejects an empty sequence."""
    ids = Padded.one(token_ids, np.intp)
    if not ids.data.size:
        raise ValueError("cannot encode an empty sequence")
    return ids


def _clip_ids(params: ToyEncoderParams, token_ids) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.intp)
    return np.where((ids >= 0) & (ids < params.vocab_size), ids, UNK_ID)


def embed_sequence(params: ToyEncoderParams, token_ids) -> np.ndarray:
    """Pre-attention input rows: embedding lookup plus position row.

    A sequence of T ids gives (T, d); a Padded id stack gives its shape
    plus d, with zero rows on padding.  A fold-stacked encoder puts its
    fold axis first.  Out-of-vocabulary ids become UNK.
    """
    ids = Padded.one(token_ids, np.intp)
    T = ids.shape[-1]
    if T > params.max_len:
        raise ValueError(f"sequence length {T} exceeds position table size {params.max_len}")
    X = np.take(params.embedding, _clip_ids(params, ids.data), axis=-2) + params.positions[:T]
    if ids.ragged:
        X *= ids.valid[..., None]
    return X


def _attend(params: ToyEncoderParams, ids: Padded) -> tuple:
    """The forward record (X, Q, K, V, A): input rows, their query, key and
    value projections, and the attention weights."""
    X = embed_sequence(params, ids)
    Q = affine(params.query, X)
    K = affine(params.key, X)
    V = affine(params.value, X)
    S = Q @ K.swapaxes(-1, -2)
    S /= np.sqrt(params.d)
    A = softmax(S + ids.fill[..., None, :] if ids.ragged else S)  # padded keys get no weight
    return X, Q, K, V, A


def encode(params: ToyEncoderParams, token_ids) -> EncoderOutput:
    """Contextualize token ids: a sequence of T ids gives a (T, d) H; a
    Padded (B, T) id stack gives a Padded (B, T, d) H, zero on padding."""
    ids = _id_stack(token_ids)
    cache = _attend(params, ids)
    _, _, _, V, A = cache
    H = A @ V
    if ids.ragged:
        H *= ids.valid[..., None]
    return EncoderOutput(H=ids.like(H) if isinstance(token_ids, Padded) else H, cache=cache)


def encode_backward(params: ToyEncoderParams, token_ids, dH: np.ndarray,
                    cache: tuple | None = None) -> None:
    """Accumulate encoder gradients for dL/dH (CLS gradient folded into row 0),
    shaped like the H that :func:`encode` returned for these ids.  ``cache``
    is that call's :attr:`EncoderOutput.cache`; without it the forward pass
    runs first."""
    ids = _id_stack(token_ids)
    X, Q, K, V, A = cache if cache is not None else _attend(params, ids)
    scale = 1.0 / np.sqrt(params.d)

    if ids.ragged:
        dH = dH * ids.valid[..., None]
    dV = A.swapaxes(-1, -2) @ dH
    dS = softmax_backward(A, dH @ V.swapaxes(-1, -2))
    # each gradient is consumed as soon as it exists, which keeps the peak
    # memory of a (B, T, d) stack low
    dX = affine_backward(params.query, X, (dS @ K) * scale)
    dX += affine_backward(params.key, X, (dS.swapaxes(-1, -2) @ Q) * scale)
    dX += affine_backward(params.value, X, dV)
    # one sum per distinct id: a stable sort keeps each id's rows in order
    rows = _clip_ids(params, ids.data).ravel()
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    params.grad_embedding[rows[starts]] += np.add.reduceat(
        dX.reshape(-1, params.d)[order], starts, axis=0)


# --- SMEB1 precomputed-embedding store ---------------------------------
#
# Binary layout, little-endian:
#   magic "SMEB1\0" | u32 d | u32 record count
#   per record: u16 id length | id (UTF-8) | u32 T | T*d float32, row-major
# Ids are distinct.  Row 0 of each record is the CLS representation, so
# T is at least 1.  Values are finite float32 on disk; a loaded record is
# a read-only float32 array of its own, widened to float64 by make_batch.

STORE_MAGIC = b"SMEB1\0"
_HEADER = struct.Struct("<II")  # d, record count
_ROW = np.dtype("<f4")


class StoreFormatError(ValueError):
    """The embedding store file is corrupt or has the wrong magic."""


def write_embedding_store(path, records) -> int:
    """Write (id, H) pairs; returns the number of records written.

    Ids must be distinct, and each ``H`` a (T, d) matrix with at least its
    CLS row, all of one feature dimension d, whose values are finite once
    stored as little-endian float32.
    """
    records = list(records)
    if not records:
        raise ValueError("refusing to write an empty embedding store")
    # every record is checked before the file is opened, so a rejected
    # store leaves no partial file behind
    first = np.shape(records[0][1])
    d = first[1] if len(first) == 2 else None  # a first record that is not 2-d fails below
    stored = {}
    for example_id, H in records:
        shape = np.shape(H)
        if len(shape) != 2 or shape[1] != d or shape[0] == 0:
            raise ValueError(f"record {example_id!r} has shape {shape}, "
                             f"expected (T, {d or 'd'}) with T >= 1")
        if example_id in stored:
            raise ValueError(f"duplicate record id {example_id!r}")
        if len(example_id.encode("utf-8")) > 0xFFFF:
            raise ValueError(f"record id too long: {example_id!r}")
        with np.errstate(over="ignore"):  # a value beyond float32's range fails below
            H32 = np.ascontiguousarray(H, dtype="<f4")
        if not np.isfinite(H32).all():
            raise ValueError(f"record {example_id!r} holds a non-finite value as float32")
        stored[example_id] = H32
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(_HEADER.pack(d, len(stored)))
        for example_id, H32 in stored.items():
            write_key(fh, example_id)
            fh.write(U32.pack(len(H32)))
            fh.write(H32.tobytes())
    return len(stored)


def read_embedding_store(path) -> tuple[dict[str, np.ndarray], int]:
    """Load a whole SMEB1 file; returns ({id: (T, d) H}, d).

    Records are streamed from the open file one field at a time, and each
    H is read straight into a read-only, aligned float32 array of its own,
    so the store takes about the file's size in memory, as many separate
    arrays, and no copy of the whole file is ever held.
    :func:`~stancemoe.model.make_batch` widens the rows it looks up to
    float64, which is exact.
    """
    r = Reader(path, STORE_MAGIC, StoreFormatError, "embedding store")
    d, count = r.unpack(_HEADER, "header")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        example_id = r.key("record id")
        if example_id in out:
            r.fail(f"duplicate record id {example_id!r}")
        (T,) = r.unpack(U32, "record length")
        if T == 0:
            r.fail(f"record {example_id!r} has no rows; row 0 must be the CLS row")
        out[example_id] = r.array(_ROW, (T, d), "record {!r}", example_id)
    r.finish(f"{count} records")
    return out, d
