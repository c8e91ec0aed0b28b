"""Contextual token encoder and the SMEB1 precomputed-embedding store.

The trainable toy encoder maps token ids to (embedding + fixed sinusoidal
position) vectors and mixes them with a single scaled dot-product
self-attention layer, producing a (T, d) matrix H whose row 0 is the
sequence-level CLS representation.  A Padded stack of id sequences is
encoded in one pass, with padded keys masked out of the attention.  The
SMEB1 store lets externally produced embeddings drive the classification
head instead.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .ops import (LinearParams, Padded, affine, affine_backward, as_f64, fold_stack,
                  softmax, softmax_backward)
from .text import UNK_ID


@dataclass
class EncoderOutput:
    H: np.ndarray | Padded  # (T, d) rows of one sequence, or a Padded stack of them
    h_cls: np.ndarray  # row 0 of each sequence: (d,), or (B, d) for a stack


def sinusoidal_positions(max_len: int, d: int) -> np.ndarray:
    """Fixed sin/cos position table of shape (max_len, d).

    Scaled by 1/sqrt(d) so position rows have the same magnitude as the
    uniform(-1/sqrt(d), 1/sqrt(d)) token embeddings they are added to.
    """
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.empty((max_len, d))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table / np.sqrt(d)


class ToyEncoderParams:
    """Embedding table, fixed position table, and one attention layer."""

    def __init__(self, embedding, positions, query, key, value):
        self.embedding = as_f64(embedding)  # (|V|, d)
        self.positions = as_f64(positions)  # (max_len, d), not trainable
        self.query = query
        self.key = key
        self.value = value
        self.grad_embedding = np.zeros_like(self.embedding)

    @classmethod
    def init(cls, vocab_size: int, d: int, max_len: int, rng: np.random.Generator):
        # rows drawn uniform(-sqrt(3/d), sqrt(3/d)) have unit expected
        # squared norm, keeping token identity visible next to positions
        limit = np.sqrt(3.0 / d)
        return cls(
            embedding=rng.uniform(-limit, limit, size=(vocab_size, d)),
            positions=sinusoidal_positions(max_len, d),
            query=LinearParams.init(d, d, rng),
            key=LinearParams.init(d, d, rng),
            value=LinearParams.init(d, d, rng),
        )

    @classmethod
    def stack(cls, parts) -> "ToyEncoderParams":
        """K encoders of one shape as one fold-stacked encoder (see
        :func:`stancemoe.ops.fold_stack`); the fixed position table is
        shared."""
        out = fold_stack(parts, {"embedding": "grad_embedding"})
        for name in ("query", "key", "value"):
            setattr(out, name, LinearParams.stack([getattr(p, name) for p in parts]))
        return out

    @property
    def d(self) -> int:
        return self.embedding.shape[-1]

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[-2]

    def named_params(self, prefix: str = "encoder"):
        yield f"{prefix}/embedding", self.embedding, self.grad_embedding
        for name, lin in (("query", self.query), ("key", self.key), ("value", self.value)):
            yield f"{prefix}/{name}/weight", lin.weight, lin.grad_weight
            yield f"{prefix}/{name}/bias", lin.bias, lin.grad_bias

    def zero_grads(self) -> None:
        for _, _, grad in self.named_params():
            grad[:] = 0.0


def _id_stack(token_ids) -> Padded:
    """The ids as a Padded stack: one sequence of T ids is data (T,) with a
    0-d length; a Padded (B, T) stack passes through."""
    if isinstance(token_ids, Padded):
        return token_ids
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.size == 0:
        raise ValueError("cannot encode an empty sequence")
    return Padded(ids, np.intp(ids.size))


def _clip_ids(params: ToyEncoderParams, token_ids) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.intp)
    return np.where((ids >= 0) & (ids < params.vocab_size), ids, UNK_ID)


def embed_sequence(params: ToyEncoderParams, token_ids) -> np.ndarray:
    """Pre-attention input rows: embedding lookup plus position row.

    A sequence of T ids gives (T, d); a Padded id stack gives its shape
    plus d, with zero rows on padding.  A fold-stacked encoder puts its
    fold axis first.  Out-of-vocabulary ids become UNK.
    """
    padded = isinstance(token_ids, Padded)
    ids = _clip_ids(params, token_ids.data if padded else token_ids)
    T = ids.shape[-1]
    if T > params.positions.shape[0]:
        raise ValueError(
            f"sequence length {T} exceeds position table size {params.positions.shape[0]}"
        )
    X = np.take(params.embedding, ids, axis=-2) + params.positions[:T]
    if padded and token_ids.ragged:
        X *= token_ids.valid[..., None]
    return X


def _attend(params: ToyEncoderParams, X: np.ndarray, ids: Padded):
    Q = affine(params.query, X)
    K = affine(params.key, X)
    V = affine(params.value, X)
    S = Q @ K.swapaxes(-1, -2)
    S /= np.sqrt(params.d)
    A = softmax(S + ids.fill[..., None, :] if ids.ragged else S)  # padded keys get no weight
    return Q, K, V, A


def encode(params: ToyEncoderParams, token_ids) -> EncoderOutput:
    """Contextualize token ids: a sequence of T ids gives a (T, d) H; a
    Padded (B, T) id stack gives a Padded (B, T, d) H, zero on padding."""
    ids = _id_stack(token_ids)
    X = embed_sequence(params, ids)
    _, _, V, A = _attend(params, X, ids)
    H = A @ V
    if ids.ragged:
        H *= ids.valid[..., None]
    return EncoderOutput(H=ids.like(H) if isinstance(token_ids, Padded) else H,
                         h_cls=H[..., 0, :])


def encode_backward(params: ToyEncoderParams, token_ids, dH: np.ndarray) -> None:
    """Accumulate encoder gradients for dL/dH (CLS gradient folded into row 0),
    shaped like the H that :func:`encode` returned for these ids."""
    ids = _id_stack(token_ids)
    X = embed_sequence(params, ids)
    Q, K, V, A = _attend(params, X, ids)
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
    np.add.at(params.grad_embedding, _clip_ids(params, ids.data).ravel(),
              dX.reshape(-1, params.d))


# --- SMEB1 precomputed-embedding store ---------------------------------
#
# Binary layout, little-endian:
#   magic "SMEB1\0" | u32 d | u32 record count
#   per record: u16 id length | id (UTF-8) | u32 T | T*d float32, row-major
# Row 0 of each record is the CLS representation.  Values are float32 on
# disk and widened to float64 on load.

STORE_MAGIC = b"SMEB1\0"


class StoreFormatError(ValueError):
    """The embedding store file is corrupt or has the wrong magic."""


def write_embedding_store(path, records) -> int:
    """Write (id, H) pairs; returns the number of records written.

    ``H`` arrays must share one feature dimension d; they are stored as
    float32.
    """
    records = list(records)
    if not records:
        raise ValueError("refusing to write an empty embedding store")
    d = int(np.asarray(records[0][1]).shape[1])
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC)
        fh.write(struct.pack("<II", d, len(records)))
        for example_id, H in records:
            H = np.asarray(H, dtype=np.float32)
            if H.ndim != 2 or H.shape[1] != d:
                raise ValueError(
                    f"record {example_id!r} has shape {H.shape}, expected (T, {d})"
                )
            raw = example_id.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError(f"record id too long: {example_id!r}")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", H.shape[0]))
            fh.write(np.ascontiguousarray(H).tobytes())
    return len(records)


def _read_exact(fh, n: int, what: str, end: int | None = None) -> bytes:
    """Read n bytes.  Given the file size ``end``, a size field that claims
    more than the file holds fails before the read allocates it."""
    if end is not None and n > end - fh.tell():
        raise StoreFormatError(f"{fh.name}: truncated embedding store while reading {what}: "
                               f"{n} bytes declared, {end - fh.tell()} left")
    buf = fh.read(n)
    if len(buf) != n:
        raise StoreFormatError(f"{fh.name}: truncated embedding store while reading {what}")
    return buf


def _read_utf8(fh, n: int, what: str) -> str:
    try:
        return _read_exact(fh, n, what).decode("utf-8")
    except UnicodeDecodeError as err:
        raise StoreFormatError(f"{fh.name}: {what} is not valid UTF-8: {err}") from err


def read_embedding_store(path) -> tuple[dict[str, np.ndarray], int]:
    """Load a whole SMEB1 file; returns ({id: (T, d) float64 H}, d)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(STORE_MAGIC))
        if magic != STORE_MAGIC:
            raise StoreFormatError(f"{path}: bad magic {magic!r}; not an SMEB1 embedding store")
        d, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        end = os.fstat(fh.fileno()).st_size
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (id_len,) = struct.unpack("<H", _read_exact(fh, 2, "record id length"))
            example_id = _read_utf8(fh, id_len, "record id")
            (T,) = struct.unpack("<I", _read_exact(fh, 4, "record length"))
            raw = _read_exact(fh, 4 * T * d, f"record {example_id!r} payload", end)
            H32 = np.frombuffer(raw, dtype="<f4").reshape(T, d)
            if example_id in out:
                raise StoreFormatError(f"{path}: duplicate record id {example_id!r}")
            out[example_id] = H32.astype(np.float64)
        if fh.read(1):
            raise StoreFormatError(f"{path}: trailing bytes after the last of {count} records")
    return out, d
