"""The binary mechanics shared by the SMEB1 embedding store and the SMCK1
checkpoint, whose own modules keep only their layouts.

Both formats are little-endian: a magic, then fields whose sizes the file
declares.  A :class:`Reader` reads the whole file once and walks the bytes
by offset.  It bounds every field by the bytes left, so a size that claims
more than the file holds fails before anything is allocated; it decodes
length-prefixed UTF-8 keys, hands out arrays as read-only views of the
file's bytes, refuses non-finite values and trailing bytes, and raises
the format's error naming the file.
"""

from __future__ import annotations

import math
import struct
from typing import NoReturn

import numpy as np

U8 = struct.Struct("<B")
U16 = struct.Struct("<H")
U32 = struct.Struct("<I")


def write_key(fh, key: str, size: struct.Struct = U16) -> None:
    """Write ``key`` as :meth:`Reader.key` reads it: its UTF-8 byte length
    as the field ``size``, then the bytes."""
    raw = key.encode("utf-8")
    fh.write(size.pack(len(raw)) + raw)


class Reader:
    """The bytes of the file at ``path``, read in one call, and the offset
    of the next field: ``magic`` starts the file, ``error`` is its format's
    error class and ``noun`` the kind of file that messages name.  The file
    is closed once read; every array handed out is a view of ``buf``.

    A field's name ``what`` may hold one format slot for ``arg``, a record's
    key; the slot is filled only when an error message reads the name, not
    once per field read."""

    def __init__(self, path, magic: bytes, error: type[ValueError], noun: str):
        self.path, self.error, self.noun = path, error, noun
        with open(path, "rb") as fh:
            self.buf = fh.read()
        self.pos = len(magic)  # offset of the next unread byte
        found = self.buf[: self.pos]
        if found != magic:
            self.fail(f"bad magic {found!r}; not an {magic[:-1].decode()} {noun}")

    def fail(self, message: str) -> NoReturn:
        raise self.error(f"{self.path}: {message}")

    def take(self, n: int, what: str, arg=None) -> int:
        """Claim the next ``n`` bytes for the field ``what``; returns their offset."""
        start = self.pos
        left = len(self.buf) - start
        if n > left:
            self.fail(f"truncated {self.noun} while reading {what.format(arg)}: "
                      f"{n} bytes declared, {left} left")
        self.pos = start + n
        return start

    def read(self, n: int, what: str) -> bytes:
        start = self.take(n, what)
        return self.buf[start : start + n]

    def unpack(self, fields: struct.Struct, what: str) -> tuple:
        return fields.unpack_from(self.buf, self.take(fields.size, what))

    def key(self, what: str, size: struct.Struct = U16) -> str:
        """A UTF-8 string behind its byte length, the field ``size``."""
        (n,) = size.unpack_from(self.buf, self.take(size.size, "{} length", what))
        try:
            return self.read(n, what).decode("utf-8")
        except UnicodeDecodeError as err:
            self.fail(f"{what} is not valid UTF-8: {err}")

    def array(self, dtype: np.dtype, shape: tuple, what: str, arg=None) -> np.ndarray:
        """A read-only row-major view of ``buf`` whose every value is finite."""
        count = math.prod(shape)
        start = self.take(dtype.itemsize * count, what + " payload", arg)
        values = np.frombuffer(self.buf, dtype, count, start).reshape(shape)
        if not np.isfinite(values).all():
            self.fail(f"{what.format(arg)} holds a non-finite value")
        return values

    def finish(self, what: str) -> None:
        if self.pos != len(self.buf):
            self.fail(f"trailing bytes after the last of {what}")
