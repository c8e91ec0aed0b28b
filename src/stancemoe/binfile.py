"""The binary mechanics shared by the SMEB1 embedding store and the SMCK1
checkpoint, whose own modules keep only their layouts.

Both formats are little-endian: a magic, then fields whose sizes the file
declares.  A :class:`Reader` streams the fields from the open file in
order.  It bounds every field by the bytes left, taken from the file's
size, so a size that claims more than the file holds fails before
anything is allocated; it decodes length-prefixed UTF-8 keys, reads each
array into an aligned array of its own, refuses non-finite values and
trailing bytes, and raises the format's error naming the file.
"""

from __future__ import annotations

import math
import os
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
    """The file at ``path``, open for reading field by field: ``magic``
    starts the file, ``error`` is its format's error class and ``noun`` the
    kind of file that messages name.  ``size`` is the file's size when
    opened and ``pos`` the offset of the next unread byte.  The file is
    closed by :meth:`finish` and by every failure (:meth:`fail`).

    A field's name ``what`` may hold one format slot for ``arg``, a record's
    key; the slot is filled only when an error message reads the name, not
    once per field read."""

    def __init__(self, path, magic: bytes, error: type[ValueError], noun: str):
        self.path, self.error, self.noun = path, error, noun
        self.fh = open(path, "rb")
        self.size = os.fstat(self.fh.fileno()).st_size
        found = self.fh.read(len(magic))
        self.pos = len(found)
        if found != magic:
            self.fail(f"bad magic {found!r}; not an {magic[:-1].decode()} {noun}")

    def fail(self, message: str) -> NoReturn:
        self.fh.close()
        raise self.error(f"{self.path}: {message}")

    def truncated(self, n: int, left: int, what: str, arg=None) -> NoReturn:
        self.fail(f"truncated {self.noun} while reading {what.format(arg)}: "
                  f"{n} bytes declared, {left} left")

    def take(self, n: int, what: str, arg=None) -> None:
        """Claim the next ``n`` bytes for the field ``what``."""
        if n > self.size - self.pos:
            self.truncated(n, self.size - self.pos, what, arg)
        self.pos += n

    def read(self, n: int, what: str, arg=None) -> bytes:
        """The next ``n`` bytes, the field ``what``."""
        self.take(n, what, arg)
        raw = self.fh.read(n)
        if len(raw) != n:  # the file shrank after it was opened
            self.truncated(n, len(raw), what, arg)
        return raw

    def unpack(self, fields: struct.Struct, what: str) -> tuple:
        return fields.unpack(self.read(fields.size, what))

    def key(self, what: str, size: struct.Struct = U16) -> str:
        """A UTF-8 string behind its byte length, the field ``size``."""
        (n,) = size.unpack(self.read(size.size, "{} length", what))
        raw = self.read(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as err:
            self.fail(f"{what} is not valid UTF-8: {err}")

    def array(self, dtype: np.dtype, shape: tuple, what: str, arg=None) -> np.ndarray:
        """A read-only, row-major array of its own whose every value is finite."""
        n = dtype.itemsize * math.prod(shape)
        self.take(n, what + " payload", arg)
        values = np.empty(shape, dtype)
        got = self.fh.readinto(values)
        if got != n:
            self.truncated(n, got, what + " payload", arg)
        if not np.isfinite(values).all():
            self.fail(f"{what.format(arg)} holds a non-finite value")
        values.flags.writeable = False
        return values

    def finish(self, what: str) -> None:
        """Check that the last field ends the file, and close it."""
        if self.pos != self.size or self.fh.read(1):
            self.fail(f"trailing bytes after the last of {what}")
        self.fh.close()
