"""The binary mechanics shared by the SMEB1 embedding store and the SMCK1
checkpoint, whose own modules keep only their layouts.

Both formats are little-endian: a magic, then fields whose sizes the file
declares.  A :class:`Reader` bounds every read by the bytes left, so a
size that claims more than the file holds fails before anything is
allocated; it decodes length-prefixed UTF-8 keys, refuses non-finite
values and trailing bytes, and raises the format's error naming the file.
"""

from __future__ import annotations

import math
import os
import struct
from typing import NoReturn

import numpy as np


def write_key(fh, key: str, size: str = "<H") -> None:
    """Write ``key`` as :meth:`Reader.key` reads it: its UTF-8 byte length
    as the struct field ``size``, then the bytes."""
    raw = key.encode("utf-8")
    fh.write(struct.pack(size, len(raw)) + raw)


class Reader:
    """One open file: ``magic`` starts it, ``error`` is its format's error
    class and ``noun`` the kind of file that messages name."""

    def __init__(self, fh, magic: bytes, error: type[ValueError], noun: str):
        self.fh, self.error, self.noun = fh, error, noun
        found = fh.read(len(magic))
        self.left = os.fstat(fh.fileno()).st_size - len(found)  # bytes not yet read
        if found != magic:
            self.fail(f"bad magic {found!r}; not an {magic[:-1].decode()} {noun}")

    def fail(self, message: str) -> NoReturn:
        raise self.error(f"{self.fh.name}: {message}")

    def read(self, n: int, what: str) -> bytes:
        if n > self.left:
            self.fail(f"truncated {self.noun} while reading {what}: "
                      f"{n} bytes declared, {self.left} left")
        buf = self.fh.read(n)
        if len(buf) != n:
            self.fail(f"truncated {self.noun} while reading {what}")
        self.left -= n
        return buf

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def key(self, what: str, size: str = "<H") -> str:
        """A UTF-8 string behind its byte length, the struct field ``size``."""
        (n,) = self.unpack(size, f"{what} length")
        try:
            return self.read(n, what).decode("utf-8")
        except UnicodeDecodeError as err:
            self.fail(f"{what} is not valid UTF-8: {err}")

    def array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        """A read-only row-major array whose every value is finite."""
        raw = self.read(np.dtype(dtype).itemsize * math.prod(shape), f"{what} payload")
        values = np.frombuffer(raw, dtype=dtype).reshape(shape)
        if not np.isfinite(values).all():
            self.fail(f"{what} holds a non-finite value")
        return values

    def finish(self, what: str) -> None:
        if self.fh.read(1):
            self.fail(f"trailing bytes after the last of {what}")
