"""Bounds-checked reading and atomic writing shared by the binary formats.

Feature files (``featureio``), checkpoints (``checkpoint``) and wavs
(``audioio``) are little-endian files that open with a four-byte magic; the
first two follow it with a u32 version.  ``Reader`` walks a whole file's
bytes: each size read from the file is compared with the bytes left before
anything is allocated, text is decoded as UTF-8 and JSON, and bytes left after
the last field are rejected.  Every such failure raises the format's error
type (``FeatureFileError`` unless the caller names another) naming the file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .errors import FeatureFileError


def pack(fmt: str, *values) -> bytes:
    """``values`` packed little-endian by the ``struct`` format ``fmt``."""
    return struct.pack("<" + fmt, *values)


def pack_text(text: str) -> bytes:
    """A u32 byte length, then the UTF-8 bytes; ``Reader.text`` reads it back."""
    blob = text.encode("utf-8")
    return pack("I", len(blob)) + blob


def write_atomic(path, parts) -> None:
    """Write ``parts``, bytes-like objects such as ``bytes`` or a ``memoryview``, to ``path``.

    The bytes go to a temp file beside ``path``, named for this process and
    thread, which is then renamed over it, so readers never see a partly
    written file and concurrent writers of one path do not collide.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when the write failed


class Reader:
    """Cursor over the bytes of one file, past its magic and, if given, its u32 version.

    ``error`` is the type raised for every defect, with a message naming the file.
    """

    def __init__(self, path, magic: bytes, version: int | None = None,
                 error: type[Exception] = FeatureFileError):
        self.path = path
        self.error = error
        self.data = memoryview(Path(path).read_bytes())
        self.pos = 0
        found = bytes(self.take(len(magic)))
        if found != magic:
            raise error(f"{path}: bad magic {found!r}, expected {magic!r}")
        if version is not None and (found := self.u32()) != version:
            raise error(f"{path}: unsupported version {found}, expected {version}")

    def take(self, n: int) -> memoryview:
        left = len(self.data) - self.pos
        if n > left:
            raise self.error(
                f"{self.path}: truncated: {n} bytes needed at offset {self.pos}, "
                f"{left} left"
            )
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        """Fields read little-endian by the ``struct`` format ``fmt``."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u32(self) -> int:
        return self.unpack("I")[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.path}: text is not UTF-8: {exc}") from None

    def json(self):
        """A ``text`` field holding one JSON value."""
        try:
            return json.loads(self.text())
        except ValueError as exc:  # JSONDecodeError, or a number too long to parse
            raise self.error(f"{self.path}: invalid JSON: {exc}") from None

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A row-major array viewed in place: read-only, and possibly unaligned."""
        dtype = np.dtype(dtype)
        flat = np.frombuffer(self.take(math.prod(shape) * dtype.itemsize), dtype=dtype)
        try:
            return flat.reshape(shape)
        except ValueError as exc:  # an empty shape whose other dims overflow
            raise self.error(f"{self.path}: bad shape {shape}: {exc}") from None

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise self.error(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes after the last field"
            )
