"""Bounds-checked reading and atomic writing shared by the binary formats.

Feature files (``featureio``), checkpoints (``checkpoint``) and wavs
(``audioio``) are little-endian files that open with a four-byte magic; the
first two follow it with a u32 version.  ``Reader`` walks a whole file's
bytes: each size read from the file is compared with the bytes left before
anything is allocated, text is decoded as UTF-8 and JSON, and bytes left after
the last field are rejected.  ``Reader`` raises each such failure as the bare
cause, a ``VoiceConversionError``; the format's reader, which opened the file,
names it through ``errors.naming``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .errors import VoiceConversionError, naming


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
    """Cursor over the bytes of one file, past its magic and, if given, its u32 version."""

    def __init__(self, path, magic: bytes, version: int | None = None):
        self.data = memoryview(Path(path).read_bytes())
        self.pos = 0
        found = bytes(self.take(len(magic)))
        if found != magic:
            raise VoiceConversionError(f"bad magic {found!r}, expected {magic!r}")
        if version is not None and (found := self.u32()) != version:
            raise VoiceConversionError(f"unsupported version {found}, expected {version}")

    def take(self, n: int) -> memoryview:
        left = len(self.data) - self.pos
        if n > left:
            raise VoiceConversionError(
                f"truncated: {n} bytes needed at offset {self.pos}, {left} left")
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
        with naming("text is not UTF-8", VoiceConversionError, UnicodeDecodeError):
            return str(raw, "utf-8")

    def json(self):
        """A ``text`` field holding one JSON value."""
        # JSONDecodeError, or a number too long to parse
        with naming("invalid JSON", VoiceConversionError, ValueError):
            return json.loads(self.text())

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A row-major array viewed in place: read-only, and possibly unaligned."""
        dtype = np.dtype(dtype)
        flat = np.frombuffer(self.take(math.prod(shape) * dtype.itemsize), dtype=dtype)
        # an empty shape whose other dims overflow
        with naming(f"bad shape {shape}", VoiceConversionError, ValueError):
            return flat.reshape(shape)

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise VoiceConversionError(
                f"{len(self.data) - self.pos} trailing bytes after the last field")
