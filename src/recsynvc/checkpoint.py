"""Binary checkpoint container.

Layout (little-endian throughout):

    magic   4 bytes  b"S3CK"
    version u32      currently 1
    meta    u32 byte length, then UTF-8 JSON object (keys sorted)
    count   u32      number of tensors
    tensors repeated, sorted by name:
        name   u32 byte length, then UTF-8 name
        ndim   u32, then ndim u32 dims
        data   float64 row-major payload

JSON keys and tensor entries are sorted so that writing the same logical
checkpoint always produces the same bytes.  Writes go through a temp file
and an atomic rename.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .container import Reader, pack, pack_text, write_atomic
from .errors import FeatureFileError, VoiceConversionError, naming

MAGIC = b"S3CK"
VERSION = 1
CHECKPOINT_SUFFIX = ".s3ck"


@dataclass
class Checkpoint:
    """JSON-serializable metadata plus named float64 tensors."""

    meta: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` atomically.

    A contiguous little-endian float64 tensor is written from its own memory
    through a ``memoryview``, so the write copies no tensor; any other is
    converted once.
    """
    parts = [MAGIC, pack("I", VERSION),
             pack_text(json.dumps(ckpt.meta, sort_keys=True, separators=(",", ":"))),
             pack("I", len(ckpt.tensors))]
    for name in sorted(ckpt.tensors):
        tensor = np.require(ckpt.tensors[name], dtype="<f8", requirements="C")
        dims = (tensor.ndim, *tensor.shape)
        parts += [pack_text(name), pack(f"{len(dims)}I", *dims), memoryview(tensor)]
    write_atomic(path, parts)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a corrupt one raises ``FeatureFileError`` naming it.

    Every tensor must be named once and hold only finite values.  Each is an
    aligned float64 copy of the file's bytes, made read-only so that models
    built from it can share it without copying.
    """
    with naming(path, FeatureFileError):
        r = Reader(path, MAGIC, VERSION)
        meta = r.json()
        if not isinstance(meta, dict):
            raise VoiceConversionError("checkpoint meta is not a JSON object")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(r.u32()):
            name = r.text()
            if name in tensors:
                raise VoiceConversionError(f"tensor {name!r} appears twice")
            tensor = r.array("<f8", r.unpack(f"{r.u32()}I")).astype(np.float64)
            if not np.isfinite(tensor).all():
                raise VoiceConversionError(f"tensor {name!r} contains non-finite values")
            tensor.flags.writeable = False
            tensors[name] = tensor
        r.finish()
    return Checkpoint(meta=meta, tensors=tensors)
