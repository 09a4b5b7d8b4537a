"""Binary container for feature sequences.

Layout (little-endian throughout)::

    magic "S3VC" | u32 version=1 | u32 n_frames | u32 dim |
    f32 frame_shift_ms | n_frames * dim f32 payload, row-major

The format is the interchange contract with external feature extractors, so
round-trips must be bit-exact.  ``FeatureSequence`` already holds f32 frames
and an f32-representable frame shift, making write -> read the identity.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .container import Reader, pack, write_atomic
from .errors import FeatureFileError, naming
from .types import FeatureSequence

MAGIC = b"S3VC"
VERSION = 1

#: Filename extension used for feature files in a feature directory.
FEATURE_SUFFIX = ".s3vc"


def write_features(path, seq: FeatureSequence) -> None:
    """Serialize ``seq`` to ``path`` atomically (write temp, then rename)."""
    frames = np.ascontiguousarray(seq.frames, dtype="<f4")
    header = pack("IIf", *frames.shape, seq.frame_shift_ms)
    write_atomic(path, [MAGIC, pack("I", VERSION), header, frames.tobytes()])


def read_features(path) -> FeatureSequence:
    """Read a feature file; any defect raises ``FeatureFileError`` naming it."""
    with naming(path, FeatureFileError):
        r = Reader(path, MAGIC, VERSION)
        n_frames, dim, frame_shift_ms = r.unpack("IIf")
        frames = r.array("<f4", (n_frames, dim))
        r.finish()
        return FeatureSequence(frames=frames, frame_shift_ms=frame_shift_ms)


def feature_path(feature_dir, utt_id) -> Path:
    """Canonical location of an utterance's feature file."""
    return Path(feature_dir) / f"{utt_id}{FEATURE_SUFFIX}"
