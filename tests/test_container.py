"""Corrupt binary files end as typed errors, whatever byte is damaged."""

import numpy as np
import pytest

from helpers import corrupt_variants
from recsynvc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from recsynvc.errors import VoiceConversionError
from recsynvc.featureio import read_features, write_features
from recsynvc.types import FeatureSequence


def _write_small_features(path):
    frames = np.arange(6, dtype=np.float32).reshape(3, 2)
    write_features(path, FeatureSequence(frames=frames, frame_shift_ms=10.0))


def _write_small_checkpoint(path):
    meta = {"name": "tiny", "step": 3, "nested": {"dims": [2, 3]}}
    tensors = {"a.w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5])}
    save_checkpoint(path, Checkpoint(meta=meta, tensors=tensors))


@pytest.mark.parametrize("write, load", [(_write_small_features, read_features),
                                         (_write_small_checkpoint, load_checkpoint)],
                         ids=["s3vc", "s3ck"])
def test_every_truncation_and_bit_flip_is_typed(tmp_path, write, load):
    path = tmp_path / "file"
    write(path)
    escaped = []
    for label, blob in corrupt_variants(path.read_bytes()):
        path.write_bytes(blob)
        try:
            load(path)
        except VoiceConversionError:
            pass
        except Exception as exc:
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
    assert escaped == []
