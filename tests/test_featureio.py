"""Binary feature container: exact round-trips and corruption handling."""

import struct

import numpy as np
import pytest

from recsynvc.errors import FeatureFileError
from recsynvc.featureio import feature_path, read_features, write_features
from recsynvc.types import FeatureSequence


def _random_seq(rng):
    t = int(rng.integers(1, 40))
    d = int(rng.integers(1, 16))
    frames = rng.standard_normal((t, d)).astype(np.float32)
    shift = float(rng.uniform(1.0, 50.0))
    return FeatureSequence(frames=frames, frame_shift_ms=shift)


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(20):
        seq = _random_seq(rng)
        path = tmp_path / f"f{i}.s3vc"
        write_features(path, seq)
        back = read_features(path)
        assert back.frames.dtype == np.float32
        assert np.array_equal(back.frames, seq.frames)
        assert back.frame_shift_ms == seq.frame_shift_ms


def test_rewrite_is_byte_identical(tmp_path):
    seq = _random_seq(np.random.default_rng(1))
    a, b = tmp_path / "a.s3vc", tmp_path / "b.s3vc"
    write_features(a, seq)
    write_features(b, read_features(a))
    assert a.read_bytes() == b.read_bytes()


def test_no_temp_files_left_behind(tmp_path):
    write_features(tmp_path / "f.s3vc", _random_seq(np.random.default_rng(2)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.s3vc"]


def test_bad_magic(tmp_path):
    path = tmp_path / "f.s3vc"
    write_features(path, _random_seq(np.random.default_rng(3)))
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(FeatureFileError, match="bad magic"):
        read_features(path)


def test_bad_version(tmp_path):
    path = tmp_path / "f.s3vc"
    write_features(path, _random_seq(np.random.default_rng(4)))
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(FeatureFileError, match="unsupported version"):
        read_features(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "f.s3vc"
    write_features(path, _random_seq(np.random.default_rng(5)))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 3])
    with pytest.raises(FeatureFileError, match="truncated"):
        read_features(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "f.s3vc"
    write_features(path, _random_seq(np.random.default_rng(6)))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FeatureFileError):
        read_features(path)


def test_feature_path_layout(tmp_path):
    assert feature_path(tmp_path, "SPK1_007").name == "SPK1_007.s3vc"
    assert feature_path(tmp_path, "SPK1_007").parent == tmp_path


def _header_and_payload(path):
    write_features(path, FeatureSequence(frames=np.zeros((3, 2)), frame_shift_ms=10.0))
    blob = path.read_bytes()
    return blob[:20], blob[20:]  # magic, version, frame count, width, shift | frames


@pytest.mark.parametrize("defect, message", [
    ("nan_frame", "non-finite"), ("no_frames", "T, D >= 1"),
    ("zero_shift", "frame_shift_ms"), ("negative_shift", "frame_shift_ms"),
])
def test_frame_and_shift_defects_name_the_file(tmp_path, defect, message):
    path = tmp_path / "f.s3vc"
    header, payload = _header_and_payload(path)
    if defect == "nan_frame":
        payload = struct.pack("<f", np.nan) + payload[4:]
    elif defect == "no_frames":
        header, payload = header[:8] + struct.pack("<I", 0) + header[12:], b""
    else:
        header = header[:16] + struct.pack("<f", 0.0 if defect == "zero_shift" else -10.0)
    path.write_bytes(header + payload)
    with pytest.raises(FeatureFileError, match=rf"^{path}: .*{message}"):
        read_features(path)
