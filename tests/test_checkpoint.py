"""Checkpoint container: exact round-trips and corruption handling."""

import json
import tracemalloc

import numpy as np
import pytest

from recsynvc.checkpoint import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
    CHECKPOINT_SUFFIX,
)
from recsynvc.errors import FeatureFileError


def _random_checkpoint(rng):
    meta = {
        "format": "recsynvc-checkpoint",
        "step": int(rng.integers(0, 10000)),
        "nested": {"lr": float(rng.uniform()), "tags": ["a", "b"]},
        "flag": bool(rng.integers(0, 2)),
        "nothing": None,
    }
    tensors = {}
    for i in range(int(rng.integers(1, 6))):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        tensors[f"t{i}.w"] = rng.standard_normal(shape)
    return Checkpoint(meta=meta, tensors=tensors)


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(10):
        ckpt = _random_checkpoint(rng)
        path = tmp_path / f"c{i}{CHECKPOINT_SUFFIX}"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.meta == ckpt.meta
        assert back.tensors.keys() == ckpt.tensors.keys()
        for k in ckpt.tensors:
            assert back.tensors[k].dtype == np.float64
            assert np.array_equal(back.tensors[k], np.asarray(ckpt.tensors[k]))


def test_tensors_of_any_layout_round_trip(tmp_path):
    # each is converted once on write: a transposed view, float32, big-endian
    # and empty; a 0-d tensor keeps its shape ()
    rng = np.random.default_rng(8)
    tensors = {"view": rng.standard_normal((3, 4)).T,
               "f32": rng.standard_normal(5).astype(np.float32),
               "big_endian": rng.standard_normal(4).astype(">f8"),
               "empty": np.zeros((0, 3)),
               "scalar": np.array(2.5)}
    path = tmp_path / "c.s3ck"
    save_checkpoint(path, Checkpoint(meta={}, tensors=tensors))
    back = load_checkpoint(path).tensors
    for name, tensor in tensors.items():
        assert back[name].shape == tensor.shape
        assert np.array_equal(back[name], tensor.astype(np.float64)), name


def test_save_copies_no_tensor(tmp_path):
    tensors = {f"t{i}.w": np.full((256, 1024), float(i)) for i in range(5)}
    nbytes = sum(t.nbytes for t in tensors.values())
    assert nbytes >= 8e6
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "c.s3ck", Checkpoint(meta={"step": 1}, tensors=tensors))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * nbytes, peak
    back = load_checkpoint(tmp_path / "c.s3ck").tensors
    assert all(np.array_equal(back[k], tensors[k]) for k in tensors)


def test_rewrite_is_byte_identical(tmp_path):
    ckpt = _random_checkpoint(np.random.default_rng(1))
    a, b = tmp_path / "a.s3ck", tmp_path / "b.s3ck"
    save_checkpoint(a, ckpt)
    save_checkpoint(b, load_checkpoint(a))
    assert a.read_bytes() == b.read_bytes()


def test_tensor_order_does_not_matter(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {"b.w": rng.standard_normal(3), "a.w": rng.standard_normal(2)}
    meta = {"step": 1}
    a, b = tmp_path / "a.s3ck", tmp_path / "b.s3ck"
    save_checkpoint(a, Checkpoint(meta=meta, tensors=dict(tensors)))
    reordered = {k: tensors[k] for k in reversed(list(tensors))}
    save_checkpoint(b, Checkpoint(meta=meta, tensors=reordered))
    assert a.read_bytes() == b.read_bytes()


def test_meta_is_compact_sorted_json(tmp_path):
    path = tmp_path / "c.s3ck"
    save_checkpoint(path, Checkpoint(meta={"b": 1, "a": 2}, tensors={}))
    raw = path.read_bytes()
    expected = json.dumps({"a": 2, "b": 1}, sort_keys=True,
                          separators=(",", ":")).encode()
    assert expected in raw


def test_no_temp_files_left_behind(tmp_path):
    save_checkpoint(tmp_path / "c.s3ck",
                    _random_checkpoint(np.random.default_rng(3)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.s3ck"]


def test_bad_magic(tmp_path):
    path = tmp_path / "c.s3ck"
    save_checkpoint(path, _random_checkpoint(np.random.default_rng(4)))
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(FeatureFileError, match="bad magic"):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "c.s3ck"
    save_checkpoint(path, _random_checkpoint(np.random.default_rng(5)))
    data = bytearray(path.read_bytes())
    data[4] = 42
    path.write_bytes(bytes(data))
    with pytest.raises(FeatureFileError, match="unsupported version"):
        load_checkpoint(path)


def test_truncation(tmp_path):
    path = tmp_path / "c.s3ck"
    save_checkpoint(path, _random_checkpoint(np.random.default_rng(6)))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 5])
    with pytest.raises(FeatureFileError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "c.s3ck"
    save_checkpoint(path, _random_checkpoint(np.random.default_rng(7)))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FeatureFileError, match="trailing"):
        load_checkpoint(path)


def test_meta_must_be_a_json_object(tmp_path):
    path = tmp_path / "c.s3ck"
    save_checkpoint(path, Checkpoint(meta=[1, 2], tensors={}))
    with pytest.raises(FeatureFileError, match="JSON object"):
        load_checkpoint(path)


def test_loaded_tensors_are_aligned_and_read_only(tmp_path):
    path = tmp_path / "c.s3ck"
    # the payload starts at byte 38, so a view of the file's bytes is unaligned
    save_checkpoint(path, Checkpoint(meta={}, tensors={"t.weight": np.arange(3.0)}))
    tensor = load_checkpoint(path).tensors["t.weight"]
    assert tensor.flags.aligned and not tensor.flags.writeable
