"""Corrupt input files end as typed errors, whatever byte is damaged, and
concurrent atomic writes of one file do not collide."""

import threading

import numpy as np
import pytest

from helpers import corrupt_variants, write_metrics_table
from recsynvc.benchmark import MetricsRow, read_metrics_table
from recsynvc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from recsynvc.config import load_config
from recsynvc.container import write_atomic
from recsynvc.errors import VoiceConversionError
from recsynvc.featureio import read_features, write_features
from recsynvc.manifest import load_manifest, write_manifest
from recsynvc.types import DatasetManifest, FeatureSequence, UtteranceRecord


def _write_small_features(path):
    frames = np.arange(6, dtype=np.float32).reshape(3, 2)
    write_features(path, FeatureSequence(frames=frames, frame_shift_ms=10.0))


def _write_small_checkpoint(path):
    meta = {"name": "tiny", "step": 3, "nested": {"dims": [2, 3]}}
    tensors = {"a.w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5])}
    save_checkpoint(path, Checkpoint(meta=meta, tensors=tensors))


def _write_small_manifest(path):
    records = tuple(UtteranceRecord(utt_id=f"u{i}", speaker_id="A", wav_path=f"w/u{i}.wav",
                                    transcript="PA KO") for i in (1, 2))
    write_manifest(path, DatasetManifest(records=records))


def _write_small_ini(path):
    path.write_text("[audio]\nhop_length = 240\n[model]\nprenet_dims = 64,64\n"
                    "[training]\nlearning_rate = 0.003\n[evaluation]\ndropout_seed = 7\n")


def _write_small_table(path):
    write_metrics_table(path, [MetricsRow(f"s{k}", mcd=6.0 + k, wer=20.0 - k, asv=50.0 + k,
                                          naturalness=3.0 + k / 4, similarity=60.0 - k)
                               for k in range(3)])


@pytest.mark.parametrize("write, load", [(_write_small_features, read_features),
                                         (_write_small_checkpoint, load_checkpoint),
                                         (_write_small_manifest, load_manifest),
                                         (_write_small_ini, load_config),
                                         (_write_small_table, read_metrics_table)],
                         ids=["s3vc", "s3ck", "manifest", "ini", "tsv"])
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


def test_concurrent_writers_of_one_path_do_not_collide(tmp_path):
    path = tmp_path / "out.bin"
    payloads = [bytes([65 + k]) * 65536 for k in range(2)]
    start = threading.Barrier(len(payloads))
    errors = []

    def write_many(payload):
        start.wait()
        for _ in range(300):
            try:
                write_atomic(path, [payload[:4096], payload[4096:]])
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=write_many, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert path.read_bytes() in payloads
    assert list(tmp_path.glob("*.tmp")) == []
