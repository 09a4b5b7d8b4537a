"""Helpers shared by several test modules.

They live outside ``conftest.py`` because the benchmark's tests have a
``conftest`` module of their own, and both suites run in one session.
"""

import hashlib

import numpy as np

from recsynvc.config import AudioConfig, Config, ModelConfig, TrainingConfig
from recsynvc.benchmark import _TABLE_COLUMNS
from recsynvc.evaluator import _frames_of
from recsynvc.types import SpeakerEmbedding


def corrupt_variants(blob: bytes):
    """Every truncation, then every single-bit flip, of ``blob``."""
    for n in range(len(blob)):
        yield f"truncated to {n} bytes", blob[:n]
    for i in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[i // 8] ^= 1 << (i % 8)
        yield f"bit {i} flipped", bytes(flipped)


#: Wavs ``load_waveform`` refuses: name -> (rate, samples, a word of the error).
BAD_WAVS = {
    "nan": (24000, np.array([0.1, np.nan] * 1000), "non-finite"),
    "inf": (24000, np.array([0.1, np.inf] * 1000), "non-finite"),
    "minus_inf": (24000, np.array([0.1, -np.inf] * 1000, dtype=np.float32), "non-finite"),
    "empty": (24000, np.zeros(0, dtype=np.int16), "non-empty"),
    "int64": (24000, np.zeros(2000, dtype=np.int64), "sample format int64"),
    "8k": (8000, np.zeros(2000, dtype=np.int16), "sample rate 8000"),
    "short": (24000, np.zeros(100, dtype=np.int16),
              "need at least 1024 samples for one analysis window, got 100"),
    "short_at_24k": (48000, np.zeros(2000, dtype=np.int16),
                     "need at least 1024 samples for one analysis window, got 1000"),
}


def sphere_embedding(key: str, dim: int = 16) -> SpeakerEmbedding:
    """Deterministic hash-to-sphere stub: any string to a unit vector."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    vec = rng.standard_normal(dim)
    return SpeakerEmbedding(vector=vec / np.linalg.norm(vec))


def path_cost(a, b, path) -> float:
    """Summed squared Euclidean cost of an alignment path: the DTW oracle."""
    fa, fb = _frames_of(a), _frames_of(b)
    total = 0.0
    for i, j in path:
        diff = fa[i] - fb[j]
        total += float(diff @ diff)
    return total


def pearson(xs, ys) -> float:
    """Sample linear correlation coefficient, summed by hand: the oracle for
    ``benchmark.correlation_matrix``."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc * yc).sum() / np.sqrt((xc * xc).sum() * (yc * yc).sum()))


def write_metrics_table(path, rows) -> None:
    """Inverse of ``benchmark.read_metrics_table``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_TABLE_COLUMNS) + "\n")
        for r in rows:
            cells = [r.system] + [f"{getattr(r, key):.6g}" for key in _TABLE_COLUMNS[1:]]
            fh.write("\t".join(cells) + "\n")


# Toy training setup shared by trainer, converter, CLI, and acceptance tests.
# 0.4 s utterances keep sequences short enough that 500 steps converge hard.
TOY_MODEL = dict(hidden_dim=128, lstmp_proj_dim=128, prenet_dims=(64, 64),
                 postnet_layers=3, postnet_channels=64, postnet_kernel=5,
                 ar_dropout=0.5)
TOY_TRAINING = dict(learning_rate=3e-3, batch_size=8, steps=500,
                    checkpoint_interval=500, log_interval=1000, seed=0)


def toy_config(decoder_type: str, **overrides) -> Config:
    model_kw = dict(TOY_MODEL)
    train_kw = dict(TOY_TRAINING)
    for key, value in overrides.items():
        if key in model_kw or key in ("type", "embedding_dim"):
            model_kw[key] = value
        else:
            train_kw[key] = value
    return Config(audio=AudioConfig(),
                  model=ModelConfig(type=decoder_type, **model_kw),
                  training=TrainingConfig(**train_kw))
