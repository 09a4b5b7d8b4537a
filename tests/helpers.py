"""Helpers shared by several test modules.

They live outside ``conftest.py`` because the benchmark's tests have a
``conftest`` module of their own, and both suites run in one session.
"""

import hashlib

import numpy as np

from recsynvc.config import AudioConfig, Config, ModelConfig, TrainingConfig
from recsynvc.types import SpeakerEmbedding


def corrupt_variants(blob: bytes):
    """Every truncation, then every single-bit flip, of ``blob``."""
    for n in range(len(blob)):
        yield f"truncated to {n} bytes", blob[:n]
    for i in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[i // 8] ^= 1 << (i % 8)
        yield f"bit {i} flipped", bytes(flipped)


def sphere_embedding(key: str, dim: int = 16) -> SpeakerEmbedding:
    """Deterministic hash-to-sphere stub: any string to a unit vector."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    vec = rng.standard_normal(dim)
    return SpeakerEmbedding(vector=vec / np.linalg.norm(vec))


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
        if key in model_kw or key in ("type", "speaker_conditioned", "embedding_dim"):
            model_kw[key] = value
        else:
            train_kw[key] = value
    return Config(audio=AudioConfig(),
                  model=ModelConfig(type=decoder_type, **model_kw),
                  training=TrainingConfig(**train_kw))
