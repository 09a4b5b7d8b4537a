"""
Any-to-any conversion with speaker embeddings
=============================================

Trains one speaker-conditioned decoder on a multi-speaker corpus, then
converts a single source utterance toward two different target speakers by
swapping the embedding. No per-target training happens; the target identity
enters purely through the averaged embedding vector.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from recsynvc.checkpoint import load_checkpoint
from recsynvc.config import Config, AudioConfig, ModelConfig, TrainingConfig
from recsynvc.converter import average_embedding, convert
from recsynvc.manifest import load_manifest
from recsynvc.recognizer import mel_upstream
from recsynvc.synthetic import make_toy_corpus
from recsynvc.trainer import train_a2a
from recsynvc.types import SpeakerEmbedding

work = Path(tempfile.mkdtemp(prefix="demo_a2a_"))
print(f"working directory: {work}")

manifest_path = make_toy_corpus(work / "corpus", n_utterances=12,
                                n_speakers=4, duration=0.4, seed=1)
manifest = load_manifest(manifest_path, role="multi_speaker")
print(f"corpus: {len(manifest.records)} utterances across "
      f"{len(manifest.speakers)} speakers")


def stub_encoder(record) -> SpeakerEmbedding:
    # deterministic hash-to-sphere stand-in for a real verification encoder;
    # swap in speaker_encoder_adapter(...) to call an external model
    digest = hashlib.sha256(record.speaker_id.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return SpeakerEmbedding.from_raw(rng.standard_normal(16))


config = Config(
    audio=AudioConfig(),
    model=ModelConfig(type="taco2_ar", hidden_dim=64, lstmp_proj_dim=64,
                      prenet_dims=(32, 32), postnet_layers=3,
                      postnet_channels=32, speaker_conditioned=True,
                      embedding_dim=16),
    training=TrainingConfig(learning_rate=3e-3, batch_size=4, steps=100,
                            checkpoint_interval=100, log_interval=25, seed=0),
)

# during training each utterance is paired with its own speaker's embedding
run = train_a2a(manifest, mel_upstream(config.audio), config, work / "run",
                stub_encoder)
print(f"loss: {run.loss_history[0]:.4f} -> {run.loss_history[-1]:.4f}")

# target embeddings: average the (here identical) per-utterance embeddings
# of each target speaker's enrollment data
checkpoint = load_checkpoint(run.checkpoint_path)
by_speaker = {}
for record in manifest.records:
    by_speaker.setdefault(record.speaker_id, []).append(stub_encoder(record))

source = manifest.records[0]
toward_2 = convert(source, checkpoint,
                   s=average_embedding(by_speaker["SPK2"]), dropout_seed=7)
toward_4 = convert(source, checkpoint,
                   s=average_embedding(by_speaker["SPK4"]), dropout_seed=7)

gap = float(np.mean(np.abs(toward_2.frames - toward_4.frames)))
print(f"same source ({source.utt_id}, a {source.speaker_id} utterance), "
      f"two targets: mean |mel difference| = {gap:.4f}")
print("the embedding alone changed the output; no target-specific weights")
