"""
Any-to-one training and conversion
==================================

Trains a small decoder to reproduce one target speaker's mel frames from
content features, then converts an utterance and vocodes it back to audio.
A short run on a toy corpus; the printed loss should fall by around 10x.
"""

import tempfile
from pathlib import Path

import numpy as np

from recsynvc.audioio import save_waveform
from recsynvc.checkpoint import load_checkpoint
from recsynvc.config import Config, AudioConfig, ModelConfig, TrainingConfig
from recsynvc.converter import convert, load_model, vocode
from recsynvc.manifest import load_manifest
from recsynvc.recognizer import mel_upstream
from recsynvc.synthetic import make_toy_corpus
from recsynvc.trainer import train

work = Path(tempfile.mkdtemp(prefix="demo_a2o_"))
print(f"working directory: {work}")

manifest_path = make_toy_corpus(work / "corpus", n_utterances=8,
                                duration=0.4, seed=0)
manifest = load_manifest(manifest_path)

# a deliberately small recurrent decoder so the demo finishes in seconds;
# "simple" is the non-autoregressive feed-forward + LSTMP stack
config = Config(
    audio=AudioConfig(),
    model=ModelConfig(type="simple", hidden_dim=64, lstmp_proj_dim=64),
    training=TrainingConfig(learning_rate=3e-3, batch_size=4, steps=80,
                            checkpoint_interval=80, log_interval=20, seed=0),
)

# the content upstream here is the package's own log-mel extractor; any
# externally computed feature directory can stand in via
# external_upstream(name, feature_dir), which reads the width and frame shift
# from the feature files; with no speaker encoder, train() is any-to-one and
# the corpus must hold exactly one speaker
run = train(manifest, mel_upstream(config.audio), config, work / "run")
print(f"loss: step 1 {run.loss_history[0]:.4f} -> "
      f"step {config.training.steps} {run.loss_history[-1]:.4f} "
      f"({run.loss_history[-1] / run.loss_history[0]:.1%} of start)")
print(f"checkpoint: {run.checkpoint_path}")

# conversion needs only the checkpoint: it names the upstream to recognize
# content with, and holds the decoder, its normalization and the audio
# settings (a model trained on an external upstream also takes the feature
# directory: convert(record, checkpoint, feature_dir))
checkpoint = load_checkpoint(run.checkpoint_path)
source = manifest.records[0]
mel = convert(source, checkpoint)
print(f"converted {source.utt_id}: {mel.frames.shape[0]} frames x "
      f"{mel.frames.shape[1]} mels")

# Griffin-Lim phase reconstruction, with the checkpoint's audio settings,
# turns the mel frames back into samples
wave = vocode(mel, load_model(checkpoint).audio)
out_wav = work / f"{source.utt_id}_converted.wav"
save_waveform(out_wav, wave)
print(f"vocoded: {wave.samples.size} samples "
      f"(peak {np.max(np.abs(wave.samples)):.2f}) -> {out_wav}")

# equivalent CLI session:
#   recsynvc train corpus/manifest.jsonl --mode a2o --out-dir run
#   recsynvc convert run/final.s3ck corpus/manifest.jsonl --out-dir converted
