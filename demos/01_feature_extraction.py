"""
Content feature extraction
==========================

Builds a small synthetic corpus, extracts 80-band log-mel features from each
utterance, and round-trips them through the binary feature file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from recsynvc.config import AudioConfig
from recsynvc.featureio import feature_path, read_features, write_features
from recsynvc.manifest import load_manifest
from recsynvc.recognizer import external_upstream, extract_mel
from recsynvc.audioio import load_waveform
from recsynvc.synthetic import make_toy_corpus
from recsynvc.types import LOG_MEL_FLOOR, N_MELS

work = Path(tempfile.mkdtemp(prefix="demo_features_"))
print(f"working directory: {work}")

# a deterministic three-utterance corpus: wav files plus a JSONL manifest
manifest_path = make_toy_corpus(work / "corpus", n_utterances=3, duration=1.0)
manifest = load_manifest(manifest_path)
print(f"corpus: {len(manifest.records)} utterances, "
      f"speakers {manifest.speakers}")

audio = AudioConfig()
print(f"analysis: {audio.sample_rate} Hz, win {audio.win_length}, "
      f"hop {audio.hop_length} ({audio.frame_shift_ms:.0f} ms frames), "
      f"{N_MELS} mel bands {audio.fmin:.0f}-{audio.fmax:.0f} Hz")

feat_dir = work / "features"
feat_dir.mkdir()
for record in manifest:
    wave = load_waveform(record.wav_path, audio)
    mel = extract_mel(wave, audio)

    # one frame per hop once a full window fits; values live on a log scale
    # clamped at LOG_MEL_FLOOR so silence is a finite constant
    expected = 1 + (wave.samples.size - audio.win_length) // audio.hop_length
    assert mel.frames.shape == (expected, N_MELS)
    print(f"  {record.utt_id}: {wave.samples.size} samples -> "
          f"{mel.frames.shape[0]} frames, "
          f"range [{mel.frames.min():.1f}, {mel.frames.max():.1f}] "
          f"(floor {LOG_MEL_FLOOR:.1f})")

    write_features(feature_path(feat_dir, record.utt_id), mel.as_features())

# the container stores float32 frames plus the frame shift; reads are exact
first = manifest.records[0]
seq = read_features(feature_path(feat_dir, first.utt_id))
mel = extract_mel(load_waveform(first.wav_path, audio), audio)
print(f"round trip: shape {seq.frames.shape}, shift {seq.frame_shift_ms} ms, "
      f"max reload error "
      f"{np.max(np.abs(seq.frames - mel.frames.astype(np.float32))):.1e}")

# a directory of feature files is all an external upstream needs: its width
# and frame shift are read from the files themselves
spec = external_upstream("mel_files", feat_dir)
print(f"as an external upstream: {spec.feature_dim} dims, "
      f"{spec.frame_shift_ms:.0f} ms frames")

# the same extraction is available as:
#   recsynvc extract-features corpus/manifest.jsonl --out-dir features
# and training on any directory of .s3vc files as:
#   recsynvc train corpus/manifest.jsonl --upstream NAME --feature-dir features --out-dir run
