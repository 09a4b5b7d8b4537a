"""Content recognition: turn a waveform (or a pre-extracted feature file) into
the frame-rate representation consumed by the synthesizer.

The only native extractor is the 80-bin log-mel spectrogram.  Every other
upstream (self-supervised models, posteriorgrams, ...) is produced by an
external toolchain and ingested from per-utterance feature files, whose
headers give the upstream's width and frame shift; this module never runs such
models in-process.  The directory of an external upstream's files is an
argument of each function that reads it, judged by ``check_feature_dir``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .config import MAX_WIDTH, AudioConfig
from .errors import ConfigError, FeatureFileError, VoiceConversionError
from .featureio import FEATURE_SUFFIX, feature_path, read_features
from .types import (
    MEL_FLOOR,
    N_MELS,
    FeatureSequence,
    MelSpectrogram,
    UtteranceRecord,
    Waveform,
)

MEL_UPSTREAM = "mel"

#: Largest upstream frame shift accepted.  A frame a second long no longer
#: describes frame-rate content, and the ceiling bounds the frame count that
#: ``resample_features`` computes from a shift read out of a file header.
MAX_FRAME_SHIFT_MS = 1000.0


@dataclass(frozen=True)
class Upstream:
    """Identity and frame geometry of one content representation.

    The name ``mel`` is the native upstream, which is 80-dim; every other name
    is external.  A width outside 1..``config.MAX_WIDTH``, a frame shift
    outside (0, ``MAX_FRAME_SHIFT_MS``] or a ``mel`` of another width raises
    ``ConfigError``.  The shift is stored as a float.
    """

    name: str
    feature_dim: int
    frame_shift_ms: float

    def __post_init__(self):
        if not 1 <= self.feature_dim <= MAX_WIDTH:
            raise ConfigError(f"feature_dim must lie in 1..{MAX_WIDTH}, got {self.feature_dim}")
        object.__setattr__(self, "frame_shift_ms", float(self.frame_shift_ms))
        if not 0.0 < self.frame_shift_ms <= MAX_FRAME_SHIFT_MS:
            raise ConfigError(f"upstream frame_shift_ms must lie in "
                              f"(0, {MAX_FRAME_SHIFT_MS:g}], got {self.frame_shift_ms}")
        if self.native and self.feature_dim != N_MELS:
            raise ConfigError(f"the native {self.name!r} upstream is {N_MELS}-dim, "
                              f"got {self.feature_dim}")

    @property
    def native(self) -> bool:
        return self.name == MEL_UPSTREAM


def check_feature_dir(name, feature_dir) -> None:
    """``mel`` takes no feature directory and an external upstream needs one
    (``ConfigError``); a given path that is no directory is a ``FeatureFileError``."""
    if name == MEL_UPSTREAM and feature_dir is not None:
        raise ConfigError(
            f"the native {MEL_UPSTREAM!r} upstream is computed from the wavs and "
            f"takes no feature directory, got {feature_dir}"
        )
    if name != MEL_UPSTREAM and feature_dir is None:
        raise ConfigError(
            f"external upstream {name!r} needs a feature directory (--feature-dir)"
        )
    if feature_dir is not None and not Path(feature_dir).is_dir():
        raise FeatureFileError(f"no {FEATURE_SUFFIX} files in feature directory {feature_dir}")


def mel_upstream(audio: AudioConfig) -> Upstream:
    """The native mel upstream at an audio configuration's frame shift."""
    return Upstream(MEL_UPSTREAM, N_MELS, audio.frame_shift_ms)


def external_upstream(name, feature_dir) -> Upstream:
    """An external upstream read from ``feature_dir``.

    Its width and frame shift are those of the directory's first ``.s3vc``
    file, sorted by name; ``recognize`` checks every other file against them.
    A directory without one raises ``FeatureFileError`` naming it.
    """
    check_feature_dir(name, feature_dir)
    first = min(Path(feature_dir).glob(f"*{FEATURE_SUFFIX}"), default=None)
    if first is None:
        raise FeatureFileError(f"no {FEATURE_SUFFIX} files in feature directory {feature_dir}")
    seq = read_features(first)
    return Upstream(name, seq.dim, seq.frame_shift_ms)


def extract_mel(wave: Waveform, audio: AudioConfig) -> MelSpectrogram:
    """80-bin log-mel spectrogram of a working-rate waveform.

    Frames follow the left-aligned analysis (T = floor((N - win)/hop) + 1);
    mel energies come from the magnitude STFT through a triangular filterbank
    and are clamped at the floor before the natural log.  A waveform shorter
    than one window yields no frame, which ``MelSpectrogram`` refuses;
    ``load_waveform`` already refuses such a file, naming it.
    """
    if wave.sample_rate != audio.sample_rate:
        raise VoiceConversionError(
            f"waveform rate {wave.sample_rate} != working rate {audio.sample_rate}; "
            "resample on ingestion"
        )
    spectra = np.abs(dsp.stft(wave.samples, audio.win_length, audio.hop_length))
    fb = dsp.mel_filterbank(
        audio.sample_rate, audio.win_length, N_MELS, audio.fmin, audio.fmax
    )
    energies = spectra @ fb.T
    frames = np.log(np.maximum(energies, MEL_FLOOR))
    return MelSpectrogram(frames=frames, frame_shift_ms=audio.frame_shift_ms)


def recognize(record: UtteranceRecord, upstream: Upstream, audio: AudioConfig,
              feature_dir=None) -> FeatureSequence:
    """Produce the content representation of one utterance.

    Native upstream: the record's wav is loaded and the mel extractor runs
    in-process, and ``feature_dir`` is not given.  External upstream: the
    record's features are read from ``feature_dir`` and resampled in time onto
    ``audio``'s frame shift, the decoder's frame rate; rows that align exactly
    keep their values.  ``check_feature_dir`` judges ``feature_dir``.
    """
    check_feature_dir(upstream.name, feature_dir)
    if upstream.native:
        # imported here, so each call looks it up on ``audioio`` and a
        # wrapper installed there sees it
        from .audioio import load_waveform
        wave = load_waveform(record.wav_path, audio)
        return extract_mel(wave, audio).as_features()
    path = feature_path(feature_dir, record.utt_id)
    if not path.exists():
        raise FeatureFileError(f"missing features for: {record.utt_id} ({path})")
    seq = read_features(path)
    if abs(seq.frame_shift_ms - upstream.frame_shift_ms) > 1e-6:
        raise FeatureFileError(
            f"{record.utt_id}: feature file frame shift {seq.frame_shift_ms} ms "
            f"!= upstream contract {upstream.frame_shift_ms} ms"
        )
    if seq.dim != upstream.feature_dim:
        raise FeatureFileError(
            f"{record.utt_id}: feature dim {seq.dim} != upstream contract {upstream.feature_dim}"
        )
    return resample_features(seq, audio.frame_shift_ms)


def resample_features(seq: FeatureSequence, target_shift_ms: float) -> FeatureSequence:
    """Linear time interpolation of a feature sequence onto a new frame rate.

    Output length is round-half-up(T * shift_in / shift_out).  Output frame i
    sits at input position i * shift_out / shift_in; positions past the last
    input frame hold the final row.  Equal shifts return the input unchanged.
    """
    if not target_shift_ms > 0:
        raise VoiceConversionError("target_shift_ms must be positive")
    target_shift_ms = float(np.float32(target_shift_ms))
    if target_shift_ms == seq.frame_shift_ms:
        return seq
    t_in = len(seq)
    ratio = seq.frame_shift_ms / target_shift_ms
    t_out = int(np.floor(t_in * ratio + 0.5))
    t_out = max(t_out, 1)
    positions = np.arange(t_out) / ratio
    lo = np.floor(positions).astype(int)
    np.clip(lo, 0, t_in - 1, out=lo)
    hi = np.minimum(lo + 1, t_in - 1)
    frac = np.clip(positions - lo, 0.0, 1.0)
    frames = np.asarray(seq.frames, dtype=np.float64)
    out = frames[lo] * (1.0 - frac)[:, None] + frames[hi] * frac[:, None]
    exact = frac == 0.0  # keep exactly-aligned rows bit-identical
    out[exact] = frames[lo[exact]]
    return FeatureSequence(out, target_shift_ms)
