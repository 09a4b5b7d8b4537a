"""Content recognition: turn a waveform (or a pre-extracted feature file) into
the frame-rate representation consumed by the synthesizer.

The only native extractor is the 80-bin log-mel spectrogram.  Every other
upstream (self-supervised models, posteriorgrams, ...) is produced by an
external toolchain and ingested from per-utterance feature files; this module
never runs such models in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .config import AudioConfig
from .errors import (
    DimensionMismatchError,
    MissingFeatureError,
    NonFiniteInputError,
    TooShortInputError,
    VoiceConversionError,
)
from .featureio import feature_path, read_features
from .types import (
    LOG_MEL_FLOOR,
    MEL_FLOOR,
    N_MELS,
    FeatureSequence,
    MelSpectrogram,
    UtteranceRecord,
    Waveform,
)

MEL_UPSTREAM = "mel"


@dataclass(frozen=True)
class UpstreamSpec:
    """Identity and frame geometry of one content representation."""

    name: str
    feature_dim: int
    frame_shift_ms: float
    native: bool = False
    feature_dir: Path | None = None

    def __post_init__(self):
        if self.feature_dim < 1:
            raise VoiceConversionError("feature_dim must be positive")
        if not self.frame_shift_ms > 0:
            raise VoiceConversionError("frame_shift_ms must be positive")
        if self.native and (self.name, self.feature_dim) != (MEL_UPSTREAM, N_MELS):
            raise VoiceConversionError(
                f"only the {N_MELS}-dim {MEL_UPSTREAM!r} upstream is native, "
                f"got {self.name!r} with dim {self.feature_dim}"
            )
        if not self.native and self.feature_dir is None:
            raise VoiceConversionError(
                f"external upstream {self.name!r} needs a feature directory (--feature-dir)"
            )
        if self.feature_dir is not None:
            object.__setattr__(self, "feature_dir", Path(self.feature_dir))


def mel_upstream(audio: AudioConfig | None = None) -> UpstreamSpec:
    """The native mel upstream matching an audio configuration."""
    audio = audio or AudioConfig()
    return UpstreamSpec(
        name=MEL_UPSTREAM,
        feature_dim=audio.n_mels,
        frame_shift_ms=audio.frame_shift_ms,
        native=True,
    )


def external_upstream(name, feature_dim, frame_shift_ms, feature_dir) -> UpstreamSpec:
    return UpstreamSpec(
        name=name,
        feature_dim=int(feature_dim),
        frame_shift_ms=float(frame_shift_ms),
        native=False,
        feature_dir=feature_dir,
    )


def extract_mel(wave: Waveform, audio: AudioConfig | None = None) -> MelSpectrogram:
    """80-bin log-mel spectrogram of a working-rate waveform.

    Frames follow the left-aligned analysis (T = floor((N - win)/hop) + 1);
    mel energies come from the magnitude STFT through a triangular filterbank
    and are clamped at the floor before the natural log.
    """
    audio = audio or AudioConfig()
    if wave.sample_rate != audio.sample_rate:
        raise VoiceConversionError(
            f"waveform rate {wave.sample_rate} != working rate {audio.sample_rate}; "
            "resample on ingestion"
        )
    if len(wave) < audio.win_length:
        raise TooShortInputError(
            f"need at least {audio.win_length} samples for one analysis window, "
            f"got {len(wave)}"
        )
    if not np.all(np.isfinite(wave.samples)):
        raise NonFiniteInputError("waveform contains non-finite samples")
    spectra = np.abs(dsp.stft(wave.samples, audio.win_length, audio.hop_length))
    fb = dsp.mel_filterbank(
        audio.sample_rate, audio.win_length, audio.n_mels, audio.fmin, audio.fmax
    )
    energies = spectra @ fb.T
    frames = np.log(np.maximum(energies, MEL_FLOOR))
    return MelSpectrogram(frames=frames, frame_shift_ms=audio.frame_shift_ms)


def recognize(source, spec: UpstreamSpec, audio: AudioConfig | None = None) -> FeatureSequence:
    """Produce the content representation of one utterance.

    Native upstream: ``source`` is a ``Waveform`` (or a record whose wav is
    loaded on demand) and the mel extractor runs in-process.  External
    upstream: ``source`` is an ``UtteranceRecord`` whose features are read
    from ``spec.feature_dir``; values pass through untouched.
    """
    if spec.native:
        if isinstance(source, UtteranceRecord):
            from .audioio import load_waveform  # lazy: avoids scipy at import
            audio = audio or AudioConfig()
            wave = load_waveform(source.wav_path, target_rate=audio.sample_rate)
        elif isinstance(source, Waveform):
            wave = source
        else:
            raise VoiceConversionError(
                f"native upstream expects a waveform or record, got {type(source).__name__}"
            )
        mel = extract_mel(wave, audio)
        seq = FeatureSequence(mel.frames, mel.frame_shift_ms, source_name=spec.name)
    else:
        if not isinstance(source, UtteranceRecord):
            raise VoiceConversionError(
                f"external upstream {spec.name!r} expects an utterance record"
            )
        path = feature_path(spec.feature_dir, source.utt_id)
        if not path.exists():
            raise MissingFeatureError(source.utt_id, detail=str(path))
        seq = read_features(path, source_name=spec.name)
        if abs(seq.frame_shift_ms - spec.frame_shift_ms) > 1e-6:
            raise DimensionMismatchError(
                f"{source.utt_id}: feature file frame shift {seq.frame_shift_ms} ms "
                f"!= upstream contract {spec.frame_shift_ms} ms"
            )
    if seq.dim != spec.feature_dim:
        utt = source.utt_id if isinstance(source, UtteranceRecord) else "<waveform>"
        raise DimensionMismatchError(
            f"{utt}: feature dim {seq.dim} != upstream contract {spec.feature_dim}"
        )
    return seq


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
    return FeatureSequence(out, target_shift_ms, source_name=seq.source_name)


def mel_from_features(seq: FeatureSequence) -> MelSpectrogram:
    """Reinterpret an 80-dim feature sequence as a mel spectrogram."""
    frames = np.maximum(np.asarray(seq.frames, dtype=np.float64), LOG_MEL_FLOOR)
    return MelSpectrogram(frames=frames, frame_shift_ms=seq.frame_shift_ms)
