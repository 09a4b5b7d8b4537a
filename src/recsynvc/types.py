"""Domain types shared by every module.

All types validate their invariants at construction time and are immutable
afterwards; numpy payloads are marked read-only so instances can be shared
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ManifestError, VoiceConversionError

#: Sample rates accepted for ingested audio.  Everything is resampled to the
#: configured working rate right after loading.
ALLOWED_SAMPLE_RATES = (16000, 22050, 24000, 44100, 48000)

#: Mel energies are clamped here before the log is taken, so log-mel frames
#: never fall below ``log(MEL_FLOOR)``.
MEL_FLOOR = 1e-10
LOG_MEL_FLOOR = float(np.log(MEL_FLOOR))

#: Number of mel bins used as the synthesis target.
N_MELS = 80


def _readonly(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def _set_frames(seq, dtype, what: str) -> None:
    """Cast ``seq``'s frames and frame shift to ``dtype`` and check them.

    The frames must form a finite T x D matrix with T, D >= 1, and the shift,
    tested after the cast, must be positive and finite.  Both are stored back,
    the frames read-only.
    """
    frames = np.asarray(seq.frames, dtype=dtype)
    with np.errstate(over="ignore"):  # a shift past float32's range becomes inf, rejected below
        shift = float(dtype(seq.frame_shift_ms))
    if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
        raise VoiceConversionError(
            f"{what} frames must be a T x D matrix with T, D >= 1, got shape {frames.shape}"
        )
    if not np.all(np.isfinite(frames)):
        raise VoiceConversionError(f"{what} frames contain non-finite values")
    if not 0.0 < shift < np.inf:
        raise VoiceConversionError(f"frame_shift_ms must be positive and finite, got {shift}")
    object.__setattr__(seq, "frames", _readonly(frames))
    object.__setattr__(seq, "frame_shift_ms", shift)


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise VoiceConversionError("waveform must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise VoiceConversionError("waveform contains non-finite samples")
        if np.max(np.abs(samples)) > 1.0 + 1e-6:
            raise VoiceConversionError("waveform samples exceed [-1, 1]")
        if self.sample_rate not in ALLOWED_SAMPLE_RATES:
            raise VoiceConversionError(
                f"unsupported sample rate {self.sample_rate}; "
                f"expected one of {ALLOWED_SAMPLE_RATES}"
            )
        object.__setattr__(self, "samples", _readonly(np.clip(samples, -1.0, 1.0)))

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class FeatureSequence:
    """Frame-rate content representation: a T x D matrix plus frame metadata.

    Frames are held as float32 and the frame shift is coerced through float32,
    matching the binary interchange format, so file round-trips are exact.
    """

    frames: np.ndarray
    frame_shift_ms: float

    def __post_init__(self):
        _set_frames(self, np.float32, "feature")

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def __len__(self):
        return self.frames.shape[0]


@dataclass(frozen=True)
class MelSpectrogram:
    """Log-mel frames (T x 80), floored at ``LOG_MEL_FLOOR``."""

    frames: np.ndarray
    frame_shift_ms: float

    def __post_init__(self):
        _set_frames(self, np.float64, "mel")
        if self.frames.shape[1] != N_MELS:
            raise VoiceConversionError(
                f"mel frames must be T x {N_MELS}, got shape {self.frames.shape}"
            )
        if np.min(self.frames) < LOG_MEL_FLOOR - 1e-9:
            raise VoiceConversionError(
                f"mel entries fall below the log floor {LOG_MEL_FLOOR:.4f}"
            )

    def __len__(self):
        return self.frames.shape[0]

    def as_features(self) -> FeatureSequence:
        return FeatureSequence(self.frames, self.frame_shift_ms)


@dataclass(frozen=True)
class SpeakerEmbedding:
    """Unit-norm speaker vector used for any-to-any conditioning."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise VoiceConversionError("embedding must be a non-empty 1-D vector")
        if not np.all(np.isfinite(vec)):
            raise VoiceConversionError("embedding contains non-finite values")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-6:
            raise VoiceConversionError(
                f"embedding must be unit-norm (got norm {norm:.6g}); "
                "normalize before constructing"
            )
        object.__setattr__(self, "vector", _readonly(vec))

    @property
    def dim(self) -> int:
        return self.vector.size

    @classmethod
    def from_raw(cls, vec) -> "SpeakerEmbedding":
        """Normalize an arbitrary vector to unit length and wrap it."""
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        norm = float(np.linalg.norm(vec))
        if not np.isfinite(norm) or norm < 1e-12:
            raise VoiceConversionError("cannot normalize a zero or non-finite vector")
        return cls(vec / norm)


def embedding_rows(embeddings) -> np.ndarray:
    """Embeddings or plain vectors as float64 rows; ``VoiceConversionError`` on mixed widths."""
    rows = [np.asarray(e.vector if isinstance(e, SpeakerEmbedding) else e, dtype=np.float64)
            for e in embeddings]
    widths = list(dict.fromkeys(row.size for row in rows))
    if len(widths) > 1:
        raise VoiceConversionError(f"embedding dims disagree: {widths[0]} vs {widths[1]}")
    return np.array(rows)


@dataclass(frozen=True)
class UtteranceRecord:
    utt_id: str
    speaker_id: str
    wav_path: Path
    transcript: str | None = None

    def __post_init__(self):
        if not self.utt_id:
            raise VoiceConversionError("utt_id must be non-empty")
        # output files are named after the id, so it may not name another directory
        if "/" in self.utt_id or "\0" in self.utt_id or self.utt_id in (".", ".."):
            raise VoiceConversionError(
                f"utt_id {self.utt_id!r} must be one file-name component: "
                "no '/' or NUL, and not '.' or '..'"
            )
        if not self.speaker_id:
            raise VoiceConversionError("speaker_id must be non-empty")
        object.__setattr__(self, "wav_path", Path(self.wav_path))


@dataclass(frozen=True)
class DatasetManifest:
    """Utterance records with distinct ids; the command that reads a manifest
    decides its speaker count (``trainer.train`` for A2O and A2A)."""

    records: tuple[UtteranceRecord, ...]
    role: str | None = None  # nothing reads it; goes with perfbench's ``role=`` (ROADMAP item 1)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = {}
        for position, rec in enumerate(self.records, start=1):
            if rec.utt_id in seen:
                raise ManifestError(f"duplicate utt_id {rec.utt_id!r} in records "
                                    f"{seen[rec.utt_id]} and {position}")
            seen[rec.utt_id] = position

    @property
    def speakers(self) -> tuple[str, ...]:
        return tuple(sorted({rec.speaker_id for rec in self.records}))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
