"""Domain types shared by every module.

All types validate their invariants at construction time and are immutable
afterwards; numpy payloads are marked read-only so instances can be shared
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateUtteranceError,
    EmptyManifestError,
    NonFiniteInputError,
    SingleSpeakerError,
    VoiceConversionError,
)

#: Sample rates accepted for ingested audio.  Everything is resampled to the
#: configured working rate right after loading.
ALLOWED_SAMPLE_RATES = (16000, 22050, 24000, 44100, 48000)

#: Mel energies are clamped here before the log is taken, so log-mel frames
#: never fall below ``log(MEL_FLOOR)``.
MEL_FLOOR = 1e-10
LOG_MEL_FLOOR = float(np.log(MEL_FLOOR))

#: Number of mel bins used as the synthesis target.
N_MELS = 80

#: Manifest roles.
ROLE_TARGET_SPEAKER = "target_speaker"
ROLE_MULTI_SPEAKER = "multi_speaker"
ROLE_SOURCE_EVAL = "source_eval"
MANIFEST_ROLES = (ROLE_TARGET_SPEAKER, ROLE_MULTI_SPEAKER, ROLE_SOURCE_EVAL)


def _readonly(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


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
            raise NonFiniteInputError("waveform contains non-finite samples")
        if np.max(np.abs(samples)) > 1.0 + 1e-6:
            raise VoiceConversionError("waveform samples exceed [-1, 1]")
        if self.sample_rate not in ALLOWED_SAMPLE_RATES:
            raise VoiceConversionError(
                f"unsupported sample rate {self.sample_rate}; "
                f"expected one of {ALLOWED_SAMPLE_RATES}"
            )
        object.__setattr__(self, "samples", _readonly(np.clip(samples, -1.0, 1.0)))

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

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
    source_name: str = ""

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise VoiceConversionError(
                f"feature frames must be a T x D matrix with T, D >= 1, got shape {frames.shape}"
            )
        if not np.all(np.isfinite(frames)):
            raise NonFiniteInputError("feature frames contain non-finite values")
        if not self.frame_shift_ms > 0:
            raise VoiceConversionError("frame_shift_ms must be positive")
        object.__setattr__(self, "frames", _readonly(frames))
        object.__setattr__(self, "frame_shift_ms", float(np.float32(self.frame_shift_ms)))

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def __len__(self):
        return self.frames.shape[0]


@dataclass(frozen=True)
class MelSpectrogram:
    """Log-mel frames (T x 80), floored at ``LOG_MEL_FLOOR``."""

    frames: np.ndarray
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != N_MELS:
            raise VoiceConversionError(
                f"mel frames must be T x {N_MELS}, got shape {frames.shape}"
            )
        if frames.shape[0] < 1:
            raise VoiceConversionError("mel spectrogram must contain at least one frame")
        if not np.all(np.isfinite(frames)):
            raise NonFiniteInputError("mel frames contain non-finite values")
        if np.min(frames) < LOG_MEL_FLOOR - 1e-9:
            raise VoiceConversionError(
                f"mel entries fall below the log floor {LOG_MEL_FLOOR:.4f}"
            )
        if not self.frame_shift_ms > 0:
            raise VoiceConversionError("frame_shift_ms must be positive")
        object.__setattr__(self, "frames", _readonly(frames))
        object.__setattr__(self, "frame_shift_ms", float(self.frame_shift_ms))

    def __len__(self):
        return self.frames.shape[0]

    def as_features(self, source_name="mel") -> FeatureSequence:
        return FeatureSequence(self.frames, self.frame_shift_ms, source_name)


@dataclass(frozen=True)
class SpeakerEmbedding:
    """Unit-norm speaker vector used for any-to-any conditioning."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise VoiceConversionError("embedding must be a non-empty 1-D vector")
        if not np.all(np.isfinite(vec)):
            raise NonFiniteInputError("embedding contains non-finite values")
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


@dataclass(frozen=True)
class UtteranceRecord:
    utt_id: str
    speaker_id: str
    wav_path: Path
    transcript: str | None = None
    language: str = "en"

    def __post_init__(self):
        if not self.utt_id:
            raise VoiceConversionError("utt_id must be non-empty")
        if not self.speaker_id:
            raise VoiceConversionError("speaker_id must be non-empty")
        object.__setattr__(self, "wav_path", Path(self.wav_path))


@dataclass(frozen=True)
class DatasetManifest:
    """An ordered collection of utterance records with a declared role."""

    records: tuple[UtteranceRecord, ...]
    role: str = ROLE_SOURCE_EVAL
    _speakers: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        records = tuple(self.records)
        if self.role not in MANIFEST_ROLES:
            raise VoiceConversionError(
                f"unknown manifest role {self.role!r}; expected one of {MANIFEST_ROLES}"
            )
        seen = {}
        for position, rec in enumerate(records, start=1):
            if rec.utt_id in seen:
                raise DuplicateUtteranceError(rec.utt_id, seen[rec.utt_id], position)
            seen[rec.utt_id] = position
        speakers = tuple(sorted({rec.speaker_id for rec in records}))
        if self.role == ROLE_TARGET_SPEAKER:
            if not records:
                raise EmptyManifestError("target_speaker manifest has no records")
            if len(speakers) != 1:
                raise VoiceConversionError(
                    f"target_speaker manifest must contain exactly one speaker, "
                    f"found {len(speakers)}"
                )
        elif self.role == ROLE_MULTI_SPEAKER:
            if len(speakers) < 2:
                raise SingleSpeakerError(
                    f"multi_speaker manifest needs >= 2 speakers, found {len(speakers)}"
                )
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "_speakers", speakers)

    @property
    def speakers(self) -> tuple[str, ...]:
        return self._speakers

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
