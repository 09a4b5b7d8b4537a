"""Waveform file I/O and sample-rate conversion.

Files are 16-bit PCM RIFF.  Loading converts to mono float in [-1, 1],
resamples to the working rate with a polyphase filter and requires one
analysis window of samples.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

from .config import AudioConfig
from .errors import VoiceConversionError, WavFileError
from .types import Waveform

_PCM_SCALES = {np.dtype(np.int16): 2 ** 15, np.dtype(np.int32): 2 ** 31}


def _to_float(data: np.ndarray) -> np.ndarray:
    if data.dtype in (np.float32, np.float64):
        return data.astype(np.float64)
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    scale = _PCM_SCALES.get(data.dtype)
    if scale is None:
        raise VoiceConversionError(f"unsupported wav sample format {data.dtype}")
    return data.astype(np.float64) / scale


def resample_waveform(wave: Waveform, target_rate: int) -> Waveform:
    if wave.sample_rate == target_rate:
        return wave
    g = math.gcd(wave.sample_rate, target_rate)
    out = resample_poly(wave.samples, target_rate // g, wave.sample_rate // g)
    peak = np.max(np.abs(out))
    if peak > 1.0:  # polyphase filtering can overshoot slightly
        out = out / peak
    return Waveform(samples=out, sample_rate=target_rate)


def load_waveform(path, audio: AudioConfig) -> Waveform:
    """Read a wav file as mono float samples resampled to ``audio.sample_rate``.

    Every defect of the file raises ``WavFileError`` naming it: bytes that
    cannot be decoded, an unsupported rate or sample format, a sample that
    is not finite, or fewer samples after resampling than one analysis
    window (``audio.win_length``).
    """
    blob = Path(path).read_bytes()
    try:
        # from memory, so a chunk that claims more bytes than the file allocates no more
        rate, data = wavfile.read(io.BytesIO(blob))
    except Exception as exc:  # scipy: ValueError, struct.error, ZeroDivisionError, ...
        raise WavFileError(f"{path}: cannot decode wav: {exc}") from None
    try:
        samples = _to_float(np.atleast_1d(data))
        if samples.ndim == 2:
            samples = samples.mean(axis=1)
        # a float wav may overshoot full scale; ±inf is left for Waveform to refuse
        np.clip(samples, -1.0, 1.0, out=samples, where=np.isfinite(samples))
        wave = Waveform(samples=samples, sample_rate=int(rate))
    except VoiceConversionError as exc:
        raise WavFileError(f"{path}: {exc}") from None
    wave = resample_waveform(wave, audio.sample_rate)
    if len(wave) < audio.win_length:
        raise WavFileError(f"{path}: need at least {audio.win_length} samples for one "
                           f"analysis window, got {len(wave)}")
    return wave


def save_waveform(path, wave: Waveform) -> None:
    """Write 16-bit PCM RIFF."""
    pcm = np.clip(np.round(wave.samples * (2 ** 15 - 1)), -(2 ** 15), 2 ** 15 - 1)
    wavfile.write(Path(path), wave.sample_rate, pcm.astype(np.int16))
