"""Waveform file I/O and sample-rate conversion.

Files are 16-bit PCM RIFF.  Loading converts to mono float in [-1, 1] and
resamples to the requested working rate with a polyphase filter.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

from .errors import VoiceConversionError, WavFileError
from .types import ALLOWED_SAMPLE_RATES, Waveform

_PCM_SCALES = {
    np.dtype(np.int16): 2 ** 15,
    np.dtype(np.int32): 2 ** 31,
    np.dtype(np.uint8): None,  # handled separately (offset binary)
}


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


def load_waveform(path, target_rate: int | None = None) -> Waveform:
    """Read a wav file as mono float samples, optionally resampled.

    A file that cannot be decoded raises ``WavFileError``.
    """
    blob = Path(path).read_bytes()
    try:
        # from memory, so a chunk that claims more bytes than the file allocates no more
        rate, data = wavfile.read(io.BytesIO(blob))
    except Exception as exc:  # scipy: ValueError, struct.error, ZeroDivisionError, ...
        raise WavFileError(f"{path}: cannot decode wav: {exc}") from None
    if rate not in ALLOWED_SAMPLE_RATES:
        raise VoiceConversionError(
            f"{path}: sample rate {rate} not in {ALLOWED_SAMPLE_RATES}"
        )
    samples = _to_float(np.atleast_1d(data))
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    wave = Waveform(samples=np.clip(samples, -1.0, 1.0), sample_rate=int(rate))
    if target_rate is not None:
        wave = resample_waveform(wave, target_rate)
    return wave


def save_waveform(path, wave: Waveform) -> None:
    """Write 16-bit PCM RIFF."""
    pcm = np.clip(np.round(wave.samples * (2 ** 15 - 1)), -(2 ** 15), 2 ** 15 - 1)
    wavfile.write(Path(path), wave.sample_rate, pcm.astype(np.int16))
