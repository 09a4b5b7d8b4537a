"""Core signal processing: framing, STFT/ISTFT, mel filterbank, Griffin-Lim.

One fixed analysis chain is shared by the mel extractor, the cepstrum
computation, and the native vocoder so that analysis and resynthesis agree:
periodic Hann window, no center padding, magnitude spectra, and one ``istft``
for every inversion, Griffin-Lim's included.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def hann_window(win_length: int) -> np.ndarray:
    """Periodic Hann window."""
    n = np.arange(win_length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / win_length)


def frame_count(num_samples: int, win_length: int, hop_length: int) -> int:
    """Frames of a left-aligned, non-centered analysis: floor((N - win)/hop) + 1."""
    if num_samples < win_length:
        return 0
    return (num_samples - win_length) // hop_length + 1


def frame_signal(samples: np.ndarray, win_length: int, hop_length: int) -> np.ndarray:
    """Read-only strided view of a signal's overlapping frames, shape (T, win_length)."""
    if samples.size < win_length:
        return np.empty((0, win_length))
    return np.lib.stride_tricks.sliding_window_view(samples, win_length)[::hop_length]


def stft(samples: np.ndarray, win_length: int, hop_length: int) -> np.ndarray:
    """Complex STFT, shape (T, win_length // 2 + 1)."""
    frames = frame_signal(np.asarray(samples, dtype=np.float64), win_length, hop_length)
    return np.fft.rfft(frames * hann_window(win_length)[None, :], axis=1)


def istft(spectra: np.ndarray, win_length: int, hop_length: int, sums=None) -> np.ndarray:
    """Least-squares inverse STFT by windowed overlap-add.

    Returns (T - 1) * hop + win samples; the caller trims to taste. ``sums``
    is ``_window_sums`` for the T frames, if the caller already has it.
    """
    spectra = np.asarray(spectra)
    window = hann_window(win_length)
    wsum, nonzero = sums or _window_sums(spectra.shape[0], window, hop_length)
    frames = np.fft.irfft(spectra, n=win_length, axis=1) * window[None, :]
    out = np.zeros(wsum.size)
    for t in range(frames.shape[0]):
        out[t * hop_length:t * hop_length + win_length] += frames[t]
    np.divide(out, wsum, out=out, where=nonzero)
    return out


def _window_sums(n_frames, window, hop_length):
    """Overlap-added squared window of an n-frame ISTFT, and where it is nonzero.

    It depends only on the frame count, so Griffin-Lim builds it once per call.
    """
    win_length = window.size
    wsum = np.zeros((n_frames - 1) * hop_length + win_length)
    wsq = window * window
    for t in range(n_frames):
        wsum[t * hop_length:t * hop_length + win_length] += wsq
    return wsum, wsum > 1e-11


def hz_to_mel(freq):
    return 2595.0 * np.log10(1.0 + np.asarray(freq, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=16)
def mel_filterbank(sample_rate, win_length, n_mels, fmin, fmax) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, win_length // 2 + 1).

    Built once per audio setting; the cached array is read-only.
    """
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    freqs = np.fft.rfftfreq(win_length, d=1.0 / sample_rate)
    fb = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - freqs) / max(hi - center, 1e-12)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False
    return fb


def griffin_lim(magnitudes: np.ndarray, win_length: int, hop_length: int,
                n_iters: int) -> np.ndarray:
    """Iterative phase reconstruction from a magnitude STFT (T, F).

    Starts from zero phase, so the result is deterministic.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    sums = _window_sums(magnitudes.shape[0], hann_window(win_length), hop_length)
    signal = istft(magnitudes.astype(np.complex128), win_length, hop_length, sums)
    phased = np.empty(magnitudes.shape, dtype=np.complex128)
    for _ in range(n_iters):
        spectra = stft(signal, win_length, hop_length)
        # magnitudes * spectra / |spectra|, in the bits of numpy's complex / real
        # division, which scales both parts by the reciprocal of the divisor
        inv_abs = 1.0 / np.maximum(np.abs(spectra), 1e-12)
        np.multiply(spectra.real * inv_abs, magnitudes, out=phased.real)
        np.multiply(spectra.imag * inv_abs, magnitudes, out=phased.imag)
        signal = istft(phased, win_length, hop_length, sums)
    return signal
