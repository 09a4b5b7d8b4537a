"""Core signal processing: framing, STFT/ISTFT, mel filterbank, Griffin-Lim.

One fixed analysis chain is shared by the mel extractor, the cepstrum
computation, and the native vocoder so that analysis and resynthesis agree:
periodic Hann window, no center padding, magnitude spectra, and one ``istft``
for every inversion, Griffin-Lim's included.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def hann_window(win_length: int) -> np.ndarray:
    """Periodic Hann window, built once per length; the cached array is read-only."""
    n = np.arange(win_length)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / win_length)
    window.flags.writeable = False
    return window


def frame_count(num_samples: int, win_length: int, hop_length: int) -> int:
    """Frames of a left-aligned, non-centered analysis: floor((N - win)/hop) + 1."""
    if num_samples < win_length:
        return 0
    return (num_samples - win_length) // hop_length + 1


def frame_signal(samples: np.ndarray, win_length: int, hop_length: int) -> np.ndarray:
    """Read-only strided view of a signal's overlapping frames, shape (T, win_length)."""
    n_frames = frame_count(samples.size, win_length, hop_length)
    if not n_frames:
        return np.empty((0, win_length))
    step = samples.strides[0]
    return np.lib.stride_tricks.as_strided(samples, (n_frames, win_length),
                                           (hop_length * step, step), writeable=False)


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
    frames = np.fft.irfft(spectra, n=win_length, axis=1)
    frames *= window
    out = _overlap_add(frames, hop_length)
    np.divide(out, wsum, out=out, where=nonzero)
    return out


def _overlap_add(frames, hop_length):
    """Sum of the (T, win) frames placed hop samples apart, (T - 1) * hop + win samples.

    Each frame is cut into hop-wide blocks, and block j of every frame lands in
    output chunk t + j, so each pass over j adds one (T, hop) array.  Running
    j from the last block to the first adds each sample's frames in
    increasing t, as a frame-by-frame loop does, so the bits are the same.
    """
    n_frames, win_length = frames.shape
    n_blocks = -(-win_length // hop_length)
    out = np.zeros((n_frames + n_blocks - 1, hop_length))
    for j in range(n_blocks - 1, -1, -1):
        block = frames[:, j * hop_length:(j + 1) * hop_length]
        out[j:j + n_frames, :block.shape[1]] += block
    return out.reshape(-1)[:(n_frames - 1) * hop_length + win_length]


def _window_sums(n_frames, window, hop_length):
    """Overlap-added squared window of an n-frame ISTFT, and where it is nonzero.

    It depends only on the frame count, so Griffin-Lim builds it once per call.
    """
    wsq = np.broadcast_to(window * window, (n_frames, window.size))
    wsum = _overlap_add(wsq, hop_length)
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
    for _ in range(n_iters):
        spectra = stft(signal, win_length, hop_length)
        # magnitudes * spectra / |spectra|, in the bits of numpy's complex / real
        # division, which scales both parts by the reciprocal of the divisor
        inv_abs = np.abs(spectra)
        np.maximum(inv_abs, 1e-12, out=inv_abs)
        np.divide(1.0, inv_abs, out=inv_abs)
        for part in (spectra.real, spectra.imag):
            part *= inv_abs
            part *= magnitudes
        signal = istft(spectra, win_length, hop_length, sums)
    return signal
