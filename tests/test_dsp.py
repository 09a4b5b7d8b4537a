"""Signal-processing primitives: windows, STFT, mel filterbank, Griffin-Lim."""

import numpy as np
import pytest

from recsynvc import dsp
from recsynvc.config import AudioConfig
from recsynvc.dsp import hz_to_mel, mel_to_hz


def mel_center_frequencies(sample_rate, win_length, n_mels, fmin, fmax) -> np.ndarray:
    """Center frequency (Hz) of each triangular filter."""
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    return edges[1:-1]


# The kernels as first written, kept as references: the library's faster forms
# must return exactly these bits.

def _reference_stft(samples, win_length, hop_length):
    samples = np.asarray(samples, dtype=np.float64)
    n_frames = dsp.frame_count(samples.size, win_length, hop_length)
    idx = np.arange(win_length)[None, :] + hop_length * np.arange(n_frames)[:, None]
    return np.fft.rfft(samples[idx] * dsp.hann_window(win_length)[None, :], axis=1)


def _reference_istft(spectra, win_length, hop_length):
    spectra = np.asarray(spectra)
    n_frames = spectra.shape[0]
    window = dsp.hann_window(win_length)
    frames = np.fft.irfft(spectra, n=win_length, axis=1) * window[None, :]
    out_len = (n_frames - 1) * hop_length + win_length
    out = np.zeros(out_len)
    wsum = np.zeros(out_len)
    wsq = window * window
    for t in range(n_frames):
        start = t * hop_length
        out[start:start + win_length] += frames[t]
        wsum[start:start + win_length] += wsq
    nonzero = wsum > 1e-11
    out[nonzero] /= wsum[nonzero]
    return out


def _reference_griffin_lim(magnitudes, win_length, hop_length, n_iters):
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    signal = _reference_istft(magnitudes.astype(np.complex128), win_length, hop_length)
    for _ in range(n_iters):
        spectra = _reference_stft(signal, win_length, hop_length)
        phases = spectra / np.maximum(np.abs(spectra), 1e-12)
        signal = _reference_istft(magnitudes * phases, win_length, hop_length)
    return signal


def test_hann_window_is_periodic():
    win = dsp.hann_window(8)
    assert win[0] == 0.0
    assert win[4] == pytest.approx(1.0)
    # periodic variant: w[k] = 0.5 (1 - cos(2 pi k / N))
    k = np.arange(8)
    np.testing.assert_allclose(win, 0.5 * (1 - np.cos(2 * np.pi * k / 8)),
                               atol=1e-12)


def test_hann_window_is_cached_read_only():
    win = dsp.hann_window(64)
    assert dsp.hann_window(64) is win
    assert dsp.hann_window(100) is not win
    with pytest.raises(ValueError):
        win[0] = 1.0


def test_frame_count_no_centering():
    assert dsp.frame_count(1024, 1024, 240) == 1
    assert dsp.frame_count(1023, 1024, 240) == 0
    assert dsp.frame_count(1024 + 240, 1024, 240) == 2
    assert dsp.frame_count(9600, 1024, 240) == 36


def test_stft_shape_and_peak_bin():
    rate, win, hop = 24000, 1024, 240
    freq = 937.5  # exactly bin 40 at 24 kHz / 1024
    t = np.arange(rate) / rate
    x = 0.5 * np.sin(2 * np.pi * freq * t)
    spectra = dsp.stft(x, win, hop)
    assert spectra.shape == (dsp.frame_count(rate, win, hop), win // 2 + 1)
    assert np.iscomplexobj(spectra)
    mags = np.abs(spectra)
    assert np.all(np.argmax(mags, axis=1) == 40)


@pytest.mark.parametrize("n", [0, 1023, 1024, 1025, 72000])
def test_stft_matches_fancy_index_reference(n):
    x = np.random.default_rng(n).uniform(-0.5, 0.5, n)
    spectra = dsp.stft(x, 1024, 240)
    assert spectra.shape == (dsp.frame_count(n, 1024, 240), 513)
    assert np.array_equal(spectra, _reference_stft(x, 1024, 240))


def test_istft_reconstructs_interior():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, 24000)
    win, hop = 1024, 240
    y = dsp.istft(dsp.stft(x, win, hop), win, hop)
    n = min(len(x), len(y))
    # edges lack full window overlap; compare the interior
    np.testing.assert_allclose(y[win:n - win], x[win:n - win], atol=1e-8)


def test_mel_filterbank_properties():
    fb = dsp.mel_filterbank(24000, 1024, 80, 0.0, 12000.0)
    assert fb.shape == (80, 513)
    assert np.all(fb >= 0.0)
    assert np.all(fb.sum(axis=1) > 0.0)  # every filter has support
    centers = mel_center_frequencies(24000, 1024, 80, 0.0, 12000.0)
    assert len(centers) == 80
    assert np.all(np.diff(centers) > 0)  # strictly increasing
    assert centers[0] > 0.0 and centers[-1] < 12000.0


def test_mel_filterbank_is_cached_read_only_per_setting():
    low, high = AudioConfig(fmax=8000.0), AudioConfig(fmax=12000.0)
    banks = [dsp.mel_filterbank(a.sample_rate, a.win_length, 80, a.fmin, a.fmax)
             for a in (low, high, low)]
    assert banks[2] is banks[0]
    assert not np.array_equal(banks[0], banks[1])
    with pytest.raises(ValueError):
        banks[0][0, 0] = 1.0


def test_mel_scale_round_trip():
    freqs = np.array([0.0, 440.0, 1000.0, 8000.0])
    np.testing.assert_allclose(dsp.mel_to_hz(dsp.hz_to_mel(freqs)), freqs,
                               rtol=1e-10)


def test_griffin_lim_recovers_tone_magnitudes():
    rate, win, hop = 24000, 1024, 240
    t = np.arange(rate // 2) / rate
    x = 0.5 * np.sin(2 * np.pi * 937.5 * t)
    target = np.abs(dsp.stft(x, win, hop))

    def rel_err(n_iters):
        y = dsp.griffin_lim(target, win, hop, n_iters=n_iters)
        got = np.abs(dsp.stft(y, win, hop))
        n = min(len(target), len(got))
        return np.linalg.norm(got[:n] - target[:n]) / np.linalg.norm(target[:n])

    errs = [rel_err(n) for n in (8, 32, 64)]
    assert errs[0] > errs[1] > errs[2]  # iterations keep improving the fit
    assert errs[-1] < 0.15


def test_griffin_lim_deterministic():
    rng = np.random.default_rng(1)
    mags = np.abs(rng.standard_normal((12, 513)))
    a = dsp.griffin_lim(mags, 1024, 240, n_iters=8)
    b = dsp.griffin_lim(mags, 1024, 240, n_iters=8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n_frames", [1, 2, 46, 296])
def test_griffin_lim_matches_per_iteration_istft_reference(n_frames):
    rng = np.random.default_rng(n_frames)
    mags = np.abs(rng.standard_normal((n_frames, 513)))
    mags[:, rng.random(513) < 0.2] = 0.0  # zero-magnitude bins
    if n_frames > 1:
        mags[n_frames // 2, :] = 0.0  # and one silent frame
    for n_iters in (0, 1, 32):
        got = dsp.griffin_lim(mags, 1024, 240, n_iters=n_iters)
        assert np.array_equal(got, _reference_griffin_lim(mags, 1024, 240, n_iters)), n_iters
    spectra = rng.standard_normal((n_frames, 513)) + 1j * rng.standard_normal((n_frames, 513))
    assert np.array_equal(dsp.istft(spectra, 1024, 240), _reference_istft(spectra, 1024, 240))


@pytest.mark.parametrize("win, hop", [(1024, 256), (512, 512), (64, 100), (100, 7)])
@pytest.mark.parametrize("n_frames", [1, 2, 46])
def test_istft_and_griffin_lim_match_the_references_bit_for_bit(win, hop, n_frames):
    # overlap-add runs in hop-wide blocks: beside the default (1024, 240) of the
    # test above, a partial last block (100, 7), no overlap (512, 512) and
    # gaps between frames (64, 100)
    rng = np.random.default_rng([win, hop, n_frames])
    shape = (n_frames, win // 2 + 1)
    spectra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(dsp.istft(spectra, win, hop), _reference_istft(spectra, win, hop))
    mags = np.abs(spectra)
    for n_iters in (0, 1, 8):
        got = dsp.griffin_lim(mags, win, hop, n_iters=n_iters)
        assert np.array_equal(got, _reference_griffin_lim(mags, win, hop, n_iters)), n_iters


def test_griffin_lim_inverts_through_the_one_istft(monkeypatch):
    passed, built = [], []
    istft, window_sums = dsp.istft, dsp._window_sums

    def counting_istft(spectra, win_length, hop_length, sums=None):
        passed.append(sums)
        return istft(spectra, win_length, hop_length, sums)

    def counting_window_sums(*args):
        built.append(window_sums(*args))
        return built[-1]

    monkeypatch.setattr(dsp, "istft", counting_istft)
    monkeypatch.setattr(dsp, "_window_sums", counting_window_sums)
    mags = np.abs(np.random.default_rng(3).standard_normal((12, 513)))
    dsp.griffin_lim(mags, 1024, 240, n_iters=5)
    assert len(passed) == 5 + 1
    # one normaliser per call, shared by every inversion
    assert len(built) == 1 and all(sums is built[0] for sums in passed)
