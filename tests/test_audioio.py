"""WAV I/O: PCM16 round-trips and resampling on load."""

import tracemalloc

import numpy as np
import pytest

from helpers import corrupt_variants
from recsynvc.audioio import load_waveform, resample_waveform, save_waveform
from recsynvc.errors import VoiceConversionError
from recsynvc.types import Waveform


def _sine(freq, seconds, rate, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=rate)


def test_round_trip_within_pcm16_quantization(tmp_path):
    wave = _sine(440.0, 0.1, 24000)
    path = tmp_path / "a.wav"
    save_waveform(path, wave)
    back = load_waveform(path)
    assert back.sample_rate == 24000
    assert len(back) == len(wave)
    assert np.max(np.abs(back.samples - wave.samples)) < 2.0 / 32767


def test_load_resamples_when_asked(tmp_path):
    wave = _sine(440.0, 0.1, 48000)
    path = tmp_path / "a.wav"
    save_waveform(path, wave)
    back = load_waveform(path, target_rate=24000)
    assert back.sample_rate == 24000
    assert abs(len(back) - len(wave) // 2) <= 2


def test_load_without_target_keeps_rate(tmp_path):
    wave = _sine(100.0, 0.05, 16000)
    path = tmp_path / "a.wav"
    save_waveform(path, wave)
    assert load_waveform(path).sample_rate == 16000


def test_resample_identity():
    wave = _sine(440.0, 0.1, 24000)
    same = resample_waveform(wave, 24000)
    assert np.array_equal(same.samples, wave.samples)


def test_resample_preserves_tone(tmp_path):
    # a 440 Hz tone is still a 440 Hz tone after 24k -> 48k
    wave = _sine(440.0, 0.2, 24000)
    up = resample_waveform(wave, 48000)
    spectrum = np.abs(np.fft.rfft(up.samples * np.hanning(len(up))))
    peak_hz = np.argmax(spectrum) * 48000 / len(up)
    assert abs(peak_hz - 440.0) < 10.0


def test_missing_file():
    with pytest.raises(Exception):
        load_waveform("/nonexistent/a.wav")


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
def test_every_truncation_and_bit_flip_is_typed(tmp_path):
    path = tmp_path / "a.wav"
    save_waveform(path, _sine(440.0, 0.002, 24000))  # 48 samples
    escaped = []
    tracemalloc.start()
    try:
        for label, blob in corrupt_variants(path.read_bytes()):
            path.write_bytes(blob)
            try:
                load_waveform(path, target_rate=24000)
            except VoiceConversionError:
                pass
            except Exception as exc:
                escaped.append(f"{label}: {type(exc).__name__}: {exc}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert escaped == []
    # a header may claim gigabytes; nothing may be allocated for them
    assert peak < 1 << 20
