"""WAV I/O: PCM16 round-trips, resampling on load, and scipy's codec as the oracle
for every accepted format and for the bytes written."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from helpers import BAD_WAVS, corrupt_variants
from recsynvc.audioio import load_waveform, resample_waveform, save_waveform
from recsynvc.config import AudioConfig
from recsynvc.errors import VoiceConversionError, WavFileError
from recsynvc.types import Waveform

#: Working-rate settings that accept a wav of any length, for tests of short files.
ANY_LENGTH = AudioConfig(win_length=1)


def _sine(freq, seconds, rate, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=rate)


def test_round_trip_within_pcm16_quantization(tmp_path):
    wave = _sine(440.0, 0.1, 24000)
    path = tmp_path / "a.wav"
    save_waveform(path, wave)
    back = load_waveform(path, AudioConfig())
    assert back.sample_rate == 24000
    assert len(back) == len(wave)
    assert np.max(np.abs(back.samples - wave.samples)) < 2.0 / 32767


def test_load_resamples_when_asked(tmp_path):
    wave = _sine(440.0, 0.1, 48000)
    path = tmp_path / "a.wav"
    save_waveform(path, wave)
    back = load_waveform(path, AudioConfig())
    assert back.sample_rate == 24000
    assert abs(len(back) - len(wave) // 2) <= 2


def test_load_at_the_file_rate_keeps_samples(tmp_path):
    wave = _sine(100.0, 0.05, 16000)
    path = tmp_path / "a.wav"
    save_waveform(path, wave)
    back = load_waveform(path, AudioConfig(sample_rate=16000, fmax=8000.0, win_length=1))
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - wave.samples)) < 2.0 / 32767


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


def test_resampling_overshoot_is_scaled_back_to_full_scale():
    # a full-scale square wave rings past 1 when upsampled (peak 1.268 before scaling)
    t = np.arange(1600) / 16000
    square = Waveform(samples=np.sign(np.sin(2 * np.pi * 440.0 * t + 0.1)), sample_rate=16000)
    up = resample_waveform(square, 24000)
    assert np.max(np.abs(up.samples)) == 1.0
    assert abs(len(up) - 2400) <= 1


def test_missing_file():
    with pytest.raises(Exception):
        load_waveform("/nonexistent/a.wav", AudioConfig())


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
                load_waveform(path, ANY_LENGTH)
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


@pytest.mark.parametrize("defect", sorted(BAD_WAVS))
def test_every_defect_is_a_wav_file_error_naming_the_file(tmp_path, defect):
    rate, data, message = BAD_WAVS[defect]
    path = tmp_path / "bad.wav"
    wavfile.write(path, rate, data)
    with pytest.raises(WavFileError, match=rf"^{path}: .*{message}"):
        load_waveform(path, AudioConfig())


def test_float_overshoot_is_clipped_to_full_scale(tmp_path):
    path = tmp_path / "loud.wav"
    wavfile.write(path, 24000, np.array([0.5, 1.5, -2.0]))
    assert load_waveform(path, ANY_LENGTH).samples.tolist() == [0.5, 1.0, -1.0]


# --- scipy's codec as the oracle ----------------------------------------------------

def _scipy_decode(path) -> np.ndarray:
    """``scipy.io.wavfile.read`` plus the scaling ``load_waveform`` applies:
    full scale to ±1, channels averaged, float overshoot clipped."""
    _, data = wavfile.read(path)
    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype.kind == "f":
        samples = data.astype(np.float64)
    else:
        samples = data.astype(np.float64) / {2: 2 ** 15, 4: 2 ** 31}[data.dtype.itemsize]
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return np.clip(samples, -1.0, 1.0)


def _random_samples(dtype, channels, n=500):
    rng = np.random.default_rng(channels)
    shape = (n, channels) if channels > 1 else (n,)
    if np.dtype(dtype).kind == "f":
        return (1.2 * rng.uniform(-1.0, 1.0, shape)).astype(dtype)  # some overshoot
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, shape, endpoint=True, dtype=dtype)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("dtype", ["uint8", "int16", "int32", "float32", "float64"])
def test_load_decodes_what_scipy_writes(tmp_path, dtype, channels):
    path = tmp_path / "a.wav"
    wavfile.write(path, 24000, _random_samples(dtype, channels))
    wave = load_waveform(path, ANY_LENGTH)
    assert wave.sample_rate == 24000
    assert np.array_equal(wave.samples, _scipy_decode(path))


def _chunk(name: bytes, body: bytes) -> bytes:
    return name + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def _wav(fmt: bytes, data: bytes, before_data: bytes = b"") -> bytes:
    body = b"WAVE" + _chunk(b"fmt ", fmt) + before_data + _chunk(b"data", data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _pcm_format(channels, width, tag=1, rate=24000) -> bytes:
    block = channels * width
    return struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, 8 * width)


def _extensible_format(channels, width, sub_tag) -> bytes:
    guid = struct.pack("<I", sub_tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return (_pcm_format(channels, width, tag=0xFFFE)
            + struct.pack("<HHI", 22, 8 * width, 0) + guid)


def _int24_bytes(channels, n=500) -> bytes:
    rng = np.random.default_rng(24)
    values = rng.integers(-(2 ** 23), 2 ** 23, (n, channels))
    return b"".join(int(v).to_bytes(3, "little", signed=True) for v in values.ravel())


HAND_BUILT = {
    "int24_mono": lambda: _wav(_pcm_format(1, 3), _int24_bytes(1)),
    "int24_stereo": lambda: _wav(_pcm_format(2, 3), _int24_bytes(2)),
    "extensible_int16": lambda: _wav(_extensible_format(2, 2, 1),
                                     _random_samples("int16", 2).tobytes()),
    "extensible_int24": lambda: _wav(_extensible_format(3, 3, 1), _int24_bytes(3)),
    "extensible_float32": lambda: _wav(_extensible_format(1, 4, 3),
                                       _random_samples("float32", 1).tobytes()),
    # a 15-byte LIST chunk, so a pad byte follows it before the data chunk
    "odd_list_chunk": lambda: _wav(_pcm_format(1, 2), _random_samples("int16", 1).tobytes(),
                                   before_data=_chunk(b"LIST", b"INFOIART\x03\0\0\0ab\0")),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_load_decodes_hand_built_files_as_scipy_does(tmp_path, name):
    path = tmp_path / "a.wav"
    path.write_bytes(HAND_BUILT[name]())
    assert np.array_equal(load_waveform(path, ANY_LENGTH).samples, _scipy_decode(path))


def _rf64(fmt: bytes, data: bytes) -> bytes:
    """RIFF with 64-bit sizes: the ``ds64`` chunk holds the RIFF and data sizes."""
    riff_size = 4 + (8 + 28) + (8 + len(fmt)) + 8 + len(data)
    ds64 = _chunk(b"ds64", struct.pack("<QQQI", riff_size, len(data), len(data) // 2, 0))
    body = b"WAVE" + ds64 + _chunk(b"fmt ", fmt) + b"data" + b"\xff" * 4 + data
    return b"RF64" + b"\xff" * 4 + body


REFUSED = {
    # big-endian RIFF: same layout, every field big-endian
    "rifx": lambda: b"RIFX" + struct.pack(">I", 36 + 4) + b"WAVE" + b"fmt " + struct.pack(
        ">IHHIIHH", 16, 1, 1, 24000, 48000, 2, 16) + b"data" + struct.pack(">I", 4) + b"\0" * 4,
    "rf64": lambda: _rf64(_pcm_format(1, 2), b"\0" * 4),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_rifx_and_rf64_are_refused_naming_the_file(tmp_path, name):
    path = tmp_path / "a.wav"
    path.write_bytes(REFUSED[name]())
    assert wavfile.read(path)[1].size == 2  # valid files of their kind
    with pytest.raises(WavFileError, match=rf"^{path}: bad magic b'{name.upper()}'"):
        load_waveform(path, ANY_LENGTH)


def test_compressed_format_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(_wav(_pcm_format(1, 1, tag=0x0006), b"\0" * 8))  # A-law
    with pytest.raises(WavFileError, match=rf"^{path}: unsupported wav format: tag 0x0006"):
        load_waveform(path, ANY_LENGTH)


@pytest.mark.parametrize("n", [1, 2, 999, 24000])
def test_save_writes_the_bytes_scipy_writes(tmp_path, n):
    rng = np.random.default_rng(n)
    wave = Waveform(samples=rng.uniform(-1.0, 1.0, n), sample_rate=16000)
    save_waveform(tmp_path / "ours.wav", wave)
    pcm = np.clip(np.round(wave.samples * (2 ** 15 - 1)), -(2 ** 15), 2 ** 15 - 1)
    wavfile.write(tmp_path / "scipy.wav", 16000, pcm.astype(np.int16))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
