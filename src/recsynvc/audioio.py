"""Waveform file I/O and sample-rate conversion.

Wavs are read and written with numpy alone.  ``load_waveform`` reads a
little-endian RIFF/WAVE file of 8-, 16-, 24- or 32-bit PCM or of 32- or
64-bit float samples, with a plain or ``WAVE_FORMAT_EXTENSIBLE`` format
chunk and any number of channels, which it mixes down to mono float in
[-1, 1].  It resamples to the working rate with a polyphase filter and
requires one analysis window of samples.  ``save_waveform`` writes 16-bit
PCM.  scipy is imported only to resample, so a process that reads and
writes working-rate wavs never loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .config import AudioConfig
from .container import Reader, pack, write_atomic
from .errors import VoiceConversionError, WavFileError, naming
from .types import Waveform

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
#: The last 12 bytes of an extensible format chunk's sub-format GUID, whose
#: first 4 bytes then hold the plain format tag.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _read_format(r: Reader) -> tuple[int, int, int, int]:
    """(format tag, channels, rate, bytes per sample) of a ``fmt `` chunk."""
    size = r.u32()
    if size < 16:
        raise VoiceConversionError(f"fmt chunk of {size} bytes, need at least 16")
    tag, channels, rate, byte_rate, block, _bits = r.unpack("HHIIHH")
    extension = bytes(r.take(size - 16 + size % 2))
    if tag == _EXTENSIBLE and size >= 40 and extension[12:24] == _GUID_TAIL:
        tag = int.from_bytes(extension[8:12], "little")
    if channels == 0 or block == 0 or block % channels:
        raise VoiceConversionError(f"{channels} channel(s) in a {block}-byte frame")
    if tag == _PCM and byte_rate != rate * block:
        raise VoiceConversionError(f"byte rate {byte_rate} is not {rate} Hz x {block} bytes")
    return tag, channels, rate, block // channels


def _decode(r: Reader, tag: int, channels: int, width: int) -> np.ndarray:
    """The ``data`` chunk's samples as float64, shape (frames, channels)."""
    size = r.u32()
    frame = width * channels
    if size % frame:
        raise VoiceConversionError(f"data chunk of {size} bytes is not whole "
                                   f"{frame}-byte frames")
    shape = (size // frame, channels)
    if tag == _FLOAT and width in (4, 8):
        return r.array(f"<f{width}", shape).astype(np.float64)
    if tag != _PCM:
        raise VoiceConversionError(f"unsupported wav format: tag {tag:#06x} "
                                   f"with {8 * width}-bit samples")
    if width == 1:  # 8-bit PCM is unsigned
        return (r.array("u1", shape).astype(np.float64) - 128.0) / 128.0
    if width == 2:
        return r.array("<i2", shape).astype(np.float64) / 2 ** 15
    if width == 3:  # widened to the high bytes of an int32, so scaled as 32-bit PCM
        wide = np.zeros((*shape, 4), dtype=np.uint8)
        wide[..., 1:] = r.array("u1", (*shape, 3))
        data = wide.view("<i4")[..., 0]
    elif width == 4:
        data = r.array("<i4", shape)
    else:
        raise VoiceConversionError(f"unsupported wav sample format int{8 * width}")
    return data.astype(np.float64) / 2 ** 31


def _read_wav(path) -> tuple[int, np.ndarray]:
    """(rate, samples of shape (frames, channels)) of a RIFF/WAVE file.

    Chunks before ``data`` other than ``fmt `` are skipped with their pad
    byte; bytes after the ``data`` chunk are ignored.
    """
    r = Reader(path, b"RIFF")
    r.u32()  # the RIFF size; each chunk below is checked against the bytes left
    if bytes(form := r.take(4)) != b"WAVE":
        raise VoiceConversionError(f"RIFF form {bytes(form)!r} is not WAVE")
    fmt = None
    while (chunk := bytes(r.take(4))) != b"data":
        if chunk == b"fmt ":
            fmt = _read_format(r)
        else:
            size = r.u32()
            r.take(size + size % 2)
    if fmt is None:
        raise VoiceConversionError("no fmt chunk before the data chunk")
    tag, channels, rate, width = fmt
    return rate, _decode(r, tag, channels, width)


def resample_waveform(wave: Waveform, target_rate: int) -> Waveform:
    if wave.sample_rate == target_rate:
        return wave
    from scipy.signal import resample_poly  # loads scipy only when rates differ

    g = math.gcd(wave.sample_rate, target_rate)
    out = resample_poly(wave.samples, target_rate // g, wave.sample_rate // g)
    peak = np.max(np.abs(out))
    if peak > 1.0:  # polyphase filtering can overshoot slightly
        out = out / peak
    return Waveform(samples=out, sample_rate=target_rate)


def load_waveform(path, audio: AudioConfig) -> Waveform:
    """Read a wav file as mono float samples resampled to ``audio.sample_rate``.

    Every defect of the file raises ``WavFileError`` naming it: bytes that
    cannot be decoded (RIFX, RF64 and compressed formats among them), an
    unsupported rate or sample format, a sample that is not finite, or fewer
    samples after resampling than one analysis window (``audio.win_length``).
    """
    with naming(path, WavFileError):
        rate, data = _read_wav(path)
        samples = data[:, 0] if data.shape[1] == 1 else data.mean(axis=1)
        # a float wav may overshoot full scale; ±inf is left for Waveform to refuse
        np.clip(samples, -1.0, 1.0, out=samples, where=np.isfinite(samples))
        wave = resample_waveform(Waveform(samples=samples, sample_rate=rate),
                                 audio.sample_rate)
        if len(wave) < audio.win_length:
            raise VoiceConversionError(f"need at least {audio.win_length} samples for one "
                                       f"analysis window, got {len(wave)}")
    return wave


def save_waveform(path, wave: Waveform) -> None:
    """Write 16-bit PCM RIFF, atomically."""
    pcm = np.clip(np.round(wave.samples * (2 ** 15 - 1)), -(2 ** 15), 2 ** 15 - 1)
    data = pcm.astype("<i2").tobytes()
    rate = wave.sample_rate
    write_atomic(path, [b"RIFF", pack("I", 36 + len(data)), b"WAVE",
                        b"fmt ", pack("IHHIIHH", 16, _PCM, 1, rate, 2 * rate, 2, 16),
                        b"data", pack("I", len(data)), data])
