"""Trained models and end-to-end conversion: recognize -> decode -> denormalize -> vocode.

Conversion is self-contained given a checkpoint: the ``TrainedModel`` in it
holds the decoder weights, the normalization statistics, the audio settings
and the upstream.  The source speaker's identity enters only through
the waveform itself.

Vocoding has a native fallback (iterative phase reconstruction from the mel
via the pseudo-inverse filterbank) and an external adapter path for neural
vocoders.  External tools are one process per call:

* vocoder: ``cmd <mel.s3vc> <out.wav>`` -- reads the binary feature file,
  writes RIFF/PCM.
* speaker encoder: ``cmd <in.wav> <out.s3vc>`` -- writes a 1 x E feature
  file; results are cached per utt_id with atomic write-then-rename.

Every adapter process, the evaluator's ASR included, is spawned by
``run_adapter``, killed when it runs past ``ADAPTER_TIMEOUT_S`` and killed
when it writes more than its output ceiling to any one file.
"""

from __future__ import annotations

import shlex
import signal
import subprocess
import tempfile
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .audioio import load_waveform, save_waveform
from .checkpoint import Checkpoint, load_checkpoint
from .config import AudioConfig, ModelConfig, config_from_json
from .dsp import griffin_lim, mel_filterbank
from .errors import AdapterError, ConfigError, FeatureFileError, VoiceConversionError, naming
from .featureio import read_features, write_features, feature_path
from .recognizer import Upstream, recognize
from .synthesizer import ModelParameters, forward_free_running, parameter_shapes
from .types import (
    LOG_MEL_FLOOR,
    N_MELS,
    FeatureSequence,
    MelSpectrogram,
    SpeakerEmbedding,
    UtteranceRecord,
    Waveform,
    embedding_rows,
)

STD_FLOOR = 1e-8
_STATS_PREFIX = "stats."

#: Seconds one adapter process may run.  An adapter handles one utterance, and
#: a neural model loading and running on CPU for it takes well under a minute;
#: ten minutes leaves room for a slow machine while a hung adapter still ends
#: the run with an error instead of blocking it for good.
ADAPTER_TIMEOUT_S = 600.0

#: Bytes an adapter may write to any one file: its stdout (a transcript), its
#: stderr, or an embedding.  Each fits in far less; an adapter that floods its
#: output is killed at this size instead of filling memory or the disk.
ADAPTER_OUTPUT_BYTES = 16 << 20

#: Bytes per second of audio that a vocoder's wav may add to that ceiling:
#: 192 kHz stereo 64-bit float, more than any wav a vocoder writes.
_WAV_BYTES_PER_S = 192_000 * 2 * 8

#: Bytes of an adapter's stderr read back for its error messages.
_STDERR_PREFIX_BYTES = 1 << 16


def normalize(frames, mean, std):
    return (np.asarray(frames, dtype=np.float64) - mean) / np.maximum(std, STD_FLOOR)


def denormalize(frames, mean, std):
    return np.asarray(frames, dtype=np.float64) * np.maximum(std, STD_FLOOR) + mean


@dataclass(frozen=True)
class TrainedModel:
    """A decoder, its ``stats.*`` vectors, audio settings, and the upstream it reads.

    The upstream's ``feature_dim`` is ``params.input_dim``.
    """

    params: ModelParameters
    stats: dict[str, np.ndarray]
    audio: AudioConfig
    upstream: Upstream


def model_checkpoint(model: TrainedModel, step: int, target_speaker: str | None) -> Checkpoint:
    """Inverse of ``load_model``; ``step`` and ``target_speaker`` record the run.

    The ``"decoder"`` entry is every ``ModelConfig`` field plus ``input_dim``
    and ``speaker_conditioned``; ``"mode"`` is ``"a2a"`` for a
    speaker-conditioned model and ``"a2o"`` otherwise.
    """
    params = model.params
    meta = {
        "format": "recsynvc-checkpoint",
        "decoder": {**asdict(params.config), "prenet_dims": list(params.config.prenet_dims),
                    "input_dim": params.input_dim,
                    "speaker_conditioned": params.speaker_conditioned},
        "upstream": asdict(model.upstream),
        "audio": {**asdict(model.audio), "n_mels": N_MELS},
        "mode": "a2a" if params.speaker_conditioned else "a2o",
        "step": step,
        "seed": params.seed,
        "target_speaker": target_speaker,
    }
    stats = {_STATS_PREFIX + name: tensor for name, tensor in model.stats.items()}
    return Checkpoint(meta=meta, tensors={**params.tensors, **stats})


def load_model(checkpoint) -> TrainedModel:
    """Read the model from a checkpoint or its path; inverse of ``model_checkpoint``.

    A missing or wrongly typed meta entry, an ``upstream`` entry that breaks
    ``Upstream``'s rules, and a missing, unexpected or wrongly shaped tensor
    raise ``ConfigError`` naming it.  One map, ``parameter_shapes`` plus the
    ``stats.*`` vectors, gives every tensor's name and shape; the values are
    ``load_checkpoint``'s to check.  The returned tensors are the checkpoint's own.
    """
    if not isinstance(checkpoint, Checkpoint):
        checkpoint = load_checkpoint(checkpoint)
    meta, tensors = checkpoint.meta, dict(checkpoint.tensors)
    decoder = meta.get("decoder")
    config = config_from_json(ModelConfig, decoder, "checkpoint decoder meta",
                              input_dim="int", speaker_conditioned="bool")
    input_dim = decoder["input_dim"]
    audio = config_from_json(AudioConfig, meta.get("audio"), "checkpoint audio meta",
                             n_mels="int")
    if meta["audio"]["n_mels"] != N_MELS:
        raise ConfigError(f"checkpoint audio meta 'n_mels': "
                          f"{meta['audio']['n_mels']!r} is not {N_MELS}")
    seed = meta.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"checkpoint meta 'seed': {seed!r} is not an integer")
    upstream = config_from_json(Upstream, meta.get("upstream"), "checkpoint meta 'upstream'")
    if upstream.feature_dim != input_dim:
        raise ConfigError(f"checkpoint meta 'upstream': feature_dim {upstream.feature_dim} "
                          f"!= decoder input_dim {input_dim}")
    conditioned = decoder["speaker_conditioned"]
    stats_widths = dict(input_mean=input_dim, input_std=input_dim, target_mean=N_MELS,
                        target_std=N_MELS)
    expected = {**parameter_shapes(config, input_dim, conditioned),
                **{_STATS_PREFIX + name: (width,) for name, width in stats_widths.items()}}
    if tensors.keys() != expected.keys():
        raise ConfigError(f"checkpoint tensors do not fit the {config.type} config: "
                          f"missing {sorted(expected.keys() - tensors.keys())}, "
                          f"unexpected {sorted(tensors.keys() - expected.keys())}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ConfigError(f"checkpoint tensor {name!r} has shape {tensors[name].shape}, "
                              f"expected {shape}")
    stats = {name: tensors.pop(_STATS_PREFIX + name) for name in stats_widths}
    params = ModelParameters(config=config, input_dim=input_dim,
                             speaker_conditioned=conditioned, tensors=tensors, seed=seed)
    return TrainedModel(params=params, stats=stats, audio=audio, upstream=upstream)


def convert(record: UtteranceRecord, checkpoint, feature_dir=None,
            s: SpeakerEmbedding | None = None,
            dropout_seed: int = 0) -> MelSpectrogram:
    """Convert one source utterance into the target voice's mel spectrogram.

    A model trained on an external upstream reads the record's features from
    ``feature_dir``, which is given exactly then; their width and frame shift
    must be the checkpoint's.  ``s`` must be given exactly when the model is
    speaker-conditioned.  A source of T content frames vocodes to T x hop
    samples, so one with T x hop below one analysis window raises
    ``VoiceConversionError``: no metric could read its wav.
    """
    model = load_model(checkpoint)
    audio, stats = model.audio, model.stats
    content = recognize(record, model.upstream, audio, feature_dir)
    if (n_samples := len(content) * audio.hop_length) < audio.win_length:
        raise VoiceConversionError(
            f"{len(content)} content frame(s) vocode to {n_samples} samples, "
            f"fewer than one {audio.win_length}-sample analysis window")
    frames = normalize(content.frames, stats["input_mean"], stats["input_std"])
    out = forward_free_running(model.params, frames, embedding=s,
                               dropout_seed=dropout_seed)
    mel = denormalize(out, stats["target_mean"], stats["target_std"])
    return MelSpectrogram(np.maximum(mel, LOG_MEL_FLOOR), audio.frame_shift_ms)


def average_embedding(embeddings) -> SpeakerEmbedding:
    """Mean of embeddings (or plain vectors), re-normalized to the unit sphere."""
    rows = embedding_rows(embeddings)
    if not len(rows):
        raise VoiceConversionError("cannot average an empty list of embeddings")
    mean = rows.mean(axis=0)
    if np.linalg.norm(mean) < 1e-8:
        raise VoiceConversionError("embeddings average to (near) zero; cannot renormalize")
    return SpeakerEmbedding.from_raw(mean)


# --- vocoding -------------------------------------------------------------------

def vocode_native(mel: MelSpectrogram, audio: AudioConfig) -> Waveform:
    """Iterative phase reconstruction from the mel, no external model.

    Output length is trimmed to T x hop samples; amplitude is scaled down
    when the peak exceeds 1 (never boosted, so silence stays silent).
    """
    energies = np.exp(mel.frames)
    # energies ~ |S| @ fb.T; invert with the pseudo-inverse, clip negatives
    fb_pinv = _mel_pseudo_inverse(audio.sample_rate, audio.win_length, audio.fmin,
                                  audio.fmax)
    magnitudes = np.maximum(energies @ fb_pinv.T, 0.0)
    wave = griffin_lim(magnitudes, audio.win_length, audio.hop_length,
                       n_iters=audio.griffin_lim_iters)
    wave = wave[: len(mel) * audio.hop_length]
    peak = float(np.max(np.abs(wave))) if wave.size else 0.0
    if peak > 1.0:
        wave = wave / peak
    return Waveform(wave, audio.sample_rate)


@lru_cache(maxsize=16)
def _mel_pseudo_inverse(sample_rate, win_length, fmin, fmax) -> np.ndarray:
    """Read-only pseudo-inverse of the mel filterbank, built once per audio setting."""
    fb_pinv = np.linalg.pinv(mel_filterbank(sample_rate, win_length, N_MELS, fmin, fmax))
    fb_pinv.flags.writeable = False
    return fb_pinv


def _argv(command: str) -> list[str]:
    """Split a shell-style adapter command; an empty or unparsable one raises ``AdapterError``."""
    with naming(f"cannot parse adapter command {command!r}", AdapterError, ValueError):
        argv = shlex.split(command)
    if not argv:
        raise AdapterError("empty adapter command")
    return argv


def run_adapter(command: str, args, max_bytes: int | None = None) -> tuple[str, str]:
    """Run one external adapter process and return its ``(stdout, stderr)``.

    ``command`` is a shell-style string; ``args`` (paths, usually) are
    appended to it.  Its stdout and stderr go to temporary files, and ``sh``
    limits each file it writes to ``max_bytes`` (``ADAPTER_OUTPUT_BYTES`` when
    None) before it execs the command; a larger write kills it with
    ``SIGXFSZ``.  Both streams are decoded as UTF-8, stderr only its first
    ``_STDERR_PREFIX_BYTES``.  Raises ``AdapterError`` when the command is empty,
    unparsable or cannot be started, runs longer than ``ADAPTER_TIMEOUT_S``
    (the process is killed), is killed by the file-size limit, exits with a
    nonzero status, or prints stdout that is not UTF-8.
    """
    argv = _argv(command)
    name = f"adapter {shlex.join(argv)!r}"
    ceiling = ADAPTER_OUTPUT_BYTES if max_bytes is None else max_bytes
    # POSIX ulimit -f counts 512-byte blocks (bash outside POSIX mode counts 1024).
    # The command writes stdout to the file passed in as fd 0 and reads /dev/null.
    # Its fd 3 holds run()'s stdout pipe open until it exits, so run() sees the
    # exit as the pipe's end instead of polling for it (about 3 ms a spawn).
    limited = ["/bin/sh", "-c",
               f'ulimit -f {-(-ceiling // 512)}; exec "$@" 3>&1 >&0 </dev/null', "sh"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        try:
            # looked up on the module at each call, so a wrapper installed there sees it
            returncode = subprocess.run(limited + argv + [str(a) for a in args], stdin=out,
                                        stdout=subprocess.PIPE, stderr=err,
                                        timeout=ADAPTER_TIMEOUT_S).returncode
        except OSError as exc:
            raise AdapterError(f"cannot start {name}: {exc}") from exc
        except subprocess.TimeoutExpired:
            returncode = None
        err.seek(0)
        stderr = err.read(_STDERR_PREFIX_BYTES).decode("utf-8", errors="replace")
        if returncode is None:
            raise AdapterError(f"{name} was killed after the {ADAPTER_TIMEOUT_S:g} s limit",
                               stderr)
        if returncode == -signal.SIGXFSZ:
            raise AdapterError(f"{name} was killed for writing more than its "
                               f"{ceiling}-byte output ceiling to one file", stderr)
        if returncode != 0:
            raise AdapterError(f"{name} exited with status {returncode}", stderr)
        out.seek(0)
        stdout = out.read()
    try:
        return stdout.decode("utf-8"), stderr
    except UnicodeDecodeError as exc:
        raise AdapterError(f"{name} printed non-UTF-8 output: {exc}", stderr) from exc


def vocode_external(mel: MelSpectrogram, command, audio: AudioConfig) -> Waveform:
    """Run an external vocoder process on one mel spectrogram.

    The adapter receives the mel as a binary feature file and must write a
    RIFF/PCM wav to the given output path.  Its output is resampled to the
    working rate when it uses a different one.
    """
    seq = FeatureSequence(mel.frames.astype(np.float32), audio.frame_shift_ms)
    with tempfile.TemporaryDirectory(prefix="vocoder_") as tmp:
        mel_path = Path(tmp) / "input.s3vc"
        wav_path = Path(tmp) / "output.wav"
        write_features(mel_path, seq)
        seconds = len(mel) * audio.frame_shift_ms / 1000.0
        _, stderr = run_adapter(command, [mel_path, wav_path],
                                ADAPTER_OUTPUT_BYTES + int(seconds * _WAV_BYTES_PER_S))
        return _adapter_output(
            "vocoder", wav_path, stderr,
            lambda path: load_waveform(path, audio))


def _adapter_output(adapter: str, path: Path, stderr: str, read):
    """``read(path)`` of the file an adapter was asked to write.

    A missing or unreadable file raises ``AdapterError`` naming ``adapter``
    and carrying the adapter's stderr.
    """
    if not path.exists():
        raise AdapterError(f"{adapter} wrote no output file", stderr)
    with naming(f"{adapter} output unreadable", AdapterError, (VoiceConversionError, OSError),
                stderr):
        return read(path)


def vocoder_command(vocoder: str) -> str | None:
    """The command of an ``"external:<command>"`` selector, None for ``"native"``.

    Any other selector, or an empty or unparsable command, raises ``AdapterError``.
    """
    if vocoder == "native":
        return None
    if vocoder.startswith("external:"):
        command = vocoder[len("external:"):]
        _argv(command)
        return command
    raise AdapterError(f"unknown vocoder selector {vocoder!r}")


def vocode(mel: MelSpectrogram, audio: AudioConfig, vocoder: str = "native") -> Waveform:
    """Dispatch on a vocoder selector: "native" or "external:<command>"."""
    command = vocoder_command(vocoder)
    if command is None:
        return vocode_native(mel, audio)
    return vocode_external(mel, command, audio)


# --- speaker encoder --------------------------------------------------------------

def speaker_encoder_adapter(wave_or_path, command, cache_dir=None,
                            utt_id: str | None = None) -> SpeakerEmbedding:
    """Extract a speaker embedding via an external encoder process.

    With ``cache_dir`` and ``utt_id`` set, the embedding cached for ``utt_id``
    is reused without spawning anything when it is not older than the wav at
    ``wave_or_path`` (for an in-memory ``Waveform``, whenever it exists);
    otherwise the wav is encoded again. Only a newer wav mtime is seen: a
    replacement that keeps an older mtime (``cp -p``, a restore), a rewrite
    within the entry's timestamp tick and a changed ``command`` are not.
    Fresh results are cached atomically.
    """
    if cache_dir is not None and utt_id is not None:
        cached = feature_path(cache_dir, utt_id)
        if cached.exists() and (
                isinstance(wave_or_path, Waveform)
                or cached.stat().st_mtime_ns >= Path(wave_or_path).stat().st_mtime_ns):
            return read_embedding(cached)

    with tempfile.TemporaryDirectory(prefix="spkenc_") as tmp:
        tmp = Path(tmp)
        if isinstance(wave_or_path, Waveform):
            wav_path = tmp / "input.wav"
            save_waveform(wav_path, wave_or_path)
        else:
            wav_path = Path(wave_or_path)
        out_path = tmp / "embedding.s3vc"
        _, stderr = run_adapter(command, [wav_path, out_path])
        seq = _adapter_output("speaker encoder", out_path, stderr, read_features)
        with naming(f"speaker encoder output for {wav_path}", AdapterError,
                    VoiceConversionError, stderr):
            embedding = _embedding_from(seq)
        if cache_dir is not None and utt_id is not None:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
            write_features(feature_path(cache_dir, utt_id), seq)
        return embedding


def read_embedding(path, expected_dim=None) -> SpeakerEmbedding:
    """The embedding in the feature file at ``path``.

    A file that is not one non-zero row, or whose width is not
    ``expected_dim`` when that is given, raises ``FeatureFileError`` naming it.
    """
    seq = read_features(path)
    with naming(path, FeatureFileError):
        return _embedding_from(seq, expected_dim)


def _embedding_from(seq: FeatureSequence, expected_dim=None) -> SpeakerEmbedding:
    """The one-row embedding in ``seq``, normalized to unit length."""
    if len(seq) != 1:
        raise VoiceConversionError(f"expected a single embedding row, got {len(seq)} frames")
    vec = np.asarray(seq.frames[0], dtype=np.float64)
    if expected_dim is not None and vec.size != expected_dim:
        raise VoiceConversionError(f"embedding dim {vec.size} != expected {expected_dim}")
    return SpeakerEmbedding.from_raw(vec)
