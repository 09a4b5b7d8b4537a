"""Trained models and end-to-end conversion: recognize -> decode -> denormalize -> vocode.

Conversion is self-contained given a checkpoint: the ``TrainedModel`` in it
holds the decoder weights, the normalization statistics, the audio settings
and the upstream's name.  The source speaker's identity enters only through
the waveform itself.

Vocoding has a native fallback (iterative phase reconstruction from the mel
via the pseudo-inverse filterbank) and an external adapter path for neural
vocoders.  External tools are one process per call:

* vocoder: ``cmd <mel.s3vc> <out.wav>`` -- reads the binary feature file,
  writes RIFF/PCM.
* speaker encoder: ``cmd <in.wav> <out.s3vc>`` -- writes a 1 x E feature
  file; results are cached per utt_id with atomic write-then-rename.

Every adapter process, the evaluator's ASR included, is spawned by
``run_adapter``.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audioio import load_waveform, save_waveform
from .checkpoint import Checkpoint, load_checkpoint
from .config import AudioConfig, config_from_json
from .dsp import griffin_lim, mel_filterbank
from .errors import (
    AdapterError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidConfigError,
    NonFiniteInputError,
    ZeroMeanVectorError,
)
from .featureio import read_features, write_features, feature_path
from .recognizer import MEL_UPSTREAM, UpstreamSpec, recognize, resample_features
from .synthesizer import (
    ModelParameters,
    decoder_from_meta,
    decoder_meta,
    forward_free_running,
)
from .types import (
    LOG_MEL_FLOOR,
    N_MELS,
    FeatureSequence,
    MelSpectrogram,
    SpeakerEmbedding,
    Waveform,
)

STD_FLOOR = 1e-8
_STATS_PREFIX = "stats."


def normalize(frames, mean, std):
    return (np.asarray(frames, dtype=np.float64) - mean) / np.maximum(std, STD_FLOOR)


def denormalize(frames, mean, std):
    return np.asarray(frames, dtype=np.float64) * np.maximum(std, STD_FLOOR) + mean


@dataclass(frozen=True)
class TrainedModel:
    """A decoder, its ``stats.*`` vectors, audio settings, and upstream name and frame shift.

    The upstream's width is ``params.input_dim``.
    """

    params: ModelParameters
    stats: dict[str, np.ndarray]
    audio: AudioConfig
    upstream: str
    upstream_shift_ms: float

    def upstream_spec(self, feature_dir=None) -> UpstreamSpec:
        """The upstream this model reads; an external one needs ``feature_dir``."""
        return UpstreamSpec(self.upstream, self.params.input_dim, self.upstream_shift_ms,
                            native=self.upstream == MEL_UPSTREAM, feature_dir=feature_dir)


def model_checkpoint(model: TrainedModel, mode: str, step: int,
                     target_speaker: str | None) -> Checkpoint:
    """Inverse of ``load_model``; ``mode``, ``step`` and ``target_speaker`` record the run."""
    params = model.params
    meta = {
        "format": "recsynvc-checkpoint",
        "decoder": decoder_meta(params.config, params.input_dim),
        "upstream": {"name": model.upstream, "feature_dim": params.input_dim,
                     "frame_shift_ms": model.upstream_shift_ms},
        "audio": asdict(model.audio),
        "mode": mode,
        "step": step,
        "seed": params.seed,
        "target_speaker": target_speaker,
    }
    stats = {_STATS_PREFIX + name: tensor for name, tensor in model.stats.items()}
    return Checkpoint(meta=meta, tensors={**params.tensors, **stats})


def load_model(checkpoint) -> TrainedModel:
    """Read the model from a checkpoint or its path; inverse of ``model_checkpoint``.

    A missing meta entry or ``stats.*`` tensor, or one of the wrong type or
    width, raises ``InvalidConfigError`` naming it; ``ModelParameters`` checks
    the decoder tensors.  The returned tensors are the checkpoint's own arrays.
    """
    if not isinstance(checkpoint, Checkpoint):
        checkpoint = load_checkpoint(checkpoint)
    meta, tensors = checkpoint.meta, dict(checkpoint.tensors)
    config, input_dim = decoder_from_meta(meta.get("decoder"))
    audio = config_from_json(AudioConfig, meta.get("audio"), "checkpoint audio meta")
    seed = meta.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidConfigError(f"checkpoint meta 'seed': {seed!r} is not an integer")
    upstream = meta.get("upstream")
    if not (isinstance(upstream, dict)
            and upstream.keys() == {"name", "feature_dim", "frame_shift_ms"}
            and isinstance(upstream["name"], str) and upstream["feature_dim"] == input_dim
            and type(upstream["frame_shift_ms"]) in (int, float)
            and upstream["frame_shift_ms"] > 0):
        raise InvalidConfigError(
            f"checkpoint meta 'upstream': {upstream!r} is not an object with a "
            f"string name, feature_dim {input_dim} and a positive frame_shift_ms")
    stats = {}
    for name, width in (("input_mean", input_dim), ("input_std", input_dim),
                        ("target_mean", N_MELS), ("target_std", N_MELS)):
        stats[name] = tensors.pop(_STATS_PREFIX + name, None)
        shape = getattr(stats[name], "shape", None)
        if shape != (width,):
            raise InvalidConfigError(f"checkpoint tensor '{_STATS_PREFIX}{name}' has "
                                     f"shape {shape}, expected ({width},)")
    params = ModelParameters(config=config, input_dim=input_dim, tensors=tensors,
                             seed=seed)
    return TrainedModel(params=params, stats=stats, audio=audio,
                        upstream=upstream["name"],
                        upstream_shift_ms=float(upstream["frame_shift_ms"]))


def convert(source, checkpoint, feature_dir=None,
            s: SpeakerEmbedding | None = None,
            dropout_seed: int = 0) -> MelSpectrogram:
    """Convert one source utterance into the target voice's mel spectrogram.

    ``source`` is a Waveform or an UtteranceRecord; a model trained on an
    external upstream reads the record's features from ``feature_dir``.
    ``s`` must be given exactly when the model is speaker-conditioned.
    """
    model = load_model(checkpoint)
    audio, stats = model.audio, model.stats
    content = recognize(source, model.upstream_spec(feature_dir), audio)
    content = resample_features(content, audio.frame_shift_ms)
    frames = normalize(content.frames, stats["input_mean"], stats["input_std"])
    out = forward_free_running(model.params, frames, embedding=s,
                               dropout_seed=dropout_seed)
    mel = denormalize(out, stats["target_mean"], stats["target_std"])
    return MelSpectrogram(np.maximum(mel, LOG_MEL_FLOOR), audio.frame_shift_ms)


def average_embedding(embeddings) -> SpeakerEmbedding:
    """Mean of unit embeddings, re-normalized to the unit sphere."""
    embeddings = list(embeddings)
    if not embeddings:
        raise EmptyInputError("cannot average an empty list of embeddings")
    vectors = []
    dim = None
    for e in embeddings:
        vec = e.vector if isinstance(e, SpeakerEmbedding) else np.asarray(e, dtype=np.float64)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DimensionMismatchError(
                f"embedding dims disagree: {dim} vs {vec.size}"
            )
        vectors.append(vec)
    mean = np.mean(vectors, axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-8:
        raise ZeroMeanVectorError(
            "embeddings average to (near) zero; cannot renormalize"
        )
    return SpeakerEmbedding(mean / norm)


# --- vocoding -------------------------------------------------------------------

def vocode_native(mel, audio: AudioConfig) -> Waveform:
    """Iterative phase reconstruction from the mel, no external model.

    Output length is trimmed to T x hop samples; amplitude is scaled down
    when the peak exceeds 1 (never boosted, so silence stays silent).
    """
    frames = mel.frames if isinstance(mel, MelSpectrogram) else np.asarray(mel, dtype=np.float64)
    if not np.all(np.isfinite(frames)):
        raise NonFiniteInputError("mel contains non-finite values")
    energies = np.exp(frames)
    fb = mel_filterbank(audio.sample_rate, audio.win_length, audio.n_mels,
                        audio.fmin, audio.fmax)
    # energies ~ |S| @ fb.T; invert with the pseudo-inverse, clip negatives
    magnitudes = np.maximum(energies @ np.linalg.pinv(fb).T, 0.0)
    wave = griffin_lim(magnitudes, audio.win_length, audio.hop_length,
                       n_iters=audio.griffin_lim_iters)
    wave = wave[: frames.shape[0] * audio.hop_length]
    peak = float(np.max(np.abs(wave))) if wave.size else 0.0
    if peak > 1.0:
        wave = wave / peak
    return Waveform(wave, audio.sample_rate)


def run_adapter(command, args) -> tuple[str, str]:
    """Run one external adapter process and return its ``(stdout, stderr)``.

    ``command`` is a shell-style string or a sequence of arguments; ``args``
    (paths, usually) are appended to it.  Both streams are decoded as UTF-8.
    Raises ``AdapterError`` when the command is empty or cannot be started,
    exits with a nonzero status, or prints stdout that is not UTF-8.
    """
    if isinstance(command, (str, Path)):
        argv = shlex.split(str(command))
    else:
        argv = [str(c) for c in command]
    if not argv:
        raise AdapterError("empty adapter command")
    name = f"adapter {shlex.join(argv)!r}"
    try:
        # looked up on the module at each call, so a wrapper installed there sees it
        proc = subprocess.run(argv + [str(a) for a in args], capture_output=True)
    except OSError as exc:
        raise AdapterError(f"cannot start {name}: {exc}") from exc
    stderr = proc.stderr.decode("utf-8", errors="replace")
    if proc.returncode != 0:
        raise AdapterError(f"{name} exited with status {proc.returncode}", stderr)
    try:
        return proc.stdout.decode("utf-8"), stderr
    except UnicodeDecodeError as exc:
        raise AdapterError(f"{name} printed non-UTF-8 output: {exc}", stderr) from exc


def vocode_external(mel, command, audio: AudioConfig) -> Waveform:
    """Run an external vocoder process on one mel spectrogram.

    The adapter receives the mel as a binary feature file and must write a
    RIFF/PCM wav to the given output path.  Its output is resampled to the
    working rate when it uses a different one.
    """
    frames = mel.frames if isinstance(mel, MelSpectrogram) else np.asarray(mel, dtype=np.float64)
    seq = FeatureSequence(frames.astype(np.float32), audio.frame_shift_ms,
                          source_name="mel")
    with tempfile.TemporaryDirectory(prefix="vocoder_") as tmp:
        mel_path = Path(tmp) / "input.s3vc"
        wav_path = Path(tmp) / "output.wav"
        write_features(mel_path, seq)
        _, stderr = run_adapter(command, [mel_path, wav_path])
        if not wav_path.exists():
            raise AdapterError("vocoder wrote no output file", stderr)
        try:
            return load_waveform(wav_path, target_rate=audio.sample_rate)
        except Exception as exc:
            raise AdapterError(f"vocoder output unreadable: {exc}", stderr)


def vocode(mel, audio: AudioConfig, vocoder: str = "native") -> Waveform:
    """Dispatch on a vocoder selector: "native" or "external:<command>"."""
    if vocoder == "native":
        return vocode_native(mel, audio)
    if vocoder.startswith("external:"):
        return vocode_external(mel, vocoder[len("external:"):], audio)
    raise AdapterError(f"unknown vocoder selector {vocoder!r}")


# --- speaker encoder --------------------------------------------------------------

def speaker_encoder_adapter(wave_or_path, command, cache_dir=None,
                            utt_id: str | None = None,
                            expected_dim: int | None = None) -> SpeakerEmbedding:
    """Extract a speaker embedding via an external encoder process.

    With ``cache_dir`` and ``utt_id`` set, a previously extracted embedding is
    reused without spawning anything; fresh results are cached atomically.
    """
    if cache_dir is not None and utt_id is not None:
        cached = feature_path(cache_dir, utt_id)
        if cached.exists():
            return read_embedding(cached, expected_dim)

    with tempfile.TemporaryDirectory(prefix="spkenc_") as tmp:
        tmp = Path(tmp)
        if isinstance(wave_or_path, Waveform):
            wav_path = tmp / "input.wav"
            save_waveform(wav_path, wave_or_path)
        else:
            wav_path = Path(wave_or_path)
        out_path = tmp / "embedding.s3vc"
        _, stderr = run_adapter(command, [wav_path, out_path])
        if not out_path.exists():
            raise AdapterError("speaker encoder wrote no output file", stderr)
        seq = read_features(out_path)
        embedding = _embedding_from(seq, out_path, expected_dim)
        if cache_dir is not None and utt_id is not None:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
            write_features(feature_path(cache_dir, utt_id), seq)
        return embedding


def read_embedding(path, expected_dim=None) -> SpeakerEmbedding:
    return _embedding_from(read_features(path), path, expected_dim)


def _embedding_from(seq: FeatureSequence, path, expected_dim) -> SpeakerEmbedding:
    if len(seq) != 1:
        raise DimensionMismatchError(
            f"{path}: expected a single embedding row, got {len(seq)} frames"
        )
    vec = np.asarray(seq.frames[0], dtype=np.float64)
    if expected_dim is not None and vec.size != expected_dim:
        raise DimensionMismatchError(
            f"{path}: embedding dim {vec.size} != expected {expected_dim}"
        )
    return SpeakerEmbedding.from_raw(vec)
