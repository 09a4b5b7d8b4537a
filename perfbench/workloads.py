"""Benchmark workloads: input synthesis, timed passes and output checks.

Inputs are synthesised from the workload seed with ``recsynvc.synthetic`` and
numpy's seeded generator; the program sees only the generated files.  All
load comes from this one process as a closed loop with one client: each CLI
command starts after the previous one returns.

A workload is a ``setup`` (timed as ``setup_s``, outside the measured region)
and a ``run_pass`` that drives the real entry points once.  Each pass returns
the command wall times and the observed outputs that ``check_pass`` compares
with the reference recorded from the seed code.
"""

from __future__ import annotations

import contextlib
import json
import math
import shlex
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from recsynvc import cli, evaluator
from recsynvc.audioio import save_waveform
from recsynvc.checkpoint import load_checkpoint
from recsynvc.config import AudioConfig, ModelConfig
from recsynvc.converter import average_embedding
from recsynvc.dsp import frame_count
from recsynvc.featureio import write_features
from recsynvc.manifest import write_manifest
from recsynvc.synthetic import make_utterance
from recsynvc.types import DatasetManifest, FeatureSequence, SpeakerEmbedding, UtteranceRecord

STUB_DIR = Path(__file__).resolve().parent / "stubs"
DECODER_TYPES = ("taco2_ar", "simple_ar")

# Relative tolerances against the recorded reference.  They admit the
# summation-order changes of kernel rewrites (float64 rounding, which Adam's
# sign-like first update can turn into a few flipped 1e-4 weight steps), not
# changed results.  wer, asv and threshold do not depend on decoded audio.
TOLERANCES = {"loss": 1e-5, "param_norm": 1e-6, "mcd": 1e-3,
              "wer": 1e-9, "asv": 1e-9, "threshold": 1e-9}


@dataclass(frozen=True)
class Sizes:
    """Corpus and model sizes; ``DEFAULT`` is what the benchmark measures."""

    name: str
    model: dict                 # [model] overrides on top of ModelConfig() defaults
    audio: dict                 # [audio] overrides on top of AudioConfig() defaults
    batch_size: int
    train_steps: int
    long_s: float               # utterance length on train and convert_long
    short_s: float              # utterance length on a2a_short and setup checkpoints
    n_long_sources: int
    n_short_sources: int
    n_target_embeddings: int
    calib_speakers: int
    calib_utts: int

    @property
    def embedding_dim(self) -> int:
        return ModelConfig(**self.model).embedding_dim

    @property
    def audio_config(self) -> AudioConfig:
        return AudioConfig(**self.audio)


DEFAULT = Sizes("default", model={}, audio={}, batch_size=8, train_steps=1,
                long_s=3.0, short_s=0.5, n_long_sources=4, n_short_sources=32,
                n_target_embeddings=5, calib_speakers=10, calib_utts=20)
TOY = Sizes("toy", model=dict(hidden_dim=8, lstmp_proj_dim=8, prenet_dims=(8, 8),
                              postnet_layers=2, postnet_channels=8, postnet_kernel=3,
                              embedding_dim=8),
            audio=dict(griffin_lim_iters=2), batch_size=2, train_steps=2,
            long_s=0.5, short_s=0.3, n_long_sources=2, n_short_sources=4,
            n_target_embeddings=2, calib_speakers=3, calib_utts=3)


# --- operations ----------------------------------------------------------------

@dataclass
class Ops:
    """Operations attempted and failed: CLI commands, utterances, output checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok


def run_cli(argv, log_path: Path, ops: Ops, tracer=None) -> float:
    """Run one ``recsynvc`` command in-process; returns its wall time.

    Diagnostics go to ``log_path``.  A non-zero exit status or an exception
    counts as a failed operation.
    """
    argv = [str(a) for a in argv]
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
    with open(log_path, "w", encoding="utf-8") as log, contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        try:
            with span:
                status = cli.main(argv)
        except (Exception, SystemExit):  # a crash is a failed operation, not ours
            traceback.print_exc(file=log)
            status = "exception"
        wall = time.perf_counter() - t0
    ops.record(f"recsynvc {argv[0]}", status == 0, f"exit {status}, see {log_path}")
    return wall


# --- input synthesis ---------------------------------------------------------------

def _write_corpus(root: Path, items, sizes: Sizes) -> Path:
    """Write wavs and a manifest for ``(utt_id, speaker_index, seconds, utt_seed)``."""
    wav_dir = root / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    rate = sizes.audio_config.sample_rate
    records = []
    for utt_id, speaker, seconds, utt_seed in items:
        wave, transcript = make_utterance(utt_seed, speaker, seconds, rate)
        save_waveform(wav_dir / f"{utt_id}.wav", wave)
        records.append(UtteranceRecord(utt_id=utt_id, speaker_id=f"SPK{speaker}",
                                       wav_path=Path("wav") / f"{utt_id}.wav",
                                       transcript=transcript))
    n_speakers = len({r.speaker_id for r in records})
    role = "target_speaker" if n_speakers == 1 else "multi_speaker"
    path = root / "manifest.jsonl"
    write_manifest(path, DatasetManifest(tuple(records), role=role))
    return path


def _frames(seconds: float, sizes: Sizes) -> int:
    audio = sizes.audio_config
    return frame_count(int(seconds * audio.sample_rate), audio.win_length, audio.hop_length)


def _ini_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _write_config(path: Path, sizes: Sizes, decoder_type: str | None = None) -> Path:
    lines = ["[audio]"] + [f"{k} = {_ini_value(v)}" for k, v in sizes.audio.items()]
    if decoder_type is not None:
        lines += ["[model]", f"type = {decoder_type}"]
        lines += [f"{k} = {_ini_value(v)}" for k, v in sizes.model.items()]
        lines += ["[training]", f"steps = {sizes.train_steps}",
                  f"batch_size = {sizes.batch_size}", "log_interval = 1"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _unit(v):
    return v / np.linalg.norm(v)


def _write_embedding(path: Path, vector) -> None:
    write_features(path, FeatureSequence(np.asarray(vector)[None, :], 10.0))


class _Embeddings:
    """Synthetic speaker embeddings: a unit centroid per speaker plus noise.

    With noise 1.0 two draws of one speaker have cosine about 0.5, two
    speakers about 0.
    """

    def __init__(self, seed: int, dim: int):
        self.rng = np.random.default_rng([seed, 99])
        self.dim = dim
        self.centroids: dict[str, np.ndarray] = {}

    def draw(self, speaker: str, noise: float = 1.0) -> np.ndarray:
        if speaker not in self.centroids:
            self.centroids[speaker] = _unit(self.rng.standard_normal(self.dim))
        return _unit(self.centroids[speaker] + noise * _unit(self.rng.standard_normal(self.dim)))


def _train_checkpoint(work: Path, manifest: Path, sizes: Sizes, ops: Ops,
                      extra=()) -> Path:
    """A taco2_ar checkpoint trained through the CLI, as a user would make it."""
    config = _write_config(work / "ckpt.ini", sizes, "taco2_ar")
    mode = "a2a" if extra else "a2o"
    run_cli(["train", manifest, "--mode", mode, "--out-dir", work / "ckpt",
             "--config", config, *extra], work / "ckpt.log", ops)
    return work / "ckpt" / "final.s3ck"


# --- workloads ---------------------------------------------------------------------

@dataclass
class PassResult:
    wall: float
    commands: dict[str, float]      # command label -> wall seconds
    out: Path


def setup_train(work: Path, seed: int, sizes: Sizes, ops: Ops) -> dict:
    # as many utterances as a batch, so every step trains on all of them
    items = [(f"TGT_{i:03d}", 0, sizes.long_s, [seed, 1, i]) for i in range(sizes.batch_size)]
    return {
        "manifest": _write_corpus(work / "corpus", items, sizes),
        "configs": {t: _write_config(work / f"{t}.ini", sizes, t) for t in DECODER_TYPES},
        "batch_frames": sizes.batch_size * _frames(sizes.long_s, sizes),
    }


def pass_train(state: dict, out: Path, sizes: Sizes, ops: Ops, tracer=None) -> PassResult:
    commands = {}
    for t in DECODER_TYPES:
        commands[f"train.{t}"] = run_cli(
            ["train", state["manifest"], "--mode", "a2o", "--out-dir", out / t,
             "--config", state["configs"][t], "--log-file", out / f"{t}.losses"],
            out / f"{t}.log", ops, tracer)
    return PassResult(sum(commands.values()), commands, out)


def observe_train(state: dict, result: PassResult, sizes: Sizes, ops: Ops) -> dict:
    seen = {}
    for t in DECODER_TYPES:
        losses = _read_losses(result.out / f"{t}.losses")
        ops.record(f"train {t}: one finite loss per step",
                   len(losses) == sizes.train_steps and all(map(math.isfinite, losses)),
                   f"losses {losses}")
        norm, error = None, ""
        try:
            tensors = load_checkpoint(result.out / t / "final.s3ck").tensors
            norm = math.sqrt(sum(float(np.sum(v * v)) for v in tensors.values()))
        except Exception as exc:  # a missing or corrupt checkpoint is a failed check
            error = repr(exc)
        ops.record(f"train {t}: final checkpoint readable", norm is not None, error)
        seen[t] = {"loss": losses, "param_norm": norm}
    return seen


def _read_losses(path: Path) -> list[float]:
    """Losses from a ``step<TAB>loss<TAB>seconds`` training log; [] when unreadable."""
    try:
        lines = path.read_text().splitlines()
        return [float(line.split("\t")[1]) for line in lines if line]
    except (OSError, IndexError, ValueError):
        return []


def train_stage_metrics(state: dict, result: PassResult, sizes: Sizes) -> dict:
    frames = sizes.train_steps * state["batch_frames"]
    return {f"train_frames_per_s.{t}": frames / result.commands[f"train.{t}"]
            for t in DECODER_TYPES}


def setup_convert_long(work: Path, seed: int, sizes: Sizes, ops: Ops) -> dict:
    target = [(f"TGT_{i:03d}", 0, sizes.short_s, [seed, 1, i]) for i in range(sizes.batch_size)]
    # speaker 5 never appears in the target corpus
    source = [(f"SRC_{i:03d}", 5, sizes.long_s, [seed, 2, i]) for i in range(sizes.n_long_sources)]
    return {
        "checkpoint": _train_checkpoint(work, _write_corpus(work / "target", target, sizes),
                                        sizes, ops),
        "source": _write_corpus(work / "source", source, sizes),
        "utts": [u for u, *_ in source],
        "audio_s": sizes.n_long_sources * sizes.long_s,
        "config": _write_config(work / "eval.ini", sizes),
    }


def pass_convert_long(state: dict, out: Path, sizes: Sizes, ops: Ops, tracer=None) -> PassResult:
    commands = {
        "convert": run_cli(["convert", state["checkpoint"], state["source"],
                            "--out-dir", out / "converted", "--config", state["config"],
                            "--jobs", "1"], out / "convert.log", ops, tracer),
        "evaluate": run_cli(["evaluate", out / "converted", state["source"],
                             "--out-dir", out / "scores", "--config", state["config"]],
                            out / "evaluate.log", ops, tracer),
    }
    return PassResult(sum(commands.values()), commands, out)


def observe_converted(state: dict, result: PassResult, ops: Ops) -> dict:
    """Per-utterance outputs and the summary; ``None`` for what is missing."""
    out = result.out
    for utt in state["utts"]:
        ok = all((out / "converted" / f"{utt}{ext}").is_file() for ext in (".wav", ".mel.s3vc"))
        ops.record(f"convert {utt}: .wav and .mel.s3vc written", ok)
    scored = _read_report(out / "scores" / "report.tsv")
    for utt in state["utts"]:
        ops.record(f"evaluate {utt}: scored", utt in scored and math.isfinite(scored[utt]))
    try:
        summary = json.loads((out / "scores" / "summary.json").read_text())
    except (OSError, ValueError):
        summary = {}
    ops.record("summary.json n_utterances equals utterances attempted",
               summary.get("n_utterances") == len(state["utts"]),
               f"n_utterances {summary.get('n_utterances')}")
    return summary


def _read_report(path: Path) -> dict[str, float]:
    """``utt_id -> mcd`` from an evaluate ``report.tsv``; {} when unreadable."""
    try:
        rows = [line.split("\t") for line in path.read_text().splitlines()[1:] if line]
        return {row[0]: float(row[1]) for row in rows}
    except (OSError, IndexError, ValueError):
        return {}


def observe_convert_long(state: dict, result: PassResult, sizes: Sizes, ops: Ops) -> dict:
    return {"mcd": observe_converted(state, result, ops).get("mcd")}


def convert_stage_metrics(state: dict, result: PassResult, sizes: Sizes) -> dict:
    scoring = result.commands["evaluate"] + result.commands.get("calibrate", 0.0)
    return {"convert_audio_s_per_s": state["audio_s"] / result.commands["convert"],
            "score_utts_per_s": len(state["utts"]) / scoring}


def setup_a2a_short(work: Path, seed: int, sizes: Sizes, ops: Ops) -> dict:
    emb = _Embeddings(seed, sizes.embedding_dim)
    train = [(f"TRN{i % 4}_{i:03d}", i % 4, sizes.short_s, [seed, 1, i])
             for i in range(sizes.batch_size)]
    train_manifest = _write_corpus(work / "train", train, sizes)
    (work / "train_emb").mkdir()
    for utt, speaker, *_ in train:
        _write_embedding(work / "train_emb" / f"{utt}.s3vc", emb.draw(f"SPK{speaker}"))
    checkpoint = _train_checkpoint(work, train_manifest, sizes, ops,
                                   ["--embeddings-dir", work / "train_emb"])

    # several source speakers, none of them the target
    source = [(f"SRC{4 + i % 4}_{i:03d}", 4 + i % 4, sizes.short_s, [seed, 2, i])
              for i in range(sizes.n_short_sources)]
    source_manifest = _write_corpus(work / "source", source, sizes)
    (work / "target_emb").mkdir()
    target = [emb.draw("TARGET") for _ in range(sizes.n_target_embeddings)]
    for i, vec in enumerate(target):
        _write_embedding(work / "target_emb" / f"TARGET_{i:03d}.s3vc", vec)
    _write_embedding(work / "target.s3vc", average_embedding(target).vector)

    # What the stub encoder returns for each converted wav: the target voice
    # at a per-utterance distance, so some trials pass the threshold and some
    # do not.  References were encoded by an earlier evaluation: they are
    # in the cache each pass starts from.
    (work / "encoder").mkdir()
    (work / "cache_start").mkdir()
    noise = np.random.default_rng([seed, 3]).uniform(1.5, 4.5, len(source))
    for (utt, speaker, *_), n in zip(source, noise):
        _write_embedding(work / "encoder" / f"{utt}.s3vc", emb.draw("TARGET", n))
        _write_embedding(work / "cache_start" / f"{utt}.reference.s3vc",
                         emb.draw(f"SPK{speaker}"))

    table = {f"CAL{s}": [SpeakerEmbedding(emb.draw(f"CAL{s}")) for _ in range(sizes.calib_utts)]
             for s in range(sizes.calib_speakers)}
    return {
        "checkpoint": checkpoint,
        "source": source_manifest,
        "utts": [u for u, *_ in source],
        "audio_s": sizes.n_short_sources * sizes.short_s,
        "config": _write_config(work / "eval.ini", sizes),
        "target_emb": work / "target_emb",
        "target": work / "target.s3vc",
        "table": table,
        "cache_start": work / "cache_start",
        "asr": f"sh {shlex.quote(str(STUB_DIR / 'asr.sh'))}",
        "encoder": "sh {} {}".format(shlex.quote(str(STUB_DIR / "speaker_encoder.sh")),
                                     shlex.quote(str(work / "encoder"))),
    }


def prepare_a2a_short(state: dict, out: Path) -> None:
    """Untimed: each pass starts from the same embeddings cache."""
    shutil.copytree(state["cache_start"], out / "cache")


def pass_a2a_short(state: dict, out: Path, sizes: Sizes, ops: Ops, tracer=None) -> PassResult:
    commands = {"convert": run_cli(
        ["convert", state["checkpoint"], state["source"], "--out-dir", out / "converted",
         "--config", state["config"], "--jobs", "1",
         "--target-embeddings", state["target_emb"]], out / "convert.log", ops, tracer)}
    t0 = time.perf_counter()
    try:
        threshold = evaluator.calibrate_asv_threshold(state["table"])
    except Exception as exc:
        threshold = None
        ops.record("calibrate_asv_threshold", False, repr(exc))
    else:
        ops.record("calibrate_asv_threshold", True)
    commands["calibrate"] = time.perf_counter() - t0
    (out / "threshold.json").write_text(json.dumps(threshold))
    commands["evaluate"] = run_cli(
        ["evaluate", out / "converted", state["source"], "--out-dir", out / "scores",
         "--config", state["config"], "--asr", state["asr"],
         "--speaker-encoder", state["encoder"], "--embeddings-cache", out / "cache",
         "--target-embedding", state["target"], "--threshold", repr(threshold)],
        out / "evaluate.log", ops, tracer)
    return PassResult(sum(commands.values()), commands, out)


def observe_a2a_short(state: dict, result: PassResult, sizes: Sizes, ops: Ops) -> dict:
    summary = observe_converted(state, result, ops)
    seen = {key: summary.get(key) for key in ("mcd", "wer", "asv")}
    seen["threshold"] = json.loads((result.out / "threshold.json").read_text())
    return seen


# --- checks --------------------------------------------------------------------------

def _flatten(obs, prefix=""):
    """``{"taco2_ar": {"loss": [a, b]}}`` -> ``{"taco2_ar.loss.0": a, ...}``."""
    if isinstance(obs, dict):
        for key, value in obs.items():
            yield from _flatten(value, f"{prefix}{key}.")
    elif isinstance(obs, list):
        for i, value in enumerate(obs):
            yield from _flatten(value, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obs


def _tolerance(key: str) -> float:
    return next(TOLERANCES[part] for part in key.split(".") if part in TOLERANCES)


def compare(observed: dict, expected: dict) -> list[str]:
    """Keys whose observed value differs from the expected one beyond tolerance."""
    seen = dict(_flatten(observed))
    want = dict(_flatten(expected))
    bad = []
    for key in sorted(set(seen) | set(want)):
        a, b = seen.get(key), want.get(key)
        if a is None or b is None:
            if a != b:
                bad.append(f"{key}: {a!r} != {b!r}")
        elif not math.isclose(a, b, rel_tol=_tolerance(key), abs_tol=1e-12):
            bad.append(f"{key}: {a!r} != {b!r}")
    return bad


def check_pass(name: str, observed: dict, reference: dict | None, first: dict | None,
               ops: Ops) -> None:
    """Compare a pass's outputs with the recorded reference and with the first pass."""
    if reference is not None:
        bad = compare(observed, reference)
        ops.record(f"{name}: outputs match the recorded reference", not bad, "; ".join(bad))
    if first is not None:
        bad = compare(observed, first)
        ops.record(f"{name}: outputs repeat across passes", not bad, "; ".join(bad))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable        # (work, seed, sizes, ops) -> state
    run_pass: Callable     # (state, out, sizes, ops, tracer) -> PassResult
    observe: Callable      # (state, result, sizes, ops) -> outputs compared by check_pass
    stage_metrics: Callable  # (state, result, sizes) -> {metric: value}
    prepare: Callable | None = None  # (state, out), untimed, before each pass


WORKLOADS = {w.name: w for w in (
    Workload("train",
             "teacher-forced training of both AR decoders at default size; shows "
             "synthesizer and nnops kernel work and stays flat for conversion and "
             "scoring changes",
             setup_train, pass_train, observe_train, train_stage_metrics),
    Workload("convert_long",
             "A2O conversion and MCD scoring of 3 s utterances; shows per-frame "
             "free-running decode, Griffin-Lim and O(T^2) DTW, flat for training kernels",
             setup_convert_long, pass_convert_long, observe_convert_long,
             convert_stage_metrics),
    Workload("a2a_short",
             "speaker-conditioned conversion of many 0.5 s utterances, ASV calibration "
             "and adapter-based scoring; shows per-utterance fixed costs and adapter "
             "overhead",
             setup_a2a_short, pass_a2a_short, observe_a2a_short, convert_stage_metrics,
             prepare_a2a_short),
)}
