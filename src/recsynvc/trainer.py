"""Decoder training: A2O (single target speaker) and A2A (multi-speaker).

The training loop is teacher-forced throughout; the only concession to
exposure bias is the dropout kept on the autoregressive path.  Loss is a
masked mean absolute error; models with a postnet are trained on the sum of
the pre-postnet and post-postnet losses.

Content features are resampled to the mel frame rate (10 ms at the default
audio settings), standardized with corpus statistics, and the target mels
are mean/variance normalized.  All four statistics vectors are stored in the
checkpoint so conversion is self-contained.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .checkpoint import save_checkpoint
from .config import Config
from .converter import TrainedModel, model_checkpoint, normalize
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    EmptyManifestError,
    ManifestError,
    MissingFeatureError,
    NonFiniteInputError,
    ShapeMismatchError,
    SingleSpeakerError,
)
from .nnops import clip_grad_norm
from .recognizer import (
    UpstreamSpec,
    extract_mel,
    feature_path,
    recognize,
    resample_features,
)
from .audioio import load_waveform
from .synthesizer import (
    ModelParameters,
    backward_teacher_batch,
    build_decoder,
    shift_frames_right,
    teacher_forward_batch,
)
from .types import (
    N_MELS,
    ROLE_MULTI_SPEAKER,
    DatasetManifest,
    SpeakerEmbedding,
)


@dataclass
class TrainRun:
    """Outcome of one training run."""

    model: TrainedModel
    step: int
    loss_history: list[float]
    checkpoint_path: Path


def compute_loss(pred, target, mask=None) -> float:
    """Masked mean absolute error over valid frames.

    ``mask`` holds 1.0 for real frames and 0.0 for batch padding; it covers
    the frame axes (everything except the feature dimension).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatchError(
            f"pred shape {pred.shape} != target shape {target.shape}"
        )
    if mask is None:
        mask = np.ones(pred.shape[:-1])
    else:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != pred.shape[:-1]:
            raise ShapeMismatchError(
                f"mask shape {mask.shape} does not cover frames {pred.shape[:-1]}"
            )
    n_valid = mask.sum()
    if n_valid == 0:
        raise EmptyInputError("mask excludes every frame")
    total = np.abs(pred - target) * mask[..., None]
    return float(total.sum() / (n_valid * pred.shape[-1]))


def _loss_gradient(pred, target, mask):
    """d(compute_loss)/d(pred) for the masked mean absolute error."""
    n_valid = mask.sum() * pred.shape[-1]
    return np.sign(pred - target) * mask[..., None] / n_valid


def loss_and_grads(params: ModelParameters, content, target, mask, spk,
                   dropout_seed):
    """Training loss and parameter gradients for one teacher-forced batch.

    ``content`` is (B, T, Din), ``target`` (B, T, 80), ``mask`` (B, T);
    ``spk`` is (B, E) or None.  For the postnet model the loss is the sum of
    the pre- and post-postnet terms.
    """
    prev = shift_frames_right(target)
    main, before, cache = teacher_forward_batch(params, content, prev, spk, dropout_seed)
    loss = compute_loss(main, target, mask)
    d_main = _loss_gradient(main, target, mask)
    d_before = None
    if before is not None:
        loss += compute_loss(before, target, mask)
        d_before = _loss_gradient(before, target, mask)
    grads = backward_teacher_batch(params, cache, d_main, d_before)
    return loss, grads


class AdamOptimizer:
    """Adaptive-moment gradient descent with bias correction."""

    def __init__(self, tensors: Mapping[str, np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, tensors: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            tensors[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@dataclass
class _Example:
    utt_id: str
    content: np.ndarray  # (T, Din) float64, normalized
    target: np.ndarray   # (T, 80) float64, normalized
    embedding: np.ndarray | None = None  # (E,) float64


def _check_features_present(manifest: DatasetManifest, spec: UpstreamSpec):
    if spec.native:
        return
    missing = [
        r.utt_id for r in manifest
        if not feature_path(spec.feature_dir, r.utt_id).exists()
    ]
    if missing:
        raise MissingFeatureError(missing, f"feature dir {spec.feature_dir}")


def _prepare_examples(manifest, spec, config, encoder=None):
    """Load, align, and normalize all training pairs; returns examples + stats."""
    audio = config.audio
    raw = []
    for record in manifest:
        wave = load_waveform(record.wav_path, target_rate=audio.sample_rate)
        mel = extract_mel(wave, audio)
        # the native upstream's content is the target mel itself
        content = mel.as_features() if spec.native else recognize(record, spec, audio)
        content = resample_features(content, audio.frame_shift_ms)
        t_len = min(len(content), mel.frames.shape[0])
        emb = None
        if encoder is not None:
            emb_obj = encoder(record)
            vec = emb_obj.vector if isinstance(emb_obj, SpeakerEmbedding) else np.asarray(emb_obj, dtype=np.float64)
            if vec.size != config.model.embedding_dim:
                raise DimensionMismatchError(
                    f"{record.utt_id}: embedding dim {vec.size} != configured "
                    f"{config.model.embedding_dim}"
                )
            emb = vec.astype(np.float64).ravel()
        raw.append((record.utt_id,
                    np.asarray(content.frames[:t_len], dtype=np.float64),
                    mel.frames[:t_len].copy(), emb))

    all_content = np.concatenate([c for _, c, _, _ in raw], axis=0)
    all_target = np.concatenate([t for _, _, t, _ in raw], axis=0)
    stats = {"input_mean": all_content.mean(axis=0), "input_std": all_content.std(axis=0),
             "target_mean": all_target.mean(axis=0), "target_std": all_target.std(axis=0)}
    examples = [
        _Example(utt_id=u,
                 content=normalize(c, stats["input_mean"], stats["input_std"]),
                 target=normalize(t, stats["target_mean"], stats["target_std"]),
                 embedding=e)
        for u, c, t, e in raw
    ]
    return examples, stats


def _pad_batch(examples: list[_Example]):
    batch = len(examples)
    t_max = max(len(e.target) for e in examples)
    d_in = examples[0].content.shape[1]
    content = np.zeros((batch, t_max, d_in))
    target = np.zeros((batch, t_max, N_MELS))
    mask = np.zeros((batch, t_max))
    for i, e in enumerate(examples):
        t_len = len(e.target)
        content[i, :t_len] = e.content
        target[i, :t_len] = e.target
        mask[i, :t_len] = 1.0
    spk = None
    if examples[0].embedding is not None:
        spk = np.stack([e.embedding for e in examples])
    return content, target, mask, spk


def _run_training(manifest, spec, config: Config, out_dir, mode,
                  encoder=None, target_speaker=None, log_file=None) -> TrainRun:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    training = config.training

    _check_features_present(manifest, spec)
    examples, stats = _prepare_examples(manifest, spec, config, encoder=encoder)

    params = build_decoder(config.model, spec.feature_dim, seed=training.seed)
    # the optimizer updates params.tensors in place, so each write sees the current weights
    model = TrainedModel(params=params, stats=stats, audio=config.audio,
                         upstream=spec.name, upstream_shift_ms=spec.frame_shift_ms)
    optimizer = AdamOptimizer(params.tensors, learning_rate=training.learning_rate)

    rng = np.random.default_rng(training.seed)
    order: list[int] = []
    loss_history: list[float] = []
    t0 = time.perf_counter()
    log_fh = open(log_file, "w") if log_file is not None else None
    try:
        for step in range(1, training.steps + 1):
            while len(order) < training.batch_size:
                order.extend(rng.permutation(len(examples)).tolist())
            picked = [examples[i] for i in order[:training.batch_size]]
            order = order[training.batch_size:]
            content, target, mask, spk = _pad_batch(picked)
            loss, grads = loss_and_grads(
                params, content, target, mask, spk,
                dropout_seed=[training.seed, step],
            )
            if not np.isfinite(loss):
                raise NonFiniteInputError(f"loss diverged at step {step}: {loss}")
            clip_grad_norm(grads, training.grad_clip)
            optimizer.step(params.tensors, grads)
            loss_history.append(loss)
            if step % training.log_interval == 0 or step == 1:
                line = f"{step}\t{loss:.6f}\t{time.perf_counter() - t0:.3f}"
                print(line, file=sys.stderr)
                if log_fh is not None:
                    print(line, file=log_fh, flush=True)
            if step % training.checkpoint_interval == 0:
                save_checkpoint(out_dir / f"checkpoint_{step:06d}.s3ck",
                                model_checkpoint(model, mode, step, target_speaker))
    finally:
        if log_fh is not None:
            log_fh.close()

    final_path = out_dir / "final.s3ck"
    save_checkpoint(final_path, model_checkpoint(model, mode, training.steps,
                                                 target_speaker))
    return TrainRun(model=model, step=training.steps, loss_history=loss_history,
                    checkpoint_path=final_path)


def train_a2o(manifest: DatasetManifest, spec: UpstreamSpec, config: Config,
              out_dir, log_file=None) -> TrainRun:
    """Train a single-target decoder to reconstruct the target speaker's mels."""
    if len(manifest) == 0:
        raise EmptyManifestError("cannot train on an empty manifest")
    if len(manifest.speakers) != 1:
        raise ManifestError(
            f"single-target training needs exactly one speaker, "
            f"manifest has {len(manifest.speakers)}"
        )
    if config.model.speaker_conditioned:
        raise ManifestError("single-target training cannot use speaker conditioning")
    return _run_training(manifest, spec, config, out_dir, mode="a2o",
                         target_speaker=manifest.speakers[0], log_file=log_file)


def train_a2a(manifest: DatasetManifest, spec: UpstreamSpec, config: Config,
              out_dir, encoder: Callable | Mapping, log_file=None) -> TrainRun:
    """Train a speaker-conditioned decoder on a multi-speaker corpus.

    Each utterance is conditioned on the embedding of its own waveform, so the
    model learns to copy the voice described by the embedding.  ``encoder``
    is either a callable record -> SpeakerEmbedding or a mapping keyed by
    utt_id.
    """
    if len(manifest) == 0:
        raise EmptyManifestError("cannot train on an empty manifest")
    if manifest.role != ROLE_MULTI_SPEAKER or len(manifest.speakers) < 2:
        raise SingleSpeakerError(
            "any-to-any training needs a multi-speaker manifest (>= 2 speakers)"
        )
    if isinstance(encoder, Mapping):
        table = encoder

        def encoder_fn(record):
            try:
                return table[record.utt_id]
            except KeyError:
                raise MissingFeatureError([record.utt_id], "no embedding provided")
    else:
        encoder_fn = encoder

    if not config.model.speaker_conditioned:
        config = replace(config, model=replace(config.model, speaker_conditioned=True))
    return _run_training(manifest, spec, config, out_dir, mode="a2a",
                         encoder=encoder_fn, target_speaker=None, log_file=log_file)
