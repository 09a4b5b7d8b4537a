"""Decoder training: one ``train`` for A2O (single target speaker) and A2A.

Any-to-any (A2A) training is any-to-one (A2O) training plus a speaker
embedding per utterance: ``train`` runs A2A exactly when it is given an
embedding encoder, and checks each setting on the manifest's distinct speakers.

The training loop is teacher-forced throughout; the only concession to
exposure bias is the dropout kept on the autoregressive path.  Loss is a
masked mean absolute error; models with a postnet are trained on the sum of
the pre-postnet and post-postnet losses.

Content features arrive from ``recognize`` at the mel frame rate (10 ms at
the default audio settings) and are standardized with corpus statistics; the
target mels are mean/variance normalized.  All four statistics vectors are
stored in the checkpoint so conversion is self-contained.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blas import one_blas_thread, run_threads
from .checkpoint import CHECKPOINT_SUFFIX, save_checkpoint
from .config import Config
from .converter import TrainedModel, model_checkpoint, normalize
from .errors import FeatureFileError, ManifestError, VoiceConversionError
from .nnops import clip_grad_norm
from .recognizer import Upstream, check_feature_dir, extract_mel, recognize
from .audioio import load_waveform
from .featureio import feature_path
from .synthesizer import (
    ModelParameters,
    backward_teacher_batch,
    build_decoder,
    dropout_masks,
    shift_frames_right,
    teacher_forward_batch,
)
from .types import (
    N_MELS,
    DatasetManifest,
    SpeakerEmbedding,
    UtteranceRecord,
)


@dataclass
class TrainRun:
    """Outcome of one training run."""

    loss_history: list[float]
    checkpoint_path: Path


def masked_l1(pred, target, mask, count=None):
    """Masked mean absolute error and its gradient in ``pred``.

    ``mask`` holds 1.0 for real frames and 0.0 for batch padding; it covers
    the frame axes (everything except the feature dimension).  Returns
    ``(loss, d_pred)``: the mean of ``|pred - target|`` over the unmasked
    frames and every feature bin, and its subgradient, zero on masked frames.
    The mean divides by ``count``, by default the unmasked frames times the
    feature bins; rows of a larger batch pass that batch's count.
    """
    diff = pred - target
    if count is None:
        count = mask.sum() * pred.shape[-1]
    loss = float((np.abs(diff) * mask[..., None]).sum() / count)
    return loss, np.sign(diff) * mask[..., None] / count


def loss_and_grads(params: ModelParameters, content, target, mask, spk,
                   dropout_seed):
    """Training loss and parameter gradients for one teacher-forced batch.

    ``content`` is (B, T, Din), ``target`` (B, T, 80), ``mask`` (B, T);
    ``spk`` is (B, E) or None.  For the postnet model the loss is the sum of
    the pre- and post-postnet terms.

    The batch runs as two fixed row shards, rows [0, ceil(B / 2)) and the
    rest (one shard when B = 1), each with its own forward and backward.
    The dropout masks are drawn for the whole batch and sliced, each shard's
    loss gradient divides by the whole batch's frame count, the second
    shard's gradients are added into the first's, and the loss is taken
    over the joined outputs.  So the bits do not depend on whether
    ``run_threads`` runs the shards at once or one after the other.
    """
    prev = shift_frames_right(target)
    masks = dropout_masks(params, target.shape[:2], np.random.default_rng(dropout_seed))
    count = mask.sum() * target.shape[-1]
    half = -(-len(target) // 2)
    shards = [slice(0, half)] + ([slice(half, None)] if half < len(target) else [])

    def shard(job):
        rows, row_masks = job
        main, before, cache = teacher_forward_batch(
            params, content[rows], prev[rows], None if spk is None else spk[rows], row_masks,
            mask[rows])
        row_masks.clear()  # freed: the cache keeps the keep patterns the backward reads
        d_main = masked_l1(main, target[rows], mask[rows], count)[1]
        d_before = None
        if before is not None:
            d_before = masked_l1(before, target[rows], mask[rows], count)[1]
        return main, before, backward_teacher_batch(params, cache, d_main, d_before)

    jobs = [(rows, [m[rows] for m in masks]) for rows in shards]
    del masks
    (main, before, grads), *others = [f.result() for f in run_threads(shard, jobs)]
    for other_main, other_before, other_grads in others:
        for name, grad in grads.items():
            grad += other_grads.pop(name)
        main = np.concatenate([main, other_main])
        if before is not None:
            before = np.concatenate([before, other_before])
    loss = masked_l1(main, target, mask)[0]
    if before is not None:
        loss += masked_l1(before, target, mask)[0]
    return loss, grads


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class AdamOptimizer:
    """Adaptive-moment gradient descent with bias correction.

    ``step`` updates ``tensors`` in place.  The moments ``m`` and ``v``, zeros
    like ``tensors``, are created at the first ``step``, so the forward and
    backward before it run without them.
    """

    def __init__(self, tensors: Mapping[str, np.ndarray], learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.tensors = tensors
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, grads: Mapping[str, np.ndarray]):
        """Apply one update to the tensors in place.

        Computes ``m = b1 m + (1 - b1) g``, ``v = b2 v + ((1 - b2) g) g`` and
        ``w -= (lr (m / c1)) / (sqrt(v / c2) + eps)`` in that operation order,
        one tensor at a time, so its temporaries are the size of one gradient.
        """
        self.t += 1
        if self.t == 1:
            self.m = {k: np.zeros_like(v) for k, v in self.tensors.items()}
            self.v = {k: np.zeros_like(v) for k, v in self.tensors.items()}
        c1 = 1.0 - _BETA1 ** self.t
        c2 = 1.0 - _BETA2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= _BETA1
            m += g * (1.0 - _BETA1)
            v *= _BETA2
            v += g * (1.0 - _BETA2) * g
            # the denominator first: as NumPy reuses temporaries in place, two
            # gradient-sized arrays are then alive at once, not three
            denominator = np.sqrt(v / c2)
            denominator += _EPS
            self.tensors[name] -= self.lr * (m / c1) / denominator


@dataclass
class _Example:
    content: np.ndarray  # (T, Din) float64, normalized
    target: np.ndarray   # (T, 80) float64, normalized
    embedding: np.ndarray | None = None  # (E,) float64


def _check_features_present(manifest: DatasetManifest, upstream: Upstream, feature_dir):
    if upstream.native:
        return
    missing = [
        r.utt_id for r in manifest
        if not feature_path(feature_dir, r.utt_id).exists()
    ]
    if missing:
        raise FeatureFileError(f"missing features for: {', '.join(missing)} "
                               f"(feature dir {feature_dir})")


def _prepare_examples(manifest, upstream, feature_dir, config, encoder):
    """Load, align, and normalize all training pairs; returns examples + stats."""
    audio = config.audio
    raw = []
    for record in manifest:
        wave = load_waveform(record.wav_path, audio)
        mel = extract_mel(wave, audio)
        # the native upstream's content is the target mel itself
        content = (mel.as_features() if upstream.native
                   else recognize(record, upstream, audio, feature_dir))
        t_len = min(len(content), mel.frames.shape[0])
        emb = None
        if encoder is not None:
            emb = encoder(record).vector
            if emb.size != config.model.embedding_dim:
                raise VoiceConversionError(
                    f"{record.utt_id}: embedding dim {emb.size} != configured "
                    f"{config.model.embedding_dim}"
                )
        raw.append((np.asarray(content.frames[:t_len], dtype=np.float64),
                    mel.frames[:t_len].copy(), emb))

    all_content = np.concatenate([c for c, _, _ in raw], axis=0)
    all_target = np.concatenate([t for _, t, _ in raw], axis=0)
    stats = {"input_mean": all_content.mean(axis=0), "input_std": all_content.std(axis=0),
             "target_mean": all_target.mean(axis=0), "target_std": all_target.std(axis=0)}
    examples = [
        _Example(content=normalize(c, stats["input_mean"], stats["input_std"]),
                 target=normalize(t, stats["target_mean"], stats["target_std"]),
                 embedding=e)
        for c, t, e in raw
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


@one_blas_thread()  # the bits depend on the count, and the shards take the CPUs
def train(manifest: DatasetManifest, upstream: Upstream, config: Config, out_dir,
          encoder: Callable[[UtteranceRecord], SpeakerEmbedding] | None = None,
          log_file=None, feature_dir=None) -> TrainRun:
    """Train a decoder on ``manifest`` into ``out_dir``; ``encoder`` decides the setting.

    An external ``upstream`` is read from ``feature_dir``, given exactly then
    (``check_feature_dir``); ``log_file`` gets one line per logged step.

    Without an encoder this is A2O: the manifest holds exactly one speaker, the
    target.  With an encoder, which maps a record to its SpeakerEmbedding, this
    is A2A: the manifest holds at least two speakers, the decoder (which must
    be ``taco2_ar``) is speaker-conditioned, and each utterance is conditioned
    on the embedding of its own waveform, so the model learns to copy the
    voice described by the embedding.
    """
    check_feature_dir(upstream.name, feature_dir)
    if len(manifest) == 0:
        raise ManifestError("cannot train on an empty manifest")
    n_speakers = len(manifest.speakers)
    if encoder is None:
        if n_speakers != 1:
            raise ManifestError(
                f"single-target training needs exactly one speaker, manifest has {n_speakers}"
            )
        target_speaker = manifest.speakers[0]
    else:
        if n_speakers < 2:
            raise ManifestError(
                f"any-to-any training needs >= 2 speakers, manifest has {n_speakers}"
            )
        target_speaker = None
    training = config.training
    params = build_decoder(config.model, upstream.feature_dim, encoder is not None,
                           seed=training.seed)

    _check_features_present(manifest, upstream, feature_dir)
    examples, stats = _prepare_examples(manifest, upstream, feature_dir, config, encoder)

    # the optimizer updates params.tensors in place, so each write sees the current weights
    model = TrainedModel(params=params, stats=stats, audio=config.audio, upstream=upstream)
    optimizer = AdamOptimizer(params.tensors, learning_rate=training.learning_rate)

    rng = np.random.default_rng(training.seed)
    order: list[int] = []
    loss_history: list[float] = []
    t0 = time.perf_counter()
    with open(log_file or os.devnull, "w") as log_fh:
        # made once the examples and the log are ready, so a bad input or log path leaves none
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
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
                raise VoiceConversionError(f"loss diverged at step {step}: {loss}")
            clip_grad_norm(grads, training.grad_clip)
            optimizer.step(grads)
            del grads  # applied: the next step's forward and backward run without it
            loss_history.append(loss)
            if step % training.log_interval == 0 or step == 1:
                line = f"{step}\t{loss:.6f}\t{time.perf_counter() - t0:.3f}"
                print(line, file=sys.stderr)
                print(line, file=log_fh, flush=True)
            if step % training.checkpoint_interval == 0:
                save_checkpoint(out_dir / f"checkpoint_{step:06d}{CHECKPOINT_SUFFIX}",
                                model_checkpoint(model, step, target_speaker))

    del optimizer  # Adam's moments, twice the weights, are not saved
    final_path = out_dir / f"final{CHECKPOINT_SUFFIX}"
    save_checkpoint(final_path, model_checkpoint(model, training.steps, target_speaker))
    return TrainRun(loss_history=loss_history, checkpoint_path=final_path)
