"""Training loop: loss math, optimization, checkpoints, and error paths."""

import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import sphere_embedding, toy_config

from recsynvc import trainer
from recsynvc.blas import openblas_functions
from recsynvc.checkpoint import load_checkpoint
from recsynvc.config import ModelConfig
from recsynvc.converter import denormalize, normalize
from recsynvc.errors import ConfigError, FeatureFileError, ManifestError, VoiceConversionError
from recsynvc.featureio import feature_path, write_features
from recsynvc.recognizer import external_upstream, mel_upstream
from recsynvc.synthesizer import (
    backward_teacher_batch,
    build_decoder,
    dropout_masks,
    shift_frames_right,
    teacher_forward_batch,
)
from recsynvc.synthetic import make_toy_corpus
from recsynvc.trainer import (
    AdamOptimizer,
    loss_and_grads,
    masked_l1,
    train,
)
from recsynvc.types import DatasetManifest, FeatureSequence


class TestMaskedL1:
    def test_plain_mean_absolute_error(self):
        pred = np.zeros((2, 3, 4))
        target = np.full((2, 3, 4), 2.0)
        loss, _ = masked_l1(pred, target, np.ones((2, 3)))
        assert loss == pytest.approx(2.0)

    def test_mask_excludes_padding(self):
        pred = np.zeros((1, 3, 2))
        target = np.stack([[[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]]])
        mask = np.array([[1.0, 1.0, 0.0]])
        loss, _ = masked_l1(pred, target, mask)
        assert loss == pytest.approx(1.0)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal((2, 4, 3))
        target = rng.standard_normal((2, 4, 3))
        mask = np.ones((2, 4))
        mask[1, 2:] = 0.0
        _, d_pred = masked_l1(pred, target, mask)
        eps = 1e-6  # far below every |pred - target|, so no step crosses the kink
        assert np.abs(pred - target).min() > 10 * eps
        fd = np.zeros_like(pred)
        for idx in np.ndindex(pred.shape):
            hi, lo = pred.copy(), pred.copy()
            hi[idx] += eps
            lo[idx] -= eps
            fd[idx] = (masked_l1(hi, target, mask)[0]
                       - masked_l1(lo, target, mask)[0]) / (2 * eps)
        np.testing.assert_allclose(d_pred, fd, rtol=1e-6, atol=1e-9)
        assert np.all(d_pred[1, 2:] == 0.0)
        assert np.all(d_pred[mask == 1.0] != 0.0)


class TestNormalization:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((7, 5)) * 3.0 + 1.0
        mean, std = frames.mean(axis=0), frames.std(axis=0)
        back = denormalize(normalize(frames, mean, std), mean, std)
        np.testing.assert_allclose(back, frames, atol=1e-12)

    def test_zero_std_is_floored(self):
        frames = np.ones((4, 2))
        out = normalize(frames, np.ones(2), np.zeros(2))
        assert np.all(np.isfinite(out))


class TestLossGradients:
    # the last three are edge cases of the taco2_ar cache: one prenet layer
    # (no layer output kept), one postnet layer (no tanh) and an all-ones
    # dropout mask
    @pytest.mark.parametrize("type_,conditioned,overrides", [
        pytest.param("simple", False, {}, id="simple-False"),
        pytest.param("taco2_ar", True, {}, id="taco2_ar-True"),
        pytest.param("taco2_ar", False, {"prenet_dims": (8,)}, id="one_prenet_layer"),
        pytest.param("taco2_ar", False, {"postnet_layers": 1}, id="one_postnet_layer"),
        pytest.param("taco2_ar", False, {"ar_dropout": 0.0}, id="no_dropout"),
    ])
    def test_gradients_match_fd_on_sampled_params(self, type_, conditioned, overrides):
        rng = np.random.default_rng(0)
        config = replace(ModelConfig(
            type=type_, hidden_dim=8, lstmp_proj_dim=8,
            prenet_dims=(8, 8), postnet_layers=2, postnet_channels=8,
            postnet_kernel=3, ar_dropout=0.5,
            embedding_dim=4 if conditioned else 256), **overrides)
        params = build_decoder(config, 6, conditioned, seed=0)
        # jitter away from the zero-bias init: teacher forcing zero-pads the
        # first frame, and exact zeros park prenet units on the relu kink
        # where central differences disagree with any one-sided subgradient
        for k, v in params.tensors.items():
            v += 0.01 * rng.standard_normal(v.shape)
        b, t = 2, 5
        content = rng.standard_normal((b, t, 6))
        target = rng.standard_normal((b, t, 80))
        mask = np.ones((b, t))
        mask[1, 3:] = 0.0
        spk = rng.standard_normal((b, 4)) if conditioned else None

        loss, grads = loss_and_grads(params, content, target, mask, spk,
                                     dropout_seed=0)
        assert np.isfinite(loss)

        eps = 1e-5
        checked = 0
        for name in sorted(params.tensors):
            tensor = params.tensors[name]
            flat = tensor.reshape(-1)
            idx = int(rng.integers(flat.size))
            orig = flat[idx]
            flat[idx] = orig + eps
            hi, _ = loss_and_grads(params, content, target, mask, spk,
                                   dropout_seed=0)
            flat[idx] = orig - eps
            lo, _ = loss_and_grads(params, content, target, mask, spk,
                                   dropout_seed=0)
            flat[idx] = orig
            fd = (hi - lo) / (2 * eps)
            ana = grads[name].reshape(-1)[idx]
            denom = max(abs(fd), abs(ana), 1e-8)
            assert abs(fd - ana) / denom < 1e-3, (name, fd, ana)
            checked += 1
        assert checked >= 10

    def test_step_memory_stays_below_the_bound(self):
        """The cache holds each activation once and the backward frees it.

        Measured with numpy 2.4: this step peaks at 8.2 MB, and at 8.7 MB
        with a cache that also keeps tanh of each cell state.
        """
        config = ModelConfig(type="taco2_ar", hidden_dim=64, prenet_dims=(64, 64),
                             postnet_channels=64)
        params = build_decoder(config, 80, False, seed=0)
        rng = np.random.default_rng(0)
        b, t = 4, 120
        content = rng.standard_normal((b, t, 80))
        target = rng.standard_normal((b, t, 80))
        mask = np.ones((b, t))
        tracemalloc.start()
        try:
            loss_and_grads(params, content, target, mask, None, dropout_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.4e6, peak


def _cpus(monkeypatch, n):
    """Make this process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _small_batch(type_, conditioned, b, seed=0):
    config = ModelConfig(type=type_, hidden_dim=16, lstmp_proj_dim=12, prenet_dims=(8, 8),
                         postnet_layers=2, postnet_channels=8, postnet_kernel=3,
                         ar_dropout=0.5, embedding_dim=4 if conditioned else 256)
    params = build_decoder(config, 6, conditioned, seed=seed)
    rng = np.random.default_rng(seed)
    t = 9
    content = rng.standard_normal((b, t, 6))
    target = rng.standard_normal((b, t, 80))
    mask = np.ones((b, t))
    mask[b - 1, t - 3:] = 0.0  # the last utterance is padded
    spk = rng.standard_normal((b, 4)) if conditioned else None
    return params, content, target, mask, spk


class TestRowShards:
    """``loss_and_grads`` runs a batch as two row shards; the oracle runs it whole."""

    @staticmethod
    def whole_batch(params, content, target, mask, spk, dropout_seed):
        prev = shift_frames_right(target)
        masks = dropout_masks(params, target.shape[:2], np.random.default_rng(dropout_seed))
        main, before, cache = teacher_forward_batch(params, content, prev, spk, masks, mask)
        loss, d_main = masked_l1(main, target, mask)
        d_before = None
        if before is not None:
            loss_before, d_before = masked_l1(before, target, mask)
            loss += loss_before
        return loss, backward_teacher_batch(params, cache, d_main, d_before)

    @pytest.mark.parametrize("b", [1, 3, 8])
    @pytest.mark.parametrize("type_,conditioned", [
        ("simple", False), ("simple_ar", False), ("taco2_ar", False), ("taco2_ar", True)])
    def test_shards_match_the_whole_batch(self, monkeypatch, type_, conditioned, b):
        _cpus(monkeypatch, 2)
        params, content, target, mask, spk = _small_batch(type_, conditioned, b)
        applied = {}  # each shard's dropout masks by its first row, as its forward gets them

        def recording(params, rows, prev, spk, masks, frame_mask):
            first = next(i for i in range(b) if np.array_equal(content[i], rows[0]))
            applied[first] = [m.copy() for m in masks]
            return teacher_forward_batch(params, rows, prev, spk, masks, frame_mask)

        monkeypatch.setattr(trainer, "teacher_forward_batch", recording)
        loss, grads = loss_and_grads(params, content, target, mask, spk, dropout_seed=[5, 1])
        ref_loss, ref_grads = self.whole_batch(params, content, target, mask, spk, [5, 1])
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert list(grads) == list(params.tensors)
        for name, ref in ref_grads.items():
            scale = max(np.abs(ref).max(), 1e-300)
            assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name

        assert sorted(applied) == ([0] if b == 1 else [0, -(-b // 2)])
        # the whole batch's draws, in the order and shapes of one whole-batch forward
        draws = np.random.default_rng([5, 1])
        widths = {"simple": (), "simple_ar": (80,), "taco2_ar": (8, 8)}[type_]
        for layer, width in enumerate(widths):
            kept = draws.random((*mask.shape, width)) >= 0.5
            shard_kept = np.concatenate([applied[i][layer] for i in sorted(applied)]) != 0.0
            assert shard_kept.tobytes() == kept.tobytes(), layer

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_in_either_shard_ends_the_step_after_both_stop(self, monkeypatch,
                                                                    failing):
        _cpus(monkeypatch, 2)
        params, content, target, mask, spk = _small_batch("simple_ar", False, 3)
        finished = []

        def backward(params, cache, d_main, d_before):
            shard = 0 if len(d_main) == 2 else 1  # B = 3: rows [0, 2) and [2, 3)
            if shard == failing:
                raise RuntimeError(f"shard {shard} failed")
            time.sleep(0.1)  # still running when the other shard raises
            grads = backward_teacher_batch(params, cache, d_main, d_before)
            finished.append(shard)
            return grads

        monkeypatch.setattr(trainer, "backward_teacher_batch", backward)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^shard {failing} failed$"):
            loss_and_grads(params, content, target, mask, spk, dropout_seed=0)
        assert finished == [1 - failing]
        assert threading.active_count() == threads


@pytest.mark.parametrize("type_,conditioned", [
    ("simple", False), ("simple_ar", False), ("taco2_ar", False), ("taco2_ar", True)])
def test_a_rows_loss_and_gradients_do_not_depend_on_its_padding(monkeypatch, type_,
                                                                conditioned):
    # one row of 6 frames, alone and padded to 9 with frames that are not zero
    params, content, target, mask, spk = _small_batch(type_, conditioned, 1)
    own = mask.sum(dtype=int)
    full = dropout_masks(params, mask.shape, np.random.default_rng(0))
    # the same dropout draws on the row's frames, whatever its padded length
    monkeypatch.setattr(trainer, "dropout_masks",
                        lambda params, frames, rng: [m[:, :frames[1]] for m in full])
    loss, grads = loss_and_grads(params, content, target, mask, spk, dropout_seed=0)
    ref_loss, ref_grads = loss_and_grads(params, content[:, :own], target[:, :own],
                                         mask[:, :own], spk, dropout_seed=0)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, ref in ref_grads.items():
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name


class _ReferenceAdam:
    """Adam as it was written before the in-place update: the bit-for-bit oracle."""

    def __init__(self, tensors, learning_rate):
        self.lr = learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, tensors, grads):
        self.t += 1
        c1 = 1.0 - 0.9 ** self.t
        c2 = 1.0 - 0.999 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            tensors[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class TestAdam:
    def test_equals_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(0)
        shapes = {"a.w": (7, 5), "a.b": (7,), "b.w": (3, 4, 5), "c.b": (1,), "empty": (0, 3)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = {k: v.copy() for k, v in start.items()}
        ref_params = {k: v.copy() for k, v in start.items()}
        opt = AdamOptimizer(params, learning_rate=3e-3)
        ref = _ReferenceAdam(ref_params, learning_rate=3e-3)
        for _ in range(3):
            # gradients of mixed scale, so that eps and the moments both matter
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-9, 2, size=s)
                     for k, s in shapes.items()}
            opt.step(grads)
            ref.step(ref_params, grads)
            for k in shapes:
                assert params[k].tobytes() == ref_params[k].tobytes(), k
                assert opt.m[k].tobytes() == ref.m[k].tobytes(), k
                assert opt.v[k].tobytes() == ref.v[k].tobytes(), k

    def test_an_update_after_the_first_holds_two_gradient_sizes(self):
        # measured with numpy 2.4: 2.0x the largest gradient.  The update as one
        # expression reads 3.0x, which raised perfbench a2a_short's peak RSS by
        # 4.5 MB; a temporary the size of the whole weight set would read 4.4x
        params = build_decoder(ModelConfig(), 80, True, seed=0)
        rng = np.random.default_rng(0)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.tensors.items()}
        opt = AdamOptimizer(params.tensors, learning_rate=1e-3)
        opt.step(grads)  # creates the moments
        tracemalloc.start()
        try:
            opt.step(grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(g.nbytes for g in grads.values())
        assert peak <= 2.5 * largest, peak / largest

    def test_moves_against_gradient(self):
        params = {"w": np.array([1.0, -1.0])}
        opt = AdamOptimizer(params, learning_rate=0.1)
        opt.step({"w": np.array([1.0, -1.0])})
        assert params["w"][0] < 1.0
        assert params["w"][1] > -1.0

    def test_converges_on_quadratic(self):
        params = {"w": np.array([5.0])}
        opt = AdamOptimizer(params, learning_rate=0.2)
        for _ in range(200):
            opt.step({"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 1e-2


class TestTrainA2O:
    def test_later_steps_hold_no_more_than_the_first(self, toy_corpus, tmp_path,
                                                     monkeypatch):
        # Adam's moments, twice the weights, appear at the first update, and a
        # step's gradients die once Adam has applied them: the second step
        # starts with two gradient sizes more than the first, the third with
        # what the second started with
        config = toy_config("taco2_ar", steps=3, checkpoint_interval=2)
        at_entry = []

        def traced(*args, **kwargs):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            return loss_and_grads(*args, **kwargs)

        monkeypatch.setattr(trainer, "loss_and_grads", traced)
        tracemalloc.start()
        try:
            train(toy_corpus["manifest"], mel_upstream(config.audio), config,
                  tmp_path / "run")
        finally:
            tracemalloc.stop()
        weights = load_checkpoint(tmp_path / "run" / "final.s3ck").tensors
        grad_bytes = sum(t.nbytes for name, t in weights.items()
                         if not name.startswith("stats."))
        assert len(at_entry) == 3
        first, second, third = at_entry
        assert abs(second - first - 2 * grad_bytes) < 0.1 * grad_bytes, (at_entry, grad_bytes)
        assert third - second < 0.1 * grad_bytes, (at_entry, grad_bytes)

    def test_short_run_learns_and_checkpoints(self, toy_corpus, tmp_path):
        config = toy_config("simple", hidden_dim=32, lstmp_proj_dim=32,
                            steps=30, checkpoint_interval=10)
        log_file = tmp_path / "train.tsv"
        run = train(toy_corpus["manifest"], mel_upstream(config.audio),
                    config, tmp_path / "run", log_file=log_file)
        assert load_checkpoint(run.checkpoint_path).meta["step"] == 30
        assert len(run.loss_history) == 30
        assert run.loss_history[-1] < run.loss_history[0]
        out = tmp_path / "run"
        assert (out / "checkpoint_000010.s3ck").exists()
        assert (out / "checkpoint_000020.s3ck").exists()
        assert (out / "checkpoint_000030.s3ck").exists()
        assert run.checkpoint_path == out / "final.s3ck"

        # the log is step <tab> loss <tab> walltime
        lines = [ln.split("\t") for ln in
                 log_file.read_text().strip().splitlines()]
        assert all(len(parts) == 3 for parts in lines)
        assert lines[0][0] == "1"
        float(lines[0][1])

    def test_checkpoint_carries_stats_and_meta(self, toy_corpus, tmp_path):
        config = toy_config("simple", hidden_dim=32, lstmp_proj_dim=32,
                            steps=5, checkpoint_interval=5)
        run = train(toy_corpus["manifest"], mel_upstream(config.audio),
                    config, tmp_path / "run")
        ckpt = load_checkpoint(run.checkpoint_path)
        assert ckpt.meta["mode"] == "a2o"
        assert ckpt.meta["step"] == 5
        assert ckpt.meta["target_speaker"] == "SPK1"
        assert ckpt.meta["decoder"]["type"] == "simple"
        assert ckpt.meta["upstream"]["name"] == "mel"
        for key in ("stats.input_mean", "stats.input_std",
                    "stats.target_mean", "stats.target_std"):
            assert key in ckpt.tensors
            assert ckpt.tensors[key].shape in ((80,),)

    def test_rejects_empty_and_multi_speaker(self, toy_corpus_multi, tmp_path):
        config = toy_config("simple", steps=1)
        spec = mel_upstream(config.audio)
        empty = DatasetManifest(records=())
        with pytest.raises(ManifestError, match="empty manifest"):
            train(empty, spec, config, tmp_path / "r1")
        with pytest.raises(ManifestError):
            train(toy_corpus_multi["manifest"], spec, config,
                  tmp_path / "r2")

    def test_a_non_finite_loss_ends_training(self, toy_corpus, tmp_path, monkeypatch):
        calls = []

        def diverging(*args, **kwargs):
            calls.append(1)
            loss, grads = loss_and_grads(*args, **kwargs)
            return (np.inf if len(calls) == 2 else loss), grads

        monkeypatch.setattr(trainer, "loss_and_grads", diverging)
        config = toy_config("simple", steps=3, checkpoint_interval=3)
        with pytest.raises(VoiceConversionError, match="^loss diverged at step 2: inf$"):
            train(toy_corpus["manifest"], mel_upstream(config.audio), config,
                  tmp_path / "run")
        assert len(calls) == 2
        assert not list((tmp_path / "run").glob("*.s3ck"))

    def test_missing_external_features_fail_fast(self, toy_corpus, tmp_path):
        config = toy_config("simple", steps=1)
        first, *rest = [r.utt_id for r in toy_corpus["manifest"].records]
        (tmp_path / "feats").mkdir()
        write_features(feature_path(tmp_path / "feats", first), FeatureSequence(
            frames=np.zeros((20, 7), dtype=np.float32), frame_shift_ms=20.0))
        spec = external_upstream("ssl_stub", tmp_path / "feats")
        assert len(rest) == 19
        missing = re.escape(f"missing features for: {', '.join(rest)} "
                            f"(feature dir {tmp_path / 'feats'})")
        with pytest.raises(FeatureFileError, match=f"^{missing}$"):
            train(toy_corpus["manifest"], spec, config, tmp_path / "run")


@pytest.mark.parametrize("speakers", [("A",), ("A", "B")], ids=["a2o", "a2a"])
def test_the_encoder_decides_the_setting_on_a_manifest_without_a_role(
        toy_corpus, tmp_path, speakers):
    # two speakers with an encoder train A2A although the manifest declares no role
    records = toy_corpus["manifest"].records[:4]
    manifest = DatasetManifest(tuple(
        replace(r, speaker_id=speakers[i % len(speakers)]) for i, r in enumerate(records)))
    a2a = len(speakers) > 1
    config = toy_config("taco2_ar", hidden_dim=16, lstmp_proj_dim=16, prenet_dims=(8, 8),
                        postnet_layers=1, postnet_channels=8, embedding_dim=16,
                        steps=2, checkpoint_interval=2)
    encoder = (lambda rec: sphere_embedding(rec.utt_id)) if a2a else None
    run = train(manifest, mel_upstream(config.audio), config, tmp_path / "run", encoder)
    meta = load_checkpoint(run.checkpoint_path).meta
    assert meta["mode"] == ("a2a" if a2a else "a2o")
    assert meta["decoder"]["speaker_conditioned"] is a2a
    assert meta["target_speaker"] == (None if a2a else "A")


class TestTrainA2A:
    def test_trains_with_callable_encoder(self, toy_corpus_multi, tmp_path):
        config = toy_config("taco2_ar", hidden_dim=32, lstmp_proj_dim=32,
                            prenet_dims=(16, 16), postnet_layers=2,
                            postnet_channels=16, embedding_dim=16,
                            steps=10, checkpoint_interval=10)
        run = train(toy_corpus_multi["manifest"],
                    mel_upstream(config.audio), config, tmp_path / "run",
                    encoder=lambda rec: sphere_embedding(rec.utt_id))
        ckpt = load_checkpoint(run.checkpoint_path)
        assert ckpt.meta["mode"] == "a2a"
        assert ckpt.meta["decoder"]["speaker_conditioned"] is True

    def test_rejects_an_embedding_of_the_wrong_width(self, toy_corpus_multi, tmp_path):
        config = toy_config("taco2_ar", embedding_dim=16, steps=1)
        first = toy_corpus_multi["manifest"].records[0].utt_id
        with pytest.raises(VoiceConversionError, match=f"{first}: embedding dim 8 "):
            train(toy_corpus_multi["manifest"], mel_upstream(config.audio),
                  config, tmp_path / "run",
                  encoder=lambda rec: sphere_embedding(rec.utt_id, dim=8))

    @pytest.mark.parametrize("type_", ["simple", "simple_ar"])
    def test_rejects_a_decoder_without_conditioning_before_any_work(
            self, toy_corpus_multi, tmp_path, type_):
        config = toy_config(type_, steps=1)
        encoded = []
        with pytest.raises(ConfigError, match="^speaker conditioning is only available "
                                              "for the taco2_ar decoder$"):
            train(toy_corpus_multi["manifest"], mel_upstream(config.audio),
                  config, tmp_path / "run", encoder=encoded.append)
        assert encoded == [] and not (tmp_path / "run").exists()

    def test_rejects_single_speaker(self, toy_corpus, tmp_path):
        config = toy_config("taco2_ar", embedding_dim=16, steps=1)
        with pytest.raises(ManifestError, match="any-to-any training needs >= 2 speakers"):
            train(toy_corpus["manifest"], mel_upstream(config.audio),
                  config, tmp_path / "run",
                  encoder=lambda rec: sphere_embedding(rec.utt_id))


def test_one_cpu_and_two_write_the_same_checkpoint(toy_corpus, tmp_path, monkeypatch):
    config = toy_config("taco2_ar", hidden_dim=24, lstmp_proj_dim=24, batch_size=5,
                        steps=3, checkpoint_interval=3)
    spec = mel_upstream(config.audio)
    threads = []

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return teacher_forward_batch(*args, **kwargs)

    monkeypatch.setattr(trainer, "teacher_forward_batch", recording)
    written = []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        threads.clear()
        run = train(toy_corpus["manifest"], spec, config, tmp_path / f"cpus{n}")
        written.append(run.checkpoint_path.read_bytes())
        # two shards per step: on one thread given one CPU, on two given two
        assert len(threads) == 6
        assert [len({threads[i], threads[i + 1]}) for i in (0, 2, 4)] == [n] * 3
    assert written[0] == written[1]


_BLAS_CHILD = """\
import contextlib, sys
sys.path[:0] = sys.argv[1:3]
from recsynvc import blas
if sys.argv[5] == "unpinned":
    blas.one_blas_thread = contextlib.contextmanager(lambda: (yield))
from helpers import toy_config
from recsynvc import trainer
from recsynvc.manifest import load_manifest
from recsynvc.recognizer import mel_upstream

def threads():
    return [get() for (get,) in blas.openblas_functions("get_num_threads")]

during = []
def recording(*args, **kwargs):
    during.append(threads())
    return loss_and_grads(*args, **kwargs)

loss_and_grads = trainer.loss_and_grads
trainer.loss_and_grads = recording
config = toy_config("taco2_ar", batch_size=4, steps=2, checkpoint_interval=2)
run = trainer.train(load_manifest(sys.argv[3]), mel_upstream(config.audio), config, sys.argv[4])
print(during, threads())
"""


def test_training_runs_blas_on_one_thread_and_restores_the_count(tmp_path):
    if not openblas_functions("get_num_threads") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs numpy on OpenBLAS and two CPUs")
    # at this size, training on two BLAS threads writes other bytes than on one
    manifest = make_toy_corpus(tmp_path / "corpus", n_utterances=4, n_speakers=1,
                               duration=0.4, seed=0)
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"

    def child(blas_threads, mode):
        out = tmp_path / f"{mode}{blas_threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads)}
        proc = subprocess.run([sys.executable, "-c", _BLAS_CHILD, str(src), str(tests),
                               str(manifest), str(out), mode],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip(), (out / "final.s3ck").read_bytes()

    report, pinned = child(2, "pinned")
    assert report == "[[1], [1]] [2]"
    assert child(1, "pinned") == ("[[1], [1]] [1]", pinned)
    report, unpinned = child(2, "unpinned")
    assert report == "[[2], [2]] [2]"
    assert unpinned != pinned


def test_determinism_same_seed_same_bytes(toy_corpus, tmp_path):
    config = toy_config("simple_ar", hidden_dim=24, lstmp_proj_dim=24,
                        steps=8, checkpoint_interval=8)
    spec = mel_upstream(config.audio)
    a = train(toy_corpus["manifest"], spec, config, tmp_path / "a")
    b = train(toy_corpus["manifest"], spec, config, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.loss_history == b.loss_history
