"""Training loop: loss math, optimization, checkpoints, and error paths."""

import numpy as np
import pytest

from helpers import sphere_embedding, toy_config

from recsynvc.checkpoint import load_checkpoint
from recsynvc.config import ModelConfig
from recsynvc.converter import denormalize, normalize
from recsynvc.errors import (
    EmptyInputError,
    EmptyManifestError,
    ManifestError,
    MissingFeatureError,
    ShapeMismatchError,
    SingleSpeakerError,
)
from recsynvc.recognizer import external_upstream, mel_upstream
from recsynvc.synthesizer import build_decoder
from recsynvc.trainer import (
    AdamOptimizer,
    compute_loss,
    loss_and_grads,
    train_a2a,
    train_a2o,
)
from recsynvc.types import DatasetManifest


class TestComputeLoss:
    def test_plain_mean_absolute_error(self):
        pred = np.zeros((2, 3, 4))
        target = np.full((2, 3, 4), 2.0)
        assert compute_loss(pred, target) == pytest.approx(2.0)

    def test_mask_excludes_padding(self):
        pred = np.zeros((1, 3, 2))
        target = np.stack([[[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]]])
        mask = np.array([[1.0, 1.0, 0.0]])
        assert compute_loss(pred, target, mask) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            compute_loss(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)))
        with pytest.raises(ShapeMismatchError):
            compute_loss(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)),
                         np.zeros((1, 3)))

    def test_empty_mask(self):
        with pytest.raises(EmptyInputError):
            compute_loss(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)),
                         np.zeros((1, 2)))


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
    @pytest.mark.parametrize("type_,conditioned", [
        ("simple", False),
        ("taco2_ar", True),
    ])
    def test_gradients_match_fd_on_sampled_params(self, type_, conditioned):
        rng = np.random.default_rng(0)
        config = ModelConfig(
            type=type_, hidden_dim=8, lstmp_proj_dim=8,
            prenet_dims=(8, 8), postnet_layers=2, postnet_channels=8,
            postnet_kernel=3, ar_dropout=0.5,
            speaker_conditioned=conditioned,
            embedding_dim=4 if conditioned else 256)
        params = build_decoder(config, 6, seed=0)
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


class TestAdam:
    def test_moves_against_gradient(self):
        params = {"w": np.array([1.0, -1.0])}
        opt = AdamOptimizer(params, learning_rate=0.1)
        opt.step(params, {"w": np.array([1.0, -1.0])})
        assert params["w"][0] < 1.0
        assert params["w"][1] > -1.0

    def test_converges_on_quadratic(self):
        params = {"w": np.array([5.0])}
        opt = AdamOptimizer(params, learning_rate=0.2)
        for _ in range(200):
            opt.step(params, {"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 1e-2


class TestTrainA2O:
    def test_short_run_learns_and_checkpoints(self, toy_corpus, tmp_path):
        config = toy_config("simple", hidden_dim=32, lstmp_proj_dim=32,
                            steps=30, checkpoint_interval=10)
        log_file = tmp_path / "train.tsv"
        run = train_a2o(toy_corpus["manifest"], mel_upstream(config.audio),
                        config, tmp_path / "run", log_file=log_file)
        assert run.step == 30
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
        run = train_a2o(toy_corpus["manifest"], mel_upstream(config.audio),
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
        empty = DatasetManifest(records=(), role="source_eval")
        with pytest.raises(EmptyManifestError):
            train_a2o(empty, spec, config, tmp_path / "r1")
        with pytest.raises(ManifestError):
            train_a2o(toy_corpus_multi["manifest"], spec, config,
                      tmp_path / "r2")

    def test_rejects_conditioned_config(self, toy_corpus, tmp_path):
        config = toy_config("taco2_ar", speaker_conditioned=True, steps=1)
        with pytest.raises(ManifestError):
            train_a2o(toy_corpus["manifest"], mel_upstream(config.audio),
                      config, tmp_path / "run")

    def test_missing_external_features_fail_fast(self, toy_corpus, tmp_path):
        config = toy_config("simple", steps=1)
        spec = external_upstream("ssl_stub", 7, 20.0, tmp_path / "nofeat")
        (tmp_path / "nofeat").mkdir()
        with pytest.raises(MissingFeatureError) as err:
            train_a2o(toy_corpus["manifest"], spec, config, tmp_path / "run")
        assert len(err.value.utt_ids) == 20


class TestTrainA2A:
    def test_trains_with_callable_encoder(self, toy_corpus_multi, tmp_path):
        config = toy_config("taco2_ar", hidden_dim=32, lstmp_proj_dim=32,
                            prenet_dims=(16, 16), postnet_layers=2,
                            postnet_channels=16, embedding_dim=16,
                            steps=10, checkpoint_interval=10)
        run = train_a2a(toy_corpus_multi["manifest"],
                        mel_upstream(config.audio), config, tmp_path / "run",
                        encoder=lambda rec: sphere_embedding(rec.utt_id))
        ckpt = load_checkpoint(run.checkpoint_path)
        assert ckpt.meta["mode"] == "a2a"
        assert ckpt.meta["decoder"]["speaker_conditioned"] is True

    def test_trains_with_mapping_encoder(self, toy_corpus_multi, tmp_path):
        config = toy_config("taco2_ar", hidden_dim=32, lstmp_proj_dim=32,
                            prenet_dims=(16, 16), postnet_layers=2,
                            postnet_channels=16, embedding_dim=16,
                            steps=4, checkpoint_interval=4)
        table = {rec.utt_id: sphere_embedding(rec.utt_id)
                 for rec in toy_corpus_multi["manifest"].records}
        run = train_a2a(toy_corpus_multi["manifest"],
                        mel_upstream(config.audio), config, tmp_path / "run",
                        encoder=table)
        assert run.step == 4

    def test_mapping_missing_utterance(self, toy_corpus_multi, tmp_path):
        config = toy_config("taco2_ar", embedding_dim=16, steps=1)
        with pytest.raises(MissingFeatureError):
            train_a2a(toy_corpus_multi["manifest"],
                      mel_upstream(config.audio), config, tmp_path / "run",
                      encoder={})

    def test_rejects_single_speaker(self, toy_corpus, tmp_path):
        config = toy_config("taco2_ar", embedding_dim=16, steps=1)
        with pytest.raises(SingleSpeakerError):
            train_a2a(toy_corpus["manifest"], mel_upstream(config.audio),
                      config, tmp_path / "run",
                      encoder=lambda rec: sphere_embedding(rec.utt_id))


def test_determinism_same_seed_same_bytes(toy_corpus, tmp_path):
    config = toy_config("simple_ar", hidden_dim=24, lstmp_proj_dim=24,
                        steps=8, checkpoint_interval=8)
    spec = mel_upstream(config.audio)
    a = train_a2o(toy_corpus["manifest"], spec, config, tmp_path / "a")
    b = train_a2o(toy_corpus["manifest"], spec, config, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.loss_history == b.loss_history
