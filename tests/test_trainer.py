"""Training loop: loss math, optimization, checkpoints, and error paths."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import sphere_embedding, toy_config

from recsynvc import trainer
from recsynvc.checkpoint import load_checkpoint
from recsynvc.config import ModelConfig
from recsynvc.converter import denormalize, normalize
from recsynvc.errors import ConfigError, FeatureFileError, ManifestError, VoiceConversionError
from recsynvc.featureio import feature_path, write_features
from recsynvc.recognizer import external_upstream, mel_upstream
from recsynvc.synthesizer import build_decoder
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
            opt.step(params, grads)
            ref.step(ref_params, grads)
            for k in shapes:
                assert params[k].tobytes() == ref_params[k].tobytes(), k
                assert opt.m[k].tobytes() == ref.m[k].tobytes(), k
                assert opt.v[k].tobytes() == ref.v[k].tobytes(), k

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
    def test_later_steps_hold_no_more_than_the_first(self, toy_corpus, tmp_path,
                                                     monkeypatch):
        # a step's gradients die once Adam has applied them, so each step
        # starts with what the first started with
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
        assert max(at_entry[1:]) - at_entry[0] < 0.1 * grad_bytes, (at_entry, grad_bytes)

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


def test_determinism_same_seed_same_bytes(toy_corpus, tmp_path):
    config = toy_config("simple_ar", hidden_dim=24, lstmp_proj_dim=24,
                        steps=8, checkpoint_interval=8)
    spec = mel_upstream(config.audio)
    a = train(toy_corpus["manifest"], spec, config, tmp_path / "a")
    b = train(toy_corpus["manifest"], spec, config, tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.loss_history == b.loss_history
