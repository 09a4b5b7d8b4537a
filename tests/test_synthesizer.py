"""Decoder construction, forward passes, and inference contracts."""

from dataclasses import asdict

import numpy as np
import pytest

from recsynvc.checkpoint import Checkpoint, save_checkpoint
from recsynvc.config import AudioConfig, ModelConfig
from recsynvc.converter import load_model
from recsynvc.errors import (
    DimensionMismatchError,
    ExtraEmbeddingError,
    LengthMismatchError,
    MissingEmbeddingError,
)
from recsynvc.synthesizer import (
    build_decoder,
    decoder_meta,
    forward_free_running,
    forward_teacher,
    free_forward_batch,
    shift_frames_right,
    teacher_forward_batch,
)
from recsynvc.trainer import loss_and_grads
from recsynvc.types import SpeakerEmbedding


INPUT_DIM = 12


def _config(type_, **kw):
    base = dict(hidden_dim=16, lstmp_proj_dim=16,
                prenet_dims=(8, 8), postnet_layers=2, postnet_channels=8,
                postnet_kernel=3, ar_dropout=0.5)
    base.update(kw)
    return ModelConfig(type=type_, **base)


def _through_checkpoint(params, tmp_path):
    """Write ``params`` as a checkpoint file and load it back as parameters."""
    meta = {"decoder": decoder_meta(params.config, params.input_dim),
            "audio": asdict(AudioConfig()), "seed": params.seed,
            "upstream": {"name": "ssl", "feature_dim": params.input_dim,
                         "frame_shift_ms": 20.0}}
    widths = {"input": params.input_dim, "target": 80}
    stats = {f"stats.{side}_{kind}": np.ones(width)
             for side, width in widths.items() for kind in ("mean", "std")}
    path = tmp_path / "model.s3ck"
    save_checkpoint(path, Checkpoint(meta=meta, tensors={**params.tensors, **stats}))
    return load_model(path).params


def _data(rng, t=11, input_dim=12):
    content = rng.standard_normal((t, input_dim))
    target = rng.standard_normal((t, 80))
    return content, target


class TestDecoderMeta:
    def test_dict_round_trip(self, tmp_path):
        config = _config("taco2_ar", speaker_conditioned=True, embedding_dim=4)
        again = _through_checkpoint(build_decoder(config, INPUT_DIM, seed=0), tmp_path)
        assert again.config == config
        assert again.input_dim == INPUT_DIM
        assert isinstance(again.config.prenet_dims, tuple)

    def test_from_model_config(self, tmp_path):
        model = ModelConfig(type="simple", hidden_dim=32, lstmp_proj_dim=24)
        params = _through_checkpoint(build_decoder(model, 7, seed=0), tmp_path)
        assert params.input_dim == 7
        assert params.config == model
        assert params.config.hidden_dim == 32
        assert params.config.lstmp_proj_dim == 24

    def test_validation(self):
        with pytest.raises(Exception):
            _config("bogus")
        with pytest.raises(Exception):
            _config("taco2_ar", postnet_kernel=4)
        with pytest.raises(Exception):
            _config("simple", speaker_conditioned=True)


class TestBuildDecoder:
    @pytest.mark.parametrize("type_", ["simple", "simple_ar", "taco2_ar"])
    def test_build_produces_finite_tensors(self, type_):
        params = build_decoder(_config(type_), INPUT_DIM, seed=0)
        assert params.parameter_count > 0
        for name, tensor in params.tensors.items():
            assert np.all(np.isfinite(tensor)), name

    def test_seed_changes_weights(self):
        a = build_decoder(_config("simple"), INPUT_DIM, seed=0)
        b = build_decoder(_config("simple"), INPUT_DIM, seed=1)
        assert any(not np.array_equal(a.tensors[k], b.tensors[k])
                   for k in a.tensors)

    def test_same_seed_reproduces(self):
        a = build_decoder(_config("taco2_ar"), INPUT_DIM, seed=3)
        b = build_decoder(_config("taco2_ar"), INPUT_DIM, seed=3)
        assert a.tensors.keys() == b.tensors.keys()
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])

    def test_ar_feedback_widens_first_recurrent_input(self):
        plain = build_decoder(_config("simple"), INPUT_DIM, seed=0)
        ar = build_decoder(_config("simple_ar"), INPUT_DIM, seed=0)
        # the AR variant feeds the previous output frame into the first LSTMP
        assert (ar.tensors["lstmp1.wx"].shape[1]
                == plain.tensors["lstmp1.wx"].shape[1] + 80)


class TestForward:
    def test_shift_frames_right(self):
        frames = np.arange(12, dtype=np.float64).reshape(3, 4)
        shifted = shift_frames_right(frames)
        assert np.array_equal(shifted[0], np.zeros(4))
        assert np.array_equal(shifted[1:], frames[:-1])

    @pytest.mark.parametrize("type_", ["simple", "simple_ar", "taco2_ar"])
    def test_teacher_output_shape(self, type_):
        rng = np.random.default_rng(0)
        params = build_decoder(_config(type_), INPUT_DIM, seed=0)
        content, target = _data(rng)
        out = forward_teacher(params, content, target)
        assert out.shape == (11, 80)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("type_", ["simple", "simple_ar", "taco2_ar"])
    def test_free_running_shape(self, type_):
        rng = np.random.default_rng(0)
        params = build_decoder(_config(type_), INPUT_DIM, seed=0)
        content, _ = _data(rng)
        out = forward_free_running(params, content)
        assert out.shape == (11, 80)
        assert np.all(np.isfinite(out))

    def test_simple_free_running_ignores_feedback(self):
        # without an AR path, free-running equals the teacher-forced pass
        rng = np.random.default_rng(1)
        params = build_decoder(_config("simple"), INPUT_DIM, seed=0)
        content, target = _data(rng)
        teacher = forward_teacher(params, content, target)
        free = forward_free_running(params, content)
        np.testing.assert_allclose(free, teacher, atol=1e-12)

    @pytest.mark.parametrize("type_, conditioned", [
        ("simple", False), ("simple_ar", False), ("taco2_ar", False), ("taco2_ar", True),
    ], ids=["simple", "simple_ar", "taco2_ar", "taco2_ar_speaker"])
    def test_teacher_forcing_own_output_reproduces_free_running(self, type_, conditioned):
        # each teacher pass fixes one more fed-back frame, so after T passes
        # the teacher input is exactly what free-running feeds back
        rng = np.random.default_rng(8)
        extra = dict(speaker_conditioned=True, embedding_dim=4) if conditioned else {}
        params = build_decoder(_config(type_, ar_dropout=0.0, **extra), INPUT_DIM, seed=0)
        batch, t_len = 2, 7
        content = rng.standard_normal((batch, t_len, INPUT_DIM))
        spk = rng.standard_normal((batch, 4)) if conditioned else None
        fed_back = np.zeros((batch, t_len, 80))
        for _ in range(t_len):
            main, before, _ = teacher_forward_batch(
                params, content, shift_frames_right(fed_back), spk, 0)
            fed_back = main if before is None else before
        free = free_forward_batch(params, content, spk, 0)
        np.testing.assert_allclose(main, free, rtol=0, atol=1e-12)

    def test_ar_dropout_seed_controls_inference(self):
        rng = np.random.default_rng(2)
        params = build_decoder(_config("taco2_ar"), INPUT_DIM, seed=0)
        content, _ = _data(rng)
        a = forward_free_running(params, content, dropout_seed=5)
        b = forward_free_running(params, content, dropout_seed=5)
        c = forward_free_running(params, content, dropout_seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)  # dropout stays live at inference

    def test_length_mismatch(self):
        rng = np.random.default_rng(3)
        params = build_decoder(_config("simple_ar"), INPUT_DIM, seed=0)
        content, target = _data(rng)
        with pytest.raises(LengthMismatchError):
            forward_teacher(params, content, target[:-1])

    def test_content_dim_mismatch(self):
        rng = np.random.default_rng(4)
        params = build_decoder(_config("simple"), INPUT_DIM, seed=0)
        content, target = _data(rng, input_dim=13)
        with pytest.raises(DimensionMismatchError):
            forward_teacher(params, content, target)

    def test_embedding_requirements(self):
        rng = np.random.default_rng(5)
        conditioned = build_decoder(
            _config("taco2_ar", speaker_conditioned=True, embedding_dim=4), INPUT_DIM,
            seed=0)
        content, target = _data(rng)
        emb = SpeakerEmbedding.from_raw(rng.standard_normal(4))
        with pytest.raises(MissingEmbeddingError):
            forward_teacher(conditioned, content, target)
        out = forward_teacher(conditioned, content, target, embedding=emb)
        assert out.shape == (11, 80)

        plain = build_decoder(_config("taco2_ar"), INPUT_DIM, seed=0)
        with pytest.raises(ExtraEmbeddingError):
            forward_teacher(plain, content, target, embedding=emb)

    def test_embedding_dim_checked(self):
        rng = np.random.default_rng(6)
        conditioned = build_decoder(
            _config("taco2_ar", speaker_conditioned=True, embedding_dim=4), INPUT_DIM,
            seed=0)
        content, target = _data(rng)
        wrong = SpeakerEmbedding.from_raw(rng.standard_normal(5))
        with pytest.raises(DimensionMismatchError):
            forward_teacher(conditioned, content, target, embedding=wrong)

    def test_embedding_changes_output(self):
        rng = np.random.default_rng(7)
        conditioned = build_decoder(
            _config("taco2_ar", speaker_conditioned=True, embedding_dim=4), INPUT_DIM,
            seed=0)
        content, _ = _data(rng)
        e1 = SpeakerEmbedding.from_raw(rng.standard_normal(4))
        e2 = SpeakerEmbedding.from_raw(rng.standard_normal(4))
        a = forward_free_running(conditioned, content, embedding=e1,
                                 dropout_seed=0)
        b = forward_free_running(conditioned, content, embedding=e2,
                                 dropout_seed=0)
        assert np.mean(np.abs(a - b)) > 1e-6


class TestGradients:
    @pytest.mark.parametrize("type_, conditioned, kernel", [
        ("simple", False, 3), ("simple_ar", False, 3),
        ("taco2_ar", False, 1), ("taco2_ar", False, 3),
        ("taco2_ar", True, 1), ("taco2_ar", True, 3),
    ], ids=["simple", "simple_ar", "taco2_ar_k1", "taco2_ar_k3",
            "taco2_ar_speaker_k1", "taco2_ar_speaker_k3"])
    def test_directional_derivative_of_every_tensor(self, type_, conditioned, kernel):
        # one random unit direction per tensor: the central difference of the
        # loss along it must match <grad, v>, so no tensor goes unchecked
        rng = np.random.default_rng(9)
        extra = dict(speaker_conditioned=True, embedding_dim=4) if conditioned else {}
        params = build_decoder(_config(type_, hidden_dim=8, lstmp_proj_dim=6,
                                       postnet_layers=3, postnet_kernel=kernel, **extra),
                               INPUT_DIM, seed=0)
        # off the zero-bias init, so no ReLU unit sits on its kink, and large
        # enough that no tensor's derivative drowns in rounding
        for tensor in params.tensors.values():
            tensor += 0.1 * rng.standard_normal(tensor.shape)
        batch, t_len = 3, 6
        content = rng.standard_normal((batch, t_len, INPUT_DIM))
        target = rng.standard_normal((batch, t_len, 80))
        mask = np.ones((batch, t_len))
        mask[1, 4:] = 0.0
        mask[2, 2:] = 0.0
        spk = rng.standard_normal((batch, 4)) if conditioned else None

        def loss():
            return loss_and_grads(params, content, target, mask, spk, dropout_seed=1)[0]

        _, grads = loss_and_grads(params, content, target, mask, spk, dropout_seed=1)
        eps = 1e-4
        for name, tensor in params.tensors.items():
            v = rng.standard_normal(tensor.shape)
            v /= np.linalg.norm(v)
            saved = tensor.copy()
            tensor += eps * v
            up = loss()
            tensor[...] = saved - eps * v
            down = loss()
            tensor[...] = saved
            fd = (up - down) / (2.0 * eps)
            analytic = float(np.sum(grads[name] * v))
            assert analytic == pytest.approx(fd, rel=1e-6, abs=0.0), name
