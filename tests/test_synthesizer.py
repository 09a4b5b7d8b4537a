"""Decoder construction, forward passes, and inference contracts."""

import tracemalloc

import numpy as np
import pytest

from recsynvc.checkpoint import save_checkpoint
from recsynvc.config import MAX_WIDTH, AudioConfig, ModelConfig
from recsynvc.converter import TrainedModel, load_model, model_checkpoint
from recsynvc.errors import ConfigError, VoiceConversionError
from recsynvc.nnops import conv1d_same
from recsynvc.recognizer import Upstream
from recsynvc.synthesizer import (
    backward_teacher_batch,
    build_decoder,
    dropout_masks,
    forward_free_running,
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
    widths = {"input": params.input_dim, "target": 80}
    stats = {f"{side}_{kind}": np.ones(width)
             for side, width in widths.items() for kind in ("mean", "std")}
    model = TrainedModel(params, stats, AudioConfig(), Upstream("ssl", params.input_dim, 20.0))
    path = tmp_path / "model.s3ck"
    save_checkpoint(path, model_checkpoint(model, 0, None))
    return load_model(path).params


def _data(rng, t=11, input_dim=12):
    content = rng.standard_normal((t, input_dim))
    target = rng.standard_normal((t, 80))
    return content, target


class TestDecoderMeta:
    def test_dict_round_trip(self, tmp_path):
        config = _config("taco2_ar", embedding_dim=4)
        again = _through_checkpoint(build_decoder(config, INPUT_DIM, True, seed=0), tmp_path)
        assert again.config == config
        assert again.input_dim == INPUT_DIM
        assert again.speaker_conditioned is True
        assert isinstance(again.config.prenet_dims, tuple)

    def test_from_model_config(self, tmp_path):
        model = ModelConfig(type="simple", hidden_dim=32, lstmp_proj_dim=24)
        params = _through_checkpoint(build_decoder(model, 7, False, seed=0), tmp_path)
        assert params.input_dim == 7
        assert params.speaker_conditioned is False
        assert params.config == model
        assert params.config.hidden_dim == 32
        assert params.config.lstmp_proj_dim == 24

    def test_validation(self):
        with pytest.raises(Exception):
            _config("bogus")
        with pytest.raises(Exception):
            _config("taco2_ar", postnet_kernel=4)
        for type_ in ("simple", "simple_ar"):
            with pytest.raises(ConfigError, match="^speaker conditioning is only available "
                                                  "for the taco2_ar decoder$"):
                build_decoder(_config(type_), INPUT_DIM, True, seed=0)

    def test_a_refused_decoder_draws_no_weight(self):
        for width in (0, MAX_WIDTH + 1):
            with pytest.raises(ConfigError, match=f"^input_dim must lie in 1..{MAX_WIDTH}, "
                                                  f"got {width}$"):
                build_decoder(_config("simple"), width, False, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="speaker conditioning"):
                build_decoder(ModelConfig(type="simple"), 768, True, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestBuildDecoder:
    @pytest.mark.parametrize("type_", ["simple", "simple_ar", "taco2_ar"])
    def test_build_produces_finite_tensors(self, type_):
        params = build_decoder(_config(type_), INPUT_DIM, False, seed=0)
        for name, tensor in params.tensors.items():
            assert np.all(np.isfinite(tensor)), name

    def test_seed_changes_weights(self):
        a = build_decoder(_config("simple"), INPUT_DIM, False, seed=0)
        b = build_decoder(_config("simple"), INPUT_DIM, False, seed=1)
        assert any(not np.array_equal(a.tensors[k], b.tensors[k])
                   for k in a.tensors)

    def test_same_seed_reproduces(self):
        a = build_decoder(_config("taco2_ar"), INPUT_DIM, False, seed=3)
        b = build_decoder(_config("taco2_ar"), INPUT_DIM, False, seed=3)
        assert a.tensors.keys() == b.tensors.keys()
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])

    def test_ar_feedback_widens_first_recurrent_input(self):
        plain = build_decoder(_config("simple"), INPUT_DIM, False, seed=0)
        ar = build_decoder(_config("simple_ar"), INPUT_DIM, False, seed=0)
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
        params = build_decoder(_config(type_), INPUT_DIM, False, seed=0)
        content, target = _data(rng)
        masks = dropout_masks(params, (1, 11), np.random.default_rng(0))
        out = teacher_forward_batch(params, content[None],
                                    shift_frames_right(target)[None], None, masks,
                                    np.ones((1, 11)))[0]
        assert out.shape == (1, 11, 80)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("type_", ["simple", "simple_ar", "taco2_ar"])
    def test_free_running_shape(self, type_):
        rng = np.random.default_rng(0)
        params = build_decoder(_config(type_), INPUT_DIM, False, seed=0)
        content, _ = _data(rng)
        out = forward_free_running(params, content, None, dropout_seed=0)
        assert out.shape == (11, 80)
        assert np.all(np.isfinite(out))

    def test_simple_free_running_ignores_feedback(self):
        # without an AR path, free-running equals the teacher-forced pass
        rng = np.random.default_rng(1)
        params = build_decoder(_config("simple"), INPUT_DIM, False, seed=0)
        content, target = _data(rng)
        masks = dropout_masks(params, (1, 11), np.random.default_rng(0))
        teacher = teacher_forward_batch(params, content[None],
                                        shift_frames_right(target)[None], None, masks,
                                        np.ones((1, 11)))[0][0]
        free = forward_free_running(params, content, None, dropout_seed=0)
        np.testing.assert_allclose(free, teacher, atol=1e-12)

    @pytest.mark.parametrize("type_, conditioned", [
        ("simple", False), ("simple_ar", False), ("taco2_ar", False), ("taco2_ar", True),
    ], ids=["simple", "simple_ar", "taco2_ar", "taco2_ar_speaker"])
    def test_teacher_forcing_own_output_reproduces_free_running(self, type_, conditioned):
        # each teacher pass fixes one more fed-back frame, so after T passes
        # the teacher input is exactly what free-running feeds back
        rng = np.random.default_rng(8)
        extra = dict(embedding_dim=4) if conditioned else {}
        params = build_decoder(_config(type_, ar_dropout=0.0, **extra), INPUT_DIM,
                               conditioned, seed=0)
        batch, t_len = 2, 7
        content = rng.standard_normal((batch, t_len, INPUT_DIM))
        spk = rng.standard_normal((batch, 4)) if conditioned else None
        fed_back = np.zeros((batch, t_len, 80))
        for _ in range(t_len):
            main, before, _ = teacher_forward_batch(
                params, content, shift_frames_right(fed_back), spk,
                dropout_masks(params, (batch, t_len), np.random.default_rng(0)),
                np.ones((batch, t_len)))
            fed_back = main if before is None else before
        free = free_forward_batch(params, content, spk, 0)
        np.testing.assert_allclose(main, free, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("type_, conditioned, input_dim", [
        ("simple_ar", False, INPUT_DIM), ("taco2_ar", False, INPUT_DIM),
        ("taco2_ar", True, INPUT_DIM), ("taco2_ar", False, 768),
    ], ids=["simple_ar", "taco2_ar", "taco2_ar_speaker", "taco2_ar_768"])
    def test_free_running_matches_a_full_input_step_loop(self, type_, conditioned, input_dim):
        # free-running projects the feedback-free columns before its time loop;
        # this loop joins the whole first-layer input and applies the full wx
        rng = np.random.default_rng(9)
        extra = dict(embedding_dim=4) if conditioned else {}
        config = _config(type_, **extra)
        params = build_decoder(config, input_dim, conditioned, seed=1)
        p = params.tensors
        batch, t_len = 2, 9
        content = rng.standard_normal((batch, t_len, input_dim))
        spk = rng.standard_normal((batch, 4)) if conditioned else None
        free = free_forward_batch(params, content, spk, dropout_seed=3)
        assert free.tobytes() == free_forward_batch(params, content, spk, 3).tobytes()

        draws = np.random.default_rng(3)

        def dropout(shape):
            return (draws.random(shape) >= config.ar_dropout) / (1.0 - config.ar_dropout)

        layers = ("lstm1", "lstm2") if type_ == "taco2_ar" else ("lstmp1", "lstmp2")
        state = {name: (np.zeros((batch, p[f"{name}.wh"].shape[1])),
                        np.zeros((batch, config.hidden_dim))) for name in layers}
        prev = np.zeros((batch, 80))
        before = np.empty((batch, t_len, 80))
        for t in range(t_len):
            if type_ == "simple_ar":
                ffn = np.maximum(content[:, t] @ p["ffn.w"].T + p["ffn.b"], 0.0)
                x = np.concatenate([ffn, prev * dropout(prev.shape)], axis=1)
            else:
                fed = prev
                for i in (1, 2):
                    z = fed @ p[f"prenet{i}.w"].T + p[f"prenet{i}.b"]
                    fed = np.maximum(z, 0.0) * dropout(z.shape)
                x = np.concatenate([fed, content[:, t]] + ([spk] if conditioned else []),
                                   axis=1)
            for name in layers:
                h, c = state[name]
                z = x @ p[f"{name}.wx"].T + h @ p[f"{name}.wh"].T + p[f"{name}.b"]
                i, f, g, o = np.split(z, 4, axis=1)
                c = 1 / (1 + np.exp(-f)) * c + 1 / (1 + np.exp(-i)) * np.tanh(g)
                x = 1 / (1 + np.exp(-o)) * np.tanh(c)
                if name.startswith("lstmp"):
                    x = x @ p[f"{name}.wp"].T
                state[name] = (x, c)
            prev = before[:, t] = x @ p["out.w"].T + p["out.b"]
        expected = before
        if type_ == "taco2_ar":
            y = before
            for i in (1, 2):
                y = conv1d_same(y, p[f"postnet{i}.w"], p[f"postnet{i}.b"])[0]
                y = np.tanh(y) if i < 2 else y
            expected = before + y
        np.testing.assert_allclose(free, expected, rtol=0, atol=1e-12)

    def test_ar_dropout_seed_controls_inference(self):
        rng = np.random.default_rng(2)
        params = build_decoder(_config("taco2_ar"), INPUT_DIM, False, seed=0)
        content, _ = _data(rng)
        a = forward_free_running(params, content, None, dropout_seed=5)
        b = forward_free_running(params, content, None, dropout_seed=5)
        c = forward_free_running(params, content, None, dropout_seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)  # dropout stays live at inference

    def test_embedding_requirements(self):
        rng = np.random.default_rng(5)
        conditioned = build_decoder(_config("taco2_ar", embedding_dim=4), INPUT_DIM, True,
                                    seed=0)
        content, _ = _data(rng)
        emb = SpeakerEmbedding.from_raw(rng.standard_normal(4))
        with pytest.raises(VoiceConversionError, match="decoder needs an embedding"):
            forward_free_running(conditioned, content, None, dropout_seed=0)
        out = forward_free_running(conditioned, content, emb, dropout_seed=0)
        assert out.shape == (11, 80)

        plain = build_decoder(_config("taco2_ar"), INPUT_DIM, False, seed=0)
        with pytest.raises(VoiceConversionError, match="not speaker-conditioned"):
            forward_free_running(plain, content, emb, dropout_seed=0)

    def test_embedding_dim_checked(self):
        rng = np.random.default_rng(6)
        conditioned = build_decoder(_config("taco2_ar", embedding_dim=4), INPUT_DIM, True,
                                    seed=0)
        content, _ = _data(rng)
        wrong = SpeakerEmbedding.from_raw(rng.standard_normal(5))
        with pytest.raises(VoiceConversionError, match="^embedding dim 5 != configured 4$"):
            forward_free_running(conditioned, content, wrong, dropout_seed=0)

    def test_embedding_changes_output(self):
        rng = np.random.default_rng(7)
        conditioned = build_decoder(_config("taco2_ar", embedding_dim=4), INPUT_DIM, True,
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
        extra = dict(embedding_dim=4) if conditioned else {}
        params = build_decoder(_config(type_, hidden_dim=8, lstmp_proj_dim=6,
                                       postnet_layers=3, postnet_kernel=kernel, **extra),
                               INPUT_DIM, conditioned, seed=0)
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

    @pytest.mark.parametrize("type_", ["simple", "simple_ar", "taco2_ar"])
    def test_top_output_is_held_once(self, type_):
        rng = np.random.default_rng(4)
        params = build_decoder(_config(type_), INPUT_DIM, False, seed=0)
        # a batch of two, since a one-utterance transpose is contiguous anyway
        (c1, t1), (c2, t2) = _data(rng), _data(rng)
        content, prev = np.stack([c1, c2]), np.stack([shift_frames_right(t1),
                                                      shift_frames_right(t2)])
        masks = dropout_masks(params, prev.shape[:2], np.random.default_rng(0))
        _, _, cache = teacher_forward_batch(params, content, prev, None, masks,
                                            np.ones(prev.shape[:2]))
        stack_caches, h_seq = cache[3], cache[4]
        top_out = stack_caches[-1][-1]  # (T + 1, B, R), the zero state first
        assert np.shares_memory(h_seq, top_out)
        assert np.array_equal(h_seq, top_out[1:].transpose(1, 0, 2))

    @pytest.mark.parametrize("type_", ["simple", "simple_ar", "taco2_ar"])
    def test_backward_empties_the_cache_lists(self, type_):
        rng = np.random.default_rng(3)
        params = build_decoder(_config(type_), INPUT_DIM, False, seed=0)
        content, target = _data(rng)
        main, before, cache = teacher_forward_batch(
            params, content[None], shift_frames_right(target)[None], None,
            dropout_masks(params, (1, 11), np.random.default_rng(0)), np.ones((1, 11)))
        _, ffn_positive, input_cache, stack_caches, _, post_caches, _ = cache
        assert len(stack_caches) == 2
        if type_ == "taco2_ar":
            assert all(len(part) == 2 for part in input_cache)
            assert len(post_caches) == 2
        else:
            assert ffn_positive.dtype == bool
        backward_teacher_batch(params, cache, np.ones_like(main),
                               None if before is None else np.ones_like(before))
        assert stack_caches == []
        if type_ == "taco2_ar":
            assert input_cache == ([], [], []) and post_caches == []
