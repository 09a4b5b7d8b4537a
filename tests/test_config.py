"""Configuration parsing: defaults, overrides, and error reporting."""

import dataclasses
import json

import pytest

from recsynvc.config import (
    _FIELD_TYPES,
    _SECTIONS,
    MAX_BATCH_SIZE,
    MAX_GRIFFIN_LIM_ITERS,
    MAX_KERNEL,
    MAX_LAYERS,
    MAX_WIDTH,
    MAX_WINDOW,
    AudioConfig,
    Config,
    ModelConfig,
    TrainingConfig,
    load_config,
)
from recsynvc.errors import ConfigError


def test_defaults():
    config = Config()
    assert config.audio.sample_rate == 24000
    assert config.audio.hop_length == 240
    assert config.audio.frame_shift_ms == pytest.approx(10.0)
    assert config.model.type == "taco2_ar"
    assert config.training.learning_rate == pytest.approx(1e-4)
    assert config.training.batch_size == 8
    assert config.training.grad_clip == pytest.approx(1.0)
    assert config.evaluation.mcd_order == 24
    assert config.evaluation.dropout_seed == 0


def test_load_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[model]\n"
        "type = simple\n"
        "hidden_dim = 64\n"
        "prenet_dims = 32,32\n"
        "[training]\n"
        "learning_rate = 0.003\n"
        "steps = 50\n"
        "[evaluation]\n"
        "dropout_seed = 7\n"
    )
    config = load_config(path)
    assert config.model.type == "simple"
    assert config.model.hidden_dim == 64
    assert config.model.prenet_dims == (32, 32)
    assert config.training.learning_rate == pytest.approx(0.003)
    assert config.training.steps == 50
    assert config.evaluation.dropout_seed == 7
    # untouched sections keep defaults
    assert config.audio.sample_rate == 24000


def test_asv_threshold_is_not_a_key(tmp_path):
    # the ASV threshold is `evaluate --threshold` alone
    path = tmp_path / "run.ini"
    path.write_text("[evaluation]\nasv_threshold = 0.5\n")
    with pytest.raises(ConfigError, match="unknown key evaluation.asv_threshold"):
        load_config(path)


def test_unknown_key_suggests(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[training]\nlearning_rte = 0.1\n")
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(path)


def test_mel_width_is_not_a_key(tmp_path):
    # the mel is 80-dim throughout; the width is no setting
    path = tmp_path / "run.ini"
    path.write_text("[audio]\nn_mels = 80\n")
    with pytest.raises(ConfigError, match="unknown key audio.n_mels; valid keys: fmax"):
        load_config(path)


def test_speaker_conditioning_is_not_a_key(tmp_path):
    # train conditions the decoder exactly when it is given embeddings (A2A)
    path = tmp_path / "run.ini"
    path.write_text("[model]\nspeaker_conditioned = true\n")
    with pytest.raises(ConfigError, match="unknown key model.speaker_conditioned"):
        load_config(path)


def test_unknown_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[optimizer]\nlr = 0.1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_value_type(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[training]\nsteps = lots\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_every_field_type_parses_ini_text_and_checks_json():
    """Each field's default survives its annotation's INI parser and passes its JSON check."""
    for cls in _SECTIONS.values():
        for f in dataclasses.fields(cls):
            parse, fits = _FIELD_TYPES[f.type]
            default = getattr(cls(), f.name)
            text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
            assert parse(text) == default, f.name
            assert fits(json.loads(json.dumps(default))), f.name
            assert not fits(None), f.name


def test_missing_file():
    with pytest.raises((ConfigError, OSError)):
        load_config("/nonexistent/run.ini")


def test_model_validation():
    with pytest.raises(ConfigError, match="unknown decoder type"):
        ModelConfig(type="transformer")
    with pytest.raises(ConfigError, match="postnet_kernel must be odd"):
        ModelConfig(postnet_kernel=4)
    with pytest.raises(ConfigError, match="ar_dropout"):
        ModelConfig(ar_dropout=1.0)
    with pytest.raises(ConfigError, match=rf"^postnet_kernel must lie in 1..{MAX_KERNEL}, "
                                          r"got -1$"):
        ModelConfig(postnet_kernel=-1)
    with pytest.raises(ConfigError, match=rf"^prenet_dims must list 1..{MAX_LAYERS} widths, "
                                          r"got 0$"):
        ModelConfig(prenet_dims=())


@pytest.mark.parametrize("line", [
    "sample_rate = 0", "win_length = 0", "hop_length = 0",
    "fmin = -1", "fmin = 12000", "fmax = 0", "griffin_lim_iters = -1",
    f"griffin_lim_iters = {MAX_GRIFFIN_LIM_ITERS + 1}",
    "sample_rate = 12345", "fmax = inf", "fmin = nan",
    f"win_length = {MAX_WINDOW + 1}", f"hop_length = {MAX_WINDOW + 1}",
    # above the Nyquist frequency: 40 kHz at 24 kHz, and the default 12 kHz at 16 kHz
    "fmax = 40000", "sample_rate = 16000",
])
def test_audio_validation(tmp_path, line):
    path = tmp_path / "run.ini"
    path.write_text(f"[audio]\n{line}\n")
    with pytest.raises(ConfigError, match=line.split()[0]):
        load_config(path)


def test_fmax_above_nyquist_names_both_keys():
    with pytest.raises(ConfigError, match=r"fmax must not exceed sample_rate / 2, "
                                          r"got fmax 12000.0 at sample_rate 16000"):
        AudioConfig(sample_rate=16000)
    assert AudioConfig(sample_rate=16000, fmax=8000.0).fmax == 8000.0


def test_audio_accepts_zero_griffin_lim_iterations(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[audio]\ngriffin_lim_iters = 0\nfmin = 0\n")
    assert load_config(path).audio.griffin_lim_iters == 0


@pytest.mark.parametrize("section, line", [
    ("training", "steps = 0"), ("training", "steps = -3"), ("training", "batch_size = 0"),
    ("training", f"batch_size = {MAX_BATCH_SIZE + 1}"),
    ("training", "log_interval = 0"), ("training", "checkpoint_interval = 0"),
    ("training", "learning_rate = 0"), ("training", "learning_rate = nan"),
    ("training", "learning_rate = inf"), ("training", "grad_clip = -1"),
    ("training", "grad_clip = nan"), ("evaluation", "mcd_order = 0"),
    ("evaluation", "mcd_order = -3"), ("evaluation", "mcd_order = 80"),
    ("evaluation", "mcd_order = 200"), ("training", "seed = -1"),
    ("evaluation", "dropout_seed = -3"),
])
def test_training_and_evaluation_validation(tmp_path, section, line):
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{line}\n")
    with pytest.raises(ConfigError, match=line.split()[0]):
        load_config(path)


def test_range_ends_are_accepted(tmp_path):
    # grad_clip = 0 turns clipping off; c_1..c_79 are the cepstra of an 80-bin mel
    path = tmp_path / "run.ini"
    path.write_text("[training]\nsteps = 1\ngrad_clip = 0\nseed = 0\n"
                    "[evaluation]\nmcd_order = 79\ndropout_seed = 0\n")
    config = load_config(path)
    assert (config.training.steps, config.training.grad_clip) == (1, 0.0)
    assert (config.training.seed, config.evaluation.dropout_seed) == (0, 0)
    path.write_text("[evaluation]\nmcd_order = 1\n")
    assert load_config(path).evaluation.mcd_order == 1


CEILINGS = {
    "training": {"batch_size": MAX_BATCH_SIZE},
    "audio": {"griffin_lim_iters": MAX_GRIFFIN_LIM_ITERS, "win_length": MAX_WINDOW,
              "hop_length": MAX_WINDOW},
    "model": {"hidden_dim": MAX_WIDTH, "lstmp_proj_dim": MAX_WIDTH,
              "postnet_channels": MAX_WIDTH, "embedding_dim": MAX_WIDTH,
              "prenet_dims": (MAX_WIDTH,) * MAX_LAYERS, "postnet_layers": MAX_LAYERS,
              "postnet_kernel": MAX_KERNEL},
}


def test_values_at_the_ceilings_load(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("".join(
        f"[{section}]\n" + "".join(
            f"{key} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
            for key, v in keys.items())
        for section, keys in CEILINGS.items()))
    config = load_config(path)
    for section, keys in CEILINGS.items():
        for key, value in keys.items():
            assert getattr(getattr(config, section), key) == value, key


def test_sections_are_frozen():
    config = Config(audio=AudioConfig(), model=ModelConfig(),
                    training=TrainingConfig())
    with pytest.raises(Exception):
        config.training.steps = 1
