"""Configuration parsing: defaults, overrides, and error reporting."""

import pytest

from recsynvc.config import (
    AudioConfig,
    Config,
    ModelConfig,
    TrainingConfig,
    default_config,
    load_config,
)
from recsynvc.errors import ConfigError, ConfigTypeError


def test_defaults():
    config = default_config()
    assert config.audio.sample_rate == 24000
    assert config.audio.n_mels == 80
    assert config.audio.hop_length == 240
    assert config.audio.frame_shift_ms == pytest.approx(10.0)
    assert config.model.type == "taco2_ar"
    assert config.training.learning_rate == pytest.approx(1e-4)
    assert config.training.batch_size == 8
    assert config.training.grad_clip == pytest.approx(1.0)
    assert config.evaluation.mcd_order == 24
    assert config.evaluation.asv_threshold is None


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
        "asv_threshold = 0.5\n"
    )
    config = load_config(path)
    assert config.model.type == "simple"
    assert config.model.hidden_dim == 64
    assert config.model.prenet_dims == (32, 32)
    assert config.training.learning_rate == pytest.approx(0.003)
    assert config.training.steps == 50
    assert config.evaluation.asv_threshold == pytest.approx(0.5)
    # untouched sections keep defaults
    assert config.audio.sample_rate == 24000


def test_threshold_none_parses_and_calibration_words_are_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[evaluation]\nasv_threshold = none\n")
    assert load_config(path).evaluation.asv_threshold is None
    for word in ("auto", "eer"):
        # nothing calibrates a threshold from the config, so these are errors
        path.write_text(f"[evaluation]\nasv_threshold = {word}\n")
        with pytest.raises(ConfigTypeError, match="asv_threshold"):
            load_config(path)


def test_unknown_key_suggests(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[training]\nlearning_rte = 0.1\n")
    with pytest.raises(ConfigError, match="learning_rate"):
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


def test_missing_file():
    with pytest.raises((ConfigError, OSError)):
        load_config("/nonexistent/run.ini")


def test_model_validation():
    with pytest.raises(ConfigTypeError):
        ModelConfig(type="transformer")
    with pytest.raises(ConfigTypeError):
        ModelConfig(postnet_kernel=4)
    with pytest.raises(ConfigTypeError):
        ModelConfig(ar_dropout=1.0)
    with pytest.raises(ConfigTypeError):
        ModelConfig(type="simple", speaker_conditioned=True)
    with pytest.raises(ConfigTypeError):
        ModelConfig(postnet_kernel=-1)
    with pytest.raises(ConfigTypeError):
        ModelConfig(prenet_dims=())


def test_sections_are_frozen():
    config = Config(audio=AudioConfig(), model=ModelConfig(),
                    training=TrainingConfig())
    with pytest.raises(Exception):
        config.training.steps = 1
