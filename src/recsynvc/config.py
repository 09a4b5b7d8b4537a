"""Configuration loading.

Config files are INI-style text with four sections: ``[audio]``, ``[model]``,
``[training]`` and ``[evaluation]``.  Every key has a documented default (the
dataclass defaults below); unknown keys are rejected with a nearest-key
suggestion, and values that fail to parse raise a type error.  Loaded
configurations are frozen dataclasses, so the same file always loads to an
equal object.
"""

from __future__ import annotations

import configparser
import difflib
from dataclasses import dataclass, field, fields

from .errors import ConfigError, ConfigTypeError, InvalidConfigError, UnknownKeyError

DECODER_TYPES = ("simple", "simple_ar", "taco2_ar")


@dataclass(frozen=True)
class AudioConfig:
    """Analysis parameters for the native mel extractor and vocoder."""

    sample_rate: int = 24000        # working rate; everything is resampled here
    win_length: int = 1024          # analysis window / FFT size in samples
    hop_length: int = 240           # 10 ms at 24 kHz
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float = 12000.0
    griffin_lim_iters: int = 32

    def __post_init__(self):
        if min(self.sample_rate, self.win_length, self.hop_length, self.n_mels) < 1:
            raise ConfigTypeError(
                "sample_rate, win_length, hop_length and n_mels must be positive"
            )
        if not 0.0 <= self.fmin < self.fmax:
            raise ConfigTypeError("audio frequencies must satisfy 0 <= fmin < fmax")
        if self.griffin_lim_iters < 0:
            raise ConfigTypeError("griffin_lim_iters must be non-negative")

    @property
    def frame_shift_ms(self) -> float:
        return 1000.0 * self.hop_length / self.sample_rate


@dataclass(frozen=True)
class ModelConfig:
    """Decoder hyperparameters; ``input_dim`` is supplied by the upstream."""

    type: str = "taco2_ar"
    hidden_dim: int = 256
    lstmp_proj_dim: int = 256
    prenet_dims: tuple[int, ...] = (256, 256)
    postnet_layers: int = 5
    postnet_channels: int = 256
    postnet_kernel: int = 5
    ar_dropout: float = 0.5
    speaker_conditioned: bool = False
    embedding_dim: int = 256

    def __post_init__(self):
        if self.type not in DECODER_TYPES:
            raise ConfigTypeError(
                f"unknown decoder type {self.type!r}; expected one of {DECODER_TYPES}"
            )
        if not self.prenet_dims:
            raise ConfigTypeError("prenet_dims must list at least one width")
        if min(self.hidden_dim, self.lstmp_proj_dim, self.postnet_channels,
               self.embedding_dim, *self.prenet_dims, self.postnet_layers,
               self.postnet_kernel) < 1:
            raise ConfigTypeError("model dimensions must be positive")
        if self.postnet_kernel % 2 == 0:
            raise ConfigTypeError("postnet_kernel must be odd")
        if not 0.0 <= self.ar_dropout < 1.0:
            raise ConfigTypeError("ar_dropout must lie in [0, 1)")
        if self.speaker_conditioned and self.type != "taco2_ar":
            raise ConfigTypeError(
                "speaker conditioning is only available for the taco2_ar decoder"
            )


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-4
    batch_size: int = 8
    grad_clip: float = 1.0          # global gradient-norm clip
    steps: int = 500
    checkpoint_interval: int = 100
    log_interval: int = 10
    seed: int = 0


@dataclass(frozen=True)
class EvalConfig:
    mcd_order: int = 24
    asv_threshold: float | None = None   # None: no default; ASV needs --threshold
    dropout_seed: int = 0                # conversion-time AR dropout stream


@dataclass(frozen=True)
class Config:
    audio: AudioConfig = field(default_factory=AudioConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)


_SECTIONS = {
    "audio": AudioConfig,
    "model": ModelConfig,
    "training": TrainingConfig,
    "evaluation": EvalConfig,
}


def _parse_bool(raw, key):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigTypeError(f"key {key!r}: expected a boolean, got {raw!r}")


def _parse_value(raw, f, key):
    raw = raw.strip()
    tp = f.type
    try:
        if tp == "int":
            return int(raw)
        if tp == "float":
            return float(raw)
        if tp == "bool":
            return _parse_bool(raw, key)
        if tp == "str":
            return raw
        if tp.startswith("tuple"):
            if not raw:
                return ()
            return tuple(int(part) for part in raw.split(","))
        if tp == "float | None":
            return None if raw.lower() == "none" else float(raw)
    except ConfigTypeError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigTypeError(f"key {key!r}: {exc}") from None
    raise ConfigTypeError(f"key {key!r}: unhandled field type {tp!r}")


def _has_type(value, type_name: str) -> bool:
    """Whether a JSON value fits a config field annotation."""
    if type_name == "tuple[int, ...]":
        return isinstance(value, list) and all(_has_type(v, "int") for v in value)
    expected = {"bool": bool, "int": int, "float": (int, float), "str": str}[type_name]
    return isinstance(value, expected) and (type_name == "bool") == isinstance(value, bool)


def config_from_json(cls, obj, entry: str, **extra: str):
    """Build the config dataclass ``cls`` from a JSON object, such as checkpoint meta.

    ``obj`` must hold exactly the fields of ``cls`` plus the keys of ``extra``,
    which maps further keys to field types; the caller reads those itself.  A
    value must have its field's JSON type (a list for a tuple).  Anything else,
    or a value ``cls`` rejects, raises ``InvalidConfigError`` naming ``entry``.
    """
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{entry}: expected a JSON object, got {obj!r}")
    types = {**{f.name: f.type for f in fields(cls)}, **extra}
    unknown, missing = obj.keys() - types.keys(), types.keys() - obj.keys()
    if unknown or missing:
        raise InvalidConfigError(f"{entry}: unknown keys {sorted(unknown)}, "
                                 f"missing keys {sorted(missing)}")
    for key, value in obj.items():
        if not _has_type(value, types[key]):
            raise InvalidConfigError(f"{entry} {key!r}: {value!r} is not {types[key]}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v
              for k, v in obj.items() if k not in extra}
    try:
        return cls(**kwargs)
    except ConfigTypeError as exc:
        raise InvalidConfigError(f"{entry}: {exc}") from None


def _suggest(name, candidates):
    match = difflib.get_close_matches(name, candidates, n=1, cutoff=0.5)
    if match:
        return f"; did you mean {match[0]!r}?"
    return f"; valid keys: {', '.join(sorted(candidates))}"


def default_config() -> Config:
    return Config()


def load_config(path) -> Config:
    """Load a configuration file, falling back to defaults for absent keys.

    Raises ``FileNotFoundError`` for a missing file, ``ConfigError`` naming
    the file when it is not UTF-8 INI text, ``UnknownKeyError`` for keys (or
    sections) that do not exist, and ``ConfigTypeError`` when a value cannot
    be parsed as the declared type.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:  # one line, not configparser's several
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None

    kwargs = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise UnknownKeyError(
                f"unknown section [{section}]" + _suggest(section, list(_SECTIONS))
            )
        cls = _SECTIONS[section]
        known = {f.name: f for f in fields(cls)}
        overrides = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise UnknownKeyError(
                    f"unknown key {section}.{key}" + _suggest(key, list(known))
                )
            overrides[key] = _parse_value(raw, known[key], f"{section}.{key}")
        kwargs[section] = cls(**overrides)
    return Config(**kwargs)
