"""Configuration loading.

Config files are INI-style text with four sections: ``[audio]``, ``[model]``,
``[training]`` and ``[evaluation]``.  Every key has a documented default (the
dataclass defaults below); unknown keys are rejected with a nearest-key
suggestion, and values that fail to parse raise ``ConfigError``.  Loaded
configurations are frozen dataclasses, so the same file always loads to an
equal object.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .types import ALLOWED_SAMPLE_RATES, N_MELS

DECODER_TYPES = ("simple", "simple_ar", "taco2_ar")

# Ceilings far above any setting the paper or this repository uses (batches of
# 8, Griffin-Lim's 32 iterations), so that a mistyped value is refused at load
# instead of building 10^8 batch indices or vocoding for days.
MAX_BATCH_SIZE = 1024
MAX_GRIFFIN_LIM_ITERS = 1000


@dataclass(frozen=True)
class AudioConfig:
    """Analysis parameters for the native mel extractor and vocoder."""

    sample_rate: int = 24000        # working rate; everything is resampled here
    win_length: int = 1024          # analysis window / FFT size in samples
    hop_length: int = 240           # 10 ms at 24 kHz
    fmin: float = 0.0
    fmax: float = 12000.0
    griffin_lim_iters: int = 32

    def __post_init__(self):
        if self.sample_rate not in ALLOWED_SAMPLE_RATES:
            raise ConfigError(f"sample_rate must be one of {ALLOWED_SAMPLE_RATES}, "
                              f"got {self.sample_rate}")
        if min(self.win_length, self.hop_length) < 1:
            raise ConfigError("win_length and hop_length must be positive")
        if not 0.0 <= self.fmin < self.fmax < math.inf:
            raise ConfigError("fmin and fmax must be finite with 0 <= fmin < fmax, "
                              f"got {self.fmin} and {self.fmax}")
        if self.fmax > self.sample_rate / 2:  # mel filters above Nyquist would be empty
            raise ConfigError(f"fmax must not exceed sample_rate / 2, got fmax {self.fmax} "
                              f"at sample_rate {self.sample_rate}")
        if not 0 <= self.griffin_lim_iters <= MAX_GRIFFIN_LIM_ITERS:
            raise ConfigError(f"griffin_lim_iters must lie in 0..{MAX_GRIFFIN_LIM_ITERS}, "
                              f"got {self.griffin_lim_iters}")

    @property
    def frame_shift_ms(self) -> float:
        return 1000.0 * self.hop_length / self.sample_rate


@dataclass(frozen=True)
class ModelConfig:
    """Decoder hyperparameters.

    The content width and whether the decoder is speaker-conditioned are
    facts of the training inputs, so ``ModelParameters`` holds them instead.
    ``embedding_dim`` is read only by a speaker-conditioned decoder.
    """

    type: str = "taco2_ar"
    hidden_dim: int = 256
    lstmp_proj_dim: int = 256
    prenet_dims: tuple[int, ...] = (256, 256)
    postnet_layers: int = 5
    postnet_channels: int = 256
    postnet_kernel: int = 5
    ar_dropout: float = 0.5
    embedding_dim: int = 256

    def __post_init__(self):
        if self.type not in DECODER_TYPES:
            raise ConfigError(
                f"unknown decoder type {self.type!r}; expected one of {DECODER_TYPES}"
            )
        if not self.prenet_dims:
            raise ConfigError("prenet_dims must list at least one width")
        if min(self.hidden_dim, self.lstmp_proj_dim, self.postnet_channels,
               self.embedding_dim, *self.prenet_dims, self.postnet_layers,
               self.postnet_kernel) < 1:
            raise ConfigError("model dimensions must be positive")
        if self.postnet_kernel % 2 == 0:
            raise ConfigError("postnet_kernel must be odd")
        if not 0.0 <= self.ar_dropout < 1.0:
            raise ConfigError("ar_dropout must lie in [0, 1)")


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-4
    batch_size: int = 8
    grad_clip: float = 1.0          # global gradient-norm clip
    steps: int = 500
    checkpoint_interval: int = 100
    log_interval: int = 10
    seed: int = 0

    def __post_init__(self):
        for key in ("steps", "batch_size", "checkpoint_interval", "log_interval"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ConfigError(f"batch_size must be at most {MAX_BATCH_SIZE}, "
                              f"got {self.batch_size}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.grad_clip < math.inf:  # 0 turns clipping off
            raise ConfigError(
                f"grad_clip must be finite and non-negative, got {self.grad_clip}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class EvalConfig:
    mcd_order: int = 24
    dropout_seed: int = 0                # conversion-time AR dropout stream

    def __post_init__(self):
        if not 1 <= self.mcd_order < N_MELS:  # cepstra c_1..c_order of an 80-bin mel
            raise ConfigError(f"mcd_order must lie in 1..{N_MELS - 1}, got {self.mcd_order}")
        if self.dropout_seed < 0:
            raise ConfigError(f"dropout_seed must be non-negative, got {self.dropout_seed}")


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Per field annotation: the parser of a stripped INI value, and the test of
#: whether a JSON value fits (a tuple is a JSON list).
_FIELD_TYPES = {
    "int": (int, _is_int),
    "float": (float, lambda v: isinstance(v, float) or _is_int(v)),
    "bool": (None, lambda v: isinstance(v, bool)),  # checkpoint meta only: no INI key
    "str": (str, lambda v: isinstance(v, str)),
    "tuple[int, ...]": (lambda raw: tuple(int(part) for part in raw.split(",")) if raw else (),
                        lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def config_from_json(cls, obj, entry: str, **extra: str):
    """Build the config dataclass ``cls`` from a JSON object, such as checkpoint meta.

    ``obj`` must hold exactly the fields of ``cls`` plus the keys of ``extra``,
    which maps further keys to field types; the caller reads those itself.  A
    value must have its field's JSON type (a list for a tuple).  Anything else,
    or a value ``cls`` rejects, raises ``ConfigError`` naming ``entry``.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{entry}: expected a JSON object, got {obj!r}")
    types = {**{f.name: f.type for f in fields(cls)}, **extra}
    unknown, missing = obj.keys() - types.keys(), types.keys() - obj.keys()
    if unknown or missing:
        raise ConfigError(f"{entry}: unknown keys {sorted(unknown)}, "
                          f"missing keys {sorted(missing)}")
    for key, value in obj.items():
        if not _FIELD_TYPES[types[key]][1](value):
            raise ConfigError(f"{entry} {key!r}: {value!r} is not {types[key]}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v
              for k, v in obj.items() if k not in extra}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{entry}: {exc}") from None


def _suggest(name, candidates):
    match = difflib.get_close_matches(name, candidates, n=1, cutoff=0.5)
    if match:
        return f"; did you mean {match[0]!r}?"
    return f"; valid keys: {', '.join(sorted(candidates))}"


def load_config(path) -> Config:
    """Load a configuration file, falling back to defaults for absent keys.

    Raises ``FileNotFoundError`` for a missing file, and ``ConfigError`` when
    the file is not UTF-8 INI text (naming the file), names a key or section
    that does not exist, or holds a value that does not parse as its declared
    type or lies out of range.
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
            raise ConfigError(
                f"unknown section [{section}]" + _suggest(section, list(_SECTIONS))
            )
        cls = _SECTIONS[section]
        known = {f.name: f for f in fields(cls)}
        overrides = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(
                    f"unknown key {section}.{key}" + _suggest(key, list(known))
                )
            parse = _FIELD_TYPES[known[key].type][0]
            try:
                overrides[key] = parse(raw.strip())
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"key '{section}.{key}': {exc}") from None
        kwargs[section] = cls(**overrides)
    return Config(**kwargs)
