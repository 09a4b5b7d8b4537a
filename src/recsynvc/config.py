"""Configuration loading.

Config files are INI-style text with four sections: ``[audio]``, ``[model]``,
``[training]`` and ``[evaluation]``.  Every key has a documented default and
each numeric key a range, both declared on its dataclass field below.  Unknown
keys (with a nearest-key suggestion), unparsable values and values out of range
raise ``ConfigError``.  Loaded configurations are frozen dataclasses, so the
same file always loads to an equal object.
"""

from __future__ import annotations

import configparser
import difflib
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError, VoiceConversionError, naming
from .types import ALLOWED_SAMPLE_RATES, N_MELS

DECODER_TYPES = ("simple", "simple_ar", "taco2_ar")

# Ceilings far above any setting the paper or this repository uses, so that a
# mistyped value is refused at load instead of allocating terabytes or running
# for days.  The largest sizes in use are Tacotron 2's (a 1024-wide LSTM, a
# 5-layer postnet of kernel 5), 1024-dim upstreams, batches of 8 and 32
# Griffin-Lim iterations.
MAX_BATCH_SIZE = 1024
MAX_GRIFFIN_LIM_ITERS = 1000
MAX_WIDTH = 4096        # every layer and embedding width, and an upstream's feature_dim
MAX_LAYERS = 64         # postnet layers, and prenet layers
MAX_KERNEL = 63         # postnet kernel, in frames
MAX_WINDOW = 16000      # win_length and hop_length in samples: one second at 16 kHz


def _ranged(default, lo, hi=math.inf):
    """A field whose value, or each entry of a tuple value, must lie in ``lo..hi``."""
    return field(default=default, metadata={"range": (lo, hi)})


def _check_ranges(section) -> None:
    """Refuse a value outside its field's declared range, NaN and ±inf included."""
    for f in fields(section):
        if "range" in f.metadata:
            lo, hi = f.metadata["range"]
            value = getattr(section, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if not lo <= v <= hi or abs(v) == math.inf:
                    raise ConfigError(f"{f.name} must lie in {lo}..{hi}, got {v}")


@dataclass(frozen=True)
class AudioConfig:
    """Analysis parameters for the native mel extractor and vocoder."""

    sample_rate: int = 24000        # working rate; everything is resampled here
    win_length: int = _ranged(1024, 1, MAX_WINDOW)  # analysis window / FFT size in samples
    hop_length: int = _ranged(240, 1, MAX_WINDOW)   # 10 ms at 24 kHz
    fmin: float = _ranged(0.0, 0, max(ALLOWED_SAMPLE_RATES) // 2)
    fmax: float = _ranged(12000.0, 0, max(ALLOWED_SAMPLE_RATES) // 2)
    griffin_lim_iters: int = _ranged(32, 0, MAX_GRIFFIN_LIM_ITERS)

    def __post_init__(self):
        if self.sample_rate not in ALLOWED_SAMPLE_RATES:
            raise ConfigError(f"sample_rate must be one of {ALLOWED_SAMPLE_RATES}, "
                              f"got {self.sample_rate}")
        _check_ranges(self)
        if self.fmin >= self.fmax:
            raise ConfigError(f"fmin must be below fmax, got {self.fmin} and {self.fmax}")
        if self.fmax > self.sample_rate / 2:  # mel filters above Nyquist would be empty
            raise ConfigError(f"fmax must not exceed sample_rate / 2, got fmax {self.fmax} "
                              f"at sample_rate {self.sample_rate}")

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
    hidden_dim: int = _ranged(256, 1, MAX_WIDTH)
    lstmp_proj_dim: int = _ranged(256, 1, MAX_WIDTH)
    prenet_dims: tuple[int, ...] = _ranged((256, 256), 1, MAX_WIDTH)
    postnet_layers: int = _ranged(5, 1, MAX_LAYERS)
    postnet_channels: int = _ranged(256, 1, MAX_WIDTH)
    postnet_kernel: int = _ranged(5, 1, MAX_KERNEL)
    ar_dropout: float = _ranged(0.5, 0, math.nextafter(1.0, 0.0))  # below 1
    embedding_dim: int = _ranged(256, 1, MAX_WIDTH)

    def __post_init__(self):
        if self.type not in DECODER_TYPES:
            raise ConfigError(
                f"unknown decoder type {self.type!r}; expected one of {DECODER_TYPES}"
            )
        _check_ranges(self)
        if not 1 <= len(self.prenet_dims) <= MAX_LAYERS:
            raise ConfigError(f"prenet_dims must list 1..{MAX_LAYERS} widths, "
                              f"got {len(self.prenet_dims)}")
        if self.postnet_kernel % 2 == 0:
            raise ConfigError("postnet_kernel must be odd")


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = _ranged(1e-4, math.nextafter(0.0, 1.0))  # above 0
    batch_size: int = _ranged(8, 1, MAX_BATCH_SIZE)
    grad_clip: float = _ranged(1.0, 0)  # global gradient-norm clip; 0 turns clipping off
    steps: int = _ranged(500, 1)
    checkpoint_interval: int = _ranged(100, 1)
    log_interval: int = _ranged(10, 1)
    seed: int = _ranged(0, 0)

    __post_init__ = _check_ranges


@dataclass(frozen=True)
class EvalConfig:
    mcd_order: int = _ranged(24, 1, N_MELS - 1)  # cepstra c_1..c_order of an 80-bin mel
    dropout_seed: int = _ranged(0, 0)            # conversion-time AR dropout stream

    __post_init__ = _check_ranges


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
    with naming(entry, ConfigError):
        return cls(**kwargs)


def _suggest(name, candidates):
    match = difflib.get_close_matches(name, candidates, n=1, cutoff=0.5)
    if match:
        return f"; did you mean {match[0]!r}?"
    return f"; valid keys: {', '.join(sorted(candidates))}"


def load_config(path) -> Config:
    """Load a configuration file, falling back to defaults for absent keys.

    Raises ``FileNotFoundError`` for a missing file, and ``ConfigError`` naming
    the file when it is not UTF-8 INI text, names a key or section that does
    not exist, or holds a value that does not parse as its declared type or
    lies out of range.
    """
    parser = configparser.ConfigParser(interpolation=None)
    with naming(path, ConfigError), open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:  # one line, not several
            raise VoiceConversionError(" ".join(str(exc).split())) from None
        kwargs = {}
        for section in parser.sections():
            if section not in _SECTIONS:
                raise VoiceConversionError(
                    f"unknown section [{section}]" + _suggest(section, list(_SECTIONS)))
            cls = _SECTIONS[section]
            known = {f.name: f for f in fields(cls)}
            overrides = {}
            for key, raw in parser.items(section):
                if key not in known:
                    raise VoiceConversionError(
                        f"unknown key {section}.{key}" + _suggest(key, list(known)))
                parse = _FIELD_TYPES[known[key].type][0]
                with naming(f"key '{section}.{key}'", VoiceConversionError,
                            (TypeError, ValueError)):
                    overrides[key] = parse(raw.strip())
            kwargs[section] = cls(**overrides)
        return Config(**kwargs)
