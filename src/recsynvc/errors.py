"""Exception types shared across the package.

Each input boundary has one type: ``ManifestError`` for manifests,
``FeatureFileError`` for the binary containers, ``WavFileError`` for wavs,
``ConfigError`` for INI files and config values, ``AdapterError`` for
external processes, and ``CorrelationFileError`` for metrics tables and
coefficient files.  The message tells one cause from another, since no
caller tells causes apart by type: a new cause at a boundary gets a new
message, not a new class.  The other types state pipeline contracts.  Every
type derives from ``VoiceConversionError``, which the command line reports
as one line.
"""


class VoiceConversionError(Exception):
    """Base class for every error raised by this package."""


# --- input boundaries ----------------------------------------------------------

class ManifestError(VoiceConversionError):
    """A manifest file or a loaded manifest does not fit what reads it."""


class FeatureFileError(VoiceConversionError):
    """A feature file or checkpoint has a bad magic or version, ends inside a
    field, has trailing bytes, holds text that is not UTF-8 JSON, or holds
    frames or a frame shift that ``FeatureSequence`` refuses."""


class WavFileError(VoiceConversionError):
    """A wav file cannot be decoded, or its rate, sample format or samples are refused."""


class ConfigError(VoiceConversionError):
    """A config file or config value is unreadable, unknown or out of range."""


# --- model / pipeline contracts ---------------------------------------------

class InvalidConfigError(VoiceConversionError):
    """A decoder configuration or a model checkpoint's meta violates its invariants."""


class DimensionMismatchError(VoiceConversionError):
    pass


class MissingEmbeddingError(VoiceConversionError):
    """A speaker-conditioned model was invoked without an embedding."""


class ExtraEmbeddingError(VoiceConversionError):
    """An embedding was supplied to a model that is not speaker-conditioned."""


class ZeroMeanVectorError(VoiceConversionError):
    """Averaging embeddings produced a (near-)zero vector."""


class MissingFeatureError(VoiceConversionError):
    """Content features are unavailable for one or more utterances."""

    def __init__(self, utt_ids, detail=""):
        ids = [utt_ids] if isinstance(utt_ids, str) else list(utt_ids)
        msg = f"missing features for: {', '.join(ids)}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.utt_ids = ids


# --- external adapters -------------------------------------------------------

class AdapterError(VoiceConversionError):
    """An external process adapter failed.

    ``stderr`` carries the captured standard error of the child process when
    the failure was a nonzero exit.
    """

    def __init__(self, message, stderr=""):
        super().__init__(message if not stderr else f"{message}\n{stderr.rstrip()}")
        self.stderr = stderr


# --- evaluation ---------------------------------------------------------------

class EmptyInputError(VoiceConversionError):
    pass


class TooShortInputError(VoiceConversionError):
    pass


class NonFiniteInputError(VoiceConversionError):
    pass


class CorrelationFileError(VoiceConversionError):
    """A metrics table or a published-correlations file is malformed."""
