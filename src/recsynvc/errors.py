"""Exception types shared across the package."""


class VoiceConversionError(Exception):
    """Base class for every error raised by this package."""


# --- manifests -------------------------------------------------------------

class ManifestError(VoiceConversionError):
    pass


class ManifestParseError(ManifestError):
    """A manifest line is not valid JSON or not a JSON object."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateUtteranceError(ManifestError):
    """Two records share an utt_id; ``first`` and ``second`` count from 1."""

    def __init__(self, utt_id, first, second):
        super().__init__(f"duplicate utt_id {utt_id!r} in records {first} and {second}")
        self.utt_id = utt_id


class MissingFieldError(ManifestError):
    def __init__(self, field, line_number):
        super().__init__(f"line {line_number}: missing required field {field!r}")
        self.field = field
        self.line_number = line_number


class EmptyManifestError(ManifestError):
    pass


class SingleSpeakerError(ManifestError):
    """A multi-speaker operation received a single-speaker manifest."""


# --- binary files (feature files, checkpoints, wavs) -------------------------

class FeatureFileError(VoiceConversionError):
    pass


class BadMagicError(FeatureFileError):
    pass


class VersionMismatchError(FeatureFileError):
    pass


class TruncatedFileError(FeatureFileError):
    pass


class WavFileError(VoiceConversionError):
    """A wav file cannot be decoded."""


# --- configuration ----------------------------------------------------------

class ConfigError(VoiceConversionError):
    pass


class UnknownKeyError(ConfigError):
    pass


class ConfigTypeError(ConfigError):
    pass


# --- model / pipeline contracts ---------------------------------------------

class InvalidConfigError(VoiceConversionError):
    """A decoder configuration or a model checkpoint's meta violates its invariants."""


class ShapeMismatchError(VoiceConversionError):
    pass


class LengthMismatchError(VoiceConversionError):
    pass


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


class DegenerateVarianceError(VoiceConversionError):
    pass


class InsufficientRowsError(VoiceConversionError):
    pass


class TooShortInputError(VoiceConversionError):
    pass


class NonFiniteInputError(VoiceConversionError):
    pass
