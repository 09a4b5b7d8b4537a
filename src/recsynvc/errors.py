"""Exception types shared across the package.

Error types name input boundaries only.  Each boundary has one type:
``ManifestError`` for manifests, ``FeatureFileError`` for the binary
containers (feature files, embeddings and checkpoints) and directories of
them, ``WavFileError`` for wavs, ``ConfigError`` for INI files, config values
and the config meta of a checkpoint, ``AdapterError`` for external processes
and their output, and ``CorrelationFileError`` for metrics tables and
coefficient files.  A failure while reading a named input raises that
boundary's type with a message naming the input; any other failure raises
``VoiceConversionError`` itself.  The message tells one cause from another,
since no caller tells causes apart by type: a new cause gets a new message,
not a new class.  Every type derives from ``VoiceConversionError``, which the
command line reports as one line.
"""


class VoiceConversionError(Exception):
    """Base class for every error raised by this package."""


class ManifestError(VoiceConversionError):
    """A manifest file or a loaded manifest does not fit what reads it."""


class FeatureFileError(VoiceConversionError):
    """A feature file or checkpoint is missing, unreadable or corrupt, or holds
    frames, a frame shift or a width that its reader refuses."""


class WavFileError(VoiceConversionError):
    """A wav file cannot be decoded, or its rate, sample format, samples or
    length are refused."""


class ConfigError(VoiceConversionError):
    """A config file, config value or checkpoint meta is unreadable, unknown or
    out of range."""


class AdapterError(VoiceConversionError):
    """An external process adapter failed or wrote output that is refused.

    ``stderr`` carries the captured standard error of the child process, when
    the process ran.
    """

    def __init__(self, message, stderr=""):
        super().__init__(message if not stderr else f"{message}\n{stderr.rstrip()}")
        self.stderr = stderr


class CorrelationFileError(VoiceConversionError):
    """A metrics table or a published-correlations file is malformed."""
