"""Exception types shared across the package.

Error types name input boundaries only.  Each boundary has one type:
``ManifestError`` for manifests, ``FeatureFileError`` for the binary
containers (feature files, embeddings and checkpoints) and directories of
them, ``WavFileError`` for wavs, ``ConfigError`` for INI files, config values
and the config meta of a checkpoint, ``AdapterError`` for external processes
and their output, and ``CorrelationFileError`` for metrics tables and
coefficient files.  The function that opens an input names it once: it runs
its reading under ``naming``, which re-raises a failure as that boundary's
type with the input's name in front.  Code below it raises the bare cause,
usually ``VoiceConversionError`` itself, which is also what any failure
outside a named input raises.  The message tells one cause from another,
since no caller tells causes apart by type: a new cause gets a new message,
not a new class.  Every type derives from ``VoiceConversionError``, which the
command line reports as one line.
"""

from contextlib import contextmanager


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


@contextmanager
def naming(where, error, catch=VoiceConversionError, *details):
    """Re-raise a ``catch`` from the block as ``error(f"{where}: {exc}", *details)``.

    ``where`` names the input (a path, a line) or the step that failed; the
    cause is dropped from the chain, since its message is already in the text.
    """
    try:
        yield
    except catch as exc:
        raise error(f"{where}: {exc}", *details) from None
