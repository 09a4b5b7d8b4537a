"""One defective input per reader and defect ends as its boundary's error type,
with a message that names the input once and no chained cause."""

import json
import struct

import pytest

from recsynvc.audioio import load_waveform
from recsynvc.benchmark import published_correlations, read_metrics_table
from recsynvc.checkpoint import load_checkpoint
from recsynvc.config import AudioConfig, load_config
from recsynvc.converter import read_embedding, vocoder_command
from recsynvc.errors import (AdapterError, ConfigError, CorrelationFileError,
                             FeatureFileError, ManifestError, WavFileError)
from recsynvc.featureio import read_features
from recsynvc.manifest import load_manifest

_HEADER = "system\tmcd\twer\tasv\tnaturalness\tsimilarity\n"


def _s3vc(rows, dim=2, magic=b"S3VC", version=1, value=0.5):
    head = magic + struct.pack("<IIIf", version, rows, dim, 10.0)
    return head + struct.pack(f"<{rows * dim}f", *[value] * (rows * dim))


def _s3ck(meta: bytes, *names: bytes, value=0.0):
    tensors = b"".join(struct.pack("<I", len(n)) + n + struct.pack("<II", 1, 1)
                       + struct.pack("<d", value) for n in names)
    return (b"S3CK" + struct.pack("<II", 1, len(meta)) + meta
            + struct.pack("<I", len(names)) + tensors)


def _wav(fmt_chunk=True, form=b"WAVE", tag=1, width=2, samples=(0,) * 2000, size=None):
    code = {1: "h", 3: "f"}[tag]
    data = struct.pack(f"<{len(samples)}{code}", *samples)
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, tag, 1, 24000, 24000 * width, width,
                                8 * width)
    body = form + (fmt if fmt_chunk else b"")
    body += b"data" + struct.pack("<I", len(data) if size is None else size) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _manifest(*lines: str):
    return "".join(line + "\n" for line in lines).encode()


def _record(utt_id="a", **fields):
    return json.dumps({"utt_id": utt_id, "speaker_id": "s", "wav_path": "a.wav", **fields})


def _waveform(path):
    return load_waveform(path, AudioConfig())


def _adapter_command(_path):
    return vocoder_command("external:vocode 'mel")


#: (id, file bytes, reader of the file's path, error type, message with {path})
CASES = [
    ("s3vc-truncated", _s3vc(2)[:-1], read_features, FeatureFileError,
     "{path}: truncated: 16 bytes needed at offset 20, 15 left"),
    ("s3vc-bad-magic", _s3vc(2, magic=b"NOPE"), read_features, FeatureFileError,
     "{path}: bad magic b'NOPE', expected b'S3VC'"),
    ("s3vc-bad-version", _s3vc(2, version=7), read_features, FeatureFileError,
     "{path}: unsupported version 7, expected 1"),
    ("s3vc-trailing-bytes", _s3vc(2) + b"\0", read_features, FeatureFileError,
     "{path}: 1 trailing bytes after the last field"),
    ("s3vc-non-finite", _s3vc(2, value=float("nan")), read_features, FeatureFileError,
     "{path}: feature frames contain non-finite values"),
    ("wav-truncated", _wav(size=8000), _waveform, WavFileError,
     "{path}: truncated: 8000 bytes needed at offset 44, 4000 left"),
    ("wav-bad-form", _wav(form=b"AVI "), _waveform, WavFileError,
     "{path}: RIFF form b'AVI ' is not WAVE"),
    ("wav-no-fmt", _wav(fmt_chunk=False), _waveform, WavFileError,
     "{path}: no fmt chunk before the data chunk"),
    ("wav-nan", _wav(tag=3, width=4, samples=(float("nan"),) * 2000), _waveform,
     WavFileError, "{path}: waveform contains non-finite samples"),
    ("wav-too-short", _wav(samples=(0,) * 100), _waveform, WavFileError,
     "{path}: need at least 1024 samples for one analysis window, got 100"),
    ("s3ck-meta-not-object", _s3ck(b"[1]"), load_checkpoint, FeatureFileError,
     "{path}: checkpoint meta is not a JSON object"),
    ("s3ck-invalid-json", _s3ck(b"{"), load_checkpoint, FeatureFileError,
     "{path}: invalid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("s3ck-name-not-utf8", _s3ck(b"{}", b"\xff"), load_checkpoint, FeatureFileError,
     "{path}: text is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    ("s3ck-non-finite-stats", _s3ck(b"{}", b"stats.target_std", value=float("nan")),
     load_checkpoint, FeatureFileError,
     "{path}: tensor 'stats.target_std' contains non-finite values"),
    ("s3ck-non-finite-decoder", _s3ck(b"{}", b"lstm1.wh", value=float("inf")),
     load_checkpoint, FeatureFileError, "{path}: tensor 'lstm1.wh' contains non-finite values"),
    ("s3ck-repeated-name", _s3ck(b"{}", b"w", b"w"), load_checkpoint, FeatureFileError,
     "{path}: tensor 'w' appears twice"),
    ("embedding-two-rows", _s3vc(2), read_embedding, FeatureFileError,
     "{path}: expected a single embedding row, got 2 frames"),
    ("adapter-command-unparsable", b"", _adapter_command, AdapterError,
     "cannot parse adapter command \"vocode 'mel\": No closing quotation"),
    ("manifest-missing-field", _manifest('{"utt_id": "a", "speaker_id": "s"}'),
     load_manifest, ManifestError, "{path}: line 1: missing required field 'wav_path'"),
    ("manifest-bad-json", _manifest(_record(), "{"), load_manifest, ManifestError,
     "{path}: line 2: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("manifest-not-object", _manifest("[1]"), load_manifest, ManifestError,
     "{path}: line 1: expected a JSON object"),
    ("manifest-bad-utt-id", _manifest(_record("a/b")), load_manifest, ManifestError,
     "{path}: line 1: utt_id 'a/b' must be one file-name component: no '/' or NUL, "
     "and not '.' or '..'"),
    ("manifest-duplicate-id", _manifest(_record(), _record()), load_manifest, ManifestError,
     "{path}: duplicate utt_id 'a' in records 1 and 2"),
    ("manifest-not-utf8", _manifest(_record()) + b"\xff\n", load_manifest, ManifestError,
     "{path}: line 2: not UTF-8 (invalid start byte)"),
    ("ini-unknown-section", b"[modle]\n", load_config, ConfigError,
     "{path}: unknown section [modle]; did you mean 'model'?"),
    ("ini-unknown-key", b"[model]\nhiden_dim = 3\n", load_config, ConfigError,
     "{path}: unknown key model.hiden_dim; did you mean 'hidden_dim'?"),
    ("ini-bad-int", b"[model]\nhidden_dim = wide\n", load_config, ConfigError,
     "{path}: key 'model.hidden_dim': invalid literal for int() with base 10: 'wide'"),
    ("ini-out-of-range", b"[model]\nhidden_dim = 0\n", load_config, ConfigError,
     "{path}: hidden_dim must lie in 1..4096, got 0"),
    ("ini-no-section", b"hidden_dim = 3\n", load_config, ConfigError,
     "{path}: line 1: no section header before 'hidden_dim = 3\\n'"),
    ("ini-duplicate-section", b"[model]\n[model]\n", load_config, ConfigError,
     "{path}: line 2: section 'model' already exists"),
    ("ini-duplicate-option", b"[model]\nhidden_dim = 3\nhidden_dim = 4\n", load_config,
     ConfigError, "{path}: line 3: option 'hidden_dim' in section 'model' already exists"),
    ("ini-unparsable-line", b"[model]\nhidden_dim\n", load_config, ConfigError,
     "{path}: line 2: cannot parse 'hidden_dim\\n'"),
    ("tsv-not-utf8", b"\xff", read_metrics_table, CorrelationFileError,
     "{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte)"),
    ("tsv-missing-columns", b"system\tmcd\n", read_metrics_table, CorrelationFileError,
     "{path}: line 1: missing columns ['wer', 'asv', 'naturalness', 'similarity']"),
    ("tsv-not-a-number", (_HEADER + "a\t6\tlow\t50\t3\t60\n").encode(), read_metrics_table,
     CorrelationFileError, "{path}: line 2: column 'wer' value 'low' is not a number"),
    ("tsv-out-of-range", (_HEADER + "a\t6\t20\t150\t3\t60\n").encode(), read_metrics_table,
     CorrelationFileError, "{path}: line 2: asv must be a percentage, got 150.0"),
    ("coefficients-not-json", b"{", published_correlations, CorrelationFileError,
     "{path}: not UTF-8 JSON (Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1))"),
    ("coefficients-not-utf8", b"\xff", published_correlations, CorrelationFileError,
     "{path}: not UTF-8 JSON ('utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte)"),
    ("coefficients-missing", b"{}", published_correlations, CorrelationFileError,
     "{path}: no 'coefficients' object"),
]


@pytest.mark.parametrize("blob, read, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_defect_is_one_typed_error_naming_its_input(tmp_path, blob, read, error, message):
    path = tmp_path / "input"
    path.write_bytes(blob)
    with pytest.raises(error) as caught:
        read(path)
    assert type(caught.value) is error
    assert str(caught.value) == message.format(path=path)
    assert caught.value.__cause__ is None
