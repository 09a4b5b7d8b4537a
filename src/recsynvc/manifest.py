"""Dataset manifests: one JSON object per line.

Required keys per line, each a string: ``utt_id``, ``speaker_id``,
``wav_path``; ``transcript`` is a string, null or absent.  Other keys are
ignored.
Output files are named after ``utt_id``, so it must be one file-name
component.  Relative wav paths resolve against the manifest's own directory.
A loaded manifest is only a list of records: the command that reads it
decides how many speakers it needs.
"""

from __future__ import annotations

import json
from pathlib import Path

from .container import write_atomic
from .errors import ManifestError, VoiceConversionError, naming
from .types import DatasetManifest, UtteranceRecord

_REQUIRED = ("utt_id", "speaker_id", "wav_path")


def load_manifest(path) -> DatasetManifest:
    """Read and validate a JSON-lines manifest; a defect raises ``ManifestError``
    naming the file and, for a defect of one line, the line."""
    path = Path(path)
    records = []
    with naming(path, ManifestError), open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            with naming(f"line {line_number}", VoiceConversionError,
                        (VoiceConversionError, json.JSONDecodeError)):
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise VoiceConversionError(f"not UTF-8 ({exc.reason})") from None
                if not line:
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise VoiceConversionError("expected a JSON object")
                for key in _REQUIRED:
                    if key not in obj or obj[key] is None:
                        raise VoiceConversionError(f"missing required field {key!r}")
                    if not isinstance(obj[key], str):
                        raise VoiceConversionError(f"field {key!r} must be a string")
                transcript = obj.get("transcript")
                if transcript is not None and not isinstance(transcript, str):
                    raise VoiceConversionError("field 'transcript' must be a string or null")
                wav_path = Path(obj["wav_path"])
                if not wav_path.is_absolute():
                    wav_path = path.parent / wav_path
                records.append(UtteranceRecord(
                    utt_id=obj["utt_id"], speaker_id=obj["speaker_id"],
                    wav_path=wav_path, transcript=transcript))
        return DatasetManifest(records=tuple(records))


def write_manifest(path, manifest: DatasetManifest) -> None:
    """Write ``manifest`` as JSON lines through the atomic writer."""
    write_atomic(path, [(json.dumps({
        "utt_id": rec.utt_id,
        "speaker_id": rec.speaker_id,
        "wav_path": str(rec.wav_path),
        "transcript": rec.transcript,
    }, sort_keys=True) + "\n").encode("utf-8") for rec in manifest.records])
