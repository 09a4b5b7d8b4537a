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

from .errors import ManifestError, VoiceConversionError
from .types import DatasetManifest, UtteranceRecord

_REQUIRED = ("utt_id", "speaker_id", "wav_path")


def load_manifest(path) -> DatasetManifest:
    """Read and validate a JSON-lines manifest."""
    path = Path(path)
    base = path.parent
    records = []
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            where = f"line {line_number}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ManifestError(f"{where}: {path} is not UTF-8 ({exc.reason})") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{where}: {exc}") from None
            if not isinstance(obj, dict):
                raise ManifestError(f"{where}: expected a JSON object")
            for key in _REQUIRED:
                if key not in obj or obj[key] is None:
                    raise ManifestError(f"{where}: missing required field {key!r}")
                if not isinstance(obj[key], str):
                    raise ManifestError(f"{where}: field {key!r} must be a string")
            transcript = obj.get("transcript")
            if transcript is not None and not isinstance(transcript, str):
                raise ManifestError(f"{where}: field 'transcript' must be a string or null")
            wav_path = Path(obj["wav_path"])
            if not wav_path.is_absolute():
                wav_path = base / wav_path
            try:
                record = UtteranceRecord(utt_id=obj["utt_id"], speaker_id=obj["speaker_id"],
                                         wav_path=wav_path, transcript=transcript)
            except VoiceConversionError as exc:
                raise ManifestError(f"{where}: {exc}") from None
            records.append(record)
    return DatasetManifest(records=tuple(records))


def write_manifest(path, manifest: DatasetManifest) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in manifest.records:
            fh.write(json.dumps({
                "utt_id": rec.utt_id,
                "speaker_id": rec.speaker_id,
                "wav_path": str(rec.wav_path),
                "transcript": rec.transcript,
            }, sort_keys=True) + "\n")
