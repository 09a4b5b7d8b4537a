"""Dataset manifests: one JSON object per line.

Required keys per line: ``utt_id``, ``speaker_id``, ``wav_path``, ``language``;
``transcript`` may be null or absent.  Relative wav paths resolve against the
manifest's own directory.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ManifestParseError, MissingFieldError
from .types import DatasetManifest, UtteranceRecord

_REQUIRED = ("utt_id", "speaker_id", "wav_path", "language")


def load_manifest(path, role=None) -> DatasetManifest:
    """Read and validate a JSON-lines manifest.

    ``role`` is one of ``target_speaker`` / ``multi_speaker`` / ``source_eval``.
    When omitted it is inferred from the number of distinct speakers
    (one -> target_speaker, several -> multi_speaker).
    """
    path = Path(path)
    base = path.parent
    records = []
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ManifestParseError(f"{path} is not UTF-8 ({exc.reason})",
                                         line_number) from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestParseError(str(exc), line_number) from None
            if not isinstance(obj, dict):
                raise ManifestParseError("expected a JSON object", line_number)
            for key in _REQUIRED:
                if key not in obj or obj[key] is None:
                    raise MissingFieldError(key, line_number)
            wav_path = Path(obj["wav_path"])
            if not wav_path.is_absolute():
                wav_path = base / wav_path
            records.append(
                UtteranceRecord(
                    utt_id=str(obj["utt_id"]),
                    speaker_id=str(obj["speaker_id"]),
                    wav_path=wav_path,
                    transcript=obj.get("transcript"),
                    language=str(obj["language"]),
                )
            )
    if role is None:
        speakers = {rec.speaker_id for rec in records}
        role = "target_speaker" if len(speakers) == 1 and records else "multi_speaker" \
            if len(speakers) >= 2 else "source_eval"
    return DatasetManifest(records=tuple(records), role=role)


def write_manifest(path, manifest: DatasetManifest) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in manifest.records:
            fh.write(json.dumps({
                "utt_id": rec.utt_id,
                "speaker_id": rec.speaker_id,
                "wav_path": str(rec.wav_path),
                "transcript": rec.transcript,
                "language": rec.language,
            }, sort_keys=True) + "\n")
