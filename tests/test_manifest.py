"""Manifest file parsing and writing."""

import pytest

from recsynvc.errors import DuplicateUtteranceError, ManifestError
from recsynvc.manifest import load_manifest, write_manifest
from recsynvc.types import DatasetManifest, UtteranceRecord


def _manifest():
    records = (
        UtteranceRecord(utt_id="u1", speaker_id="A", wav_path="/w/u1.wav",
                        transcript="PA KO"),
        UtteranceRecord(utt_id="u2", speaker_id="B", wav_path="/w/u2.wav",
                        transcript=None),
    )
    return DatasetManifest(records=records, role="multi_speaker")


def test_round_trip(tmp_path):
    path = tmp_path / "data.tsv"
    original = _manifest()
    write_manifest(path, original)
    loaded = load_manifest(path)
    assert loaded.role == original.role
    assert len(loaded) == 2
    assert loaded.records[0].utt_id == "u1"
    assert loaded.records[0].transcript == "PA KO"
    assert loaded.records[1].transcript is None
    assert str(loaded.records[1].wav_path) == "/w/u2.wav"


def test_role_override(tmp_path):
    path = tmp_path / "data.tsv"
    write_manifest(path, _manifest())
    loaded = load_manifest(path, role="source_eval")
    assert loaded.role == "source_eval"


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "data.tsv"
    write_manifest(path, _manifest())
    text = path.read_text()
    path.write_text(text + "only-one-field\n")
    with pytest.raises(ManifestError, match=r"\d+"):
        load_manifest(path)


def test_missing_file():
    with pytest.raises((ManifestError, OSError)):
        load_manifest("/nonexistent/data.tsv")


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "data.tsv"
    write_manifest(path, _manifest())
    body = path.read_text()
    path.write_text("\n" + body + "\n\n")
    assert len(load_manifest(path)) == 2


def test_relative_wav_paths_resolve_against_manifest_dir(tmp_path):
    path = tmp_path / "data.tsv"
    records = (UtteranceRecord(utt_id="u1", speaker_id="A",
                               wav_path="wavs/u1.wav"),)
    write_manifest(path, DatasetManifest(records=records, role="target_speaker"))
    loaded = load_manifest(path)
    assert loaded.records[0].wav_path == tmp_path / "wavs" / "u1.wav"


def test_missing_required_field(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text('{"utt_id": "u1", "wav_path": "u1.wav", "language": "en"}\n')
    with pytest.raises(ManifestError, match="speaker_id"):
        load_manifest(path)


def test_duplicate_utt_id_names_both_records(tmp_path):
    path = tmp_path / "data.tsv"
    write_manifest(path, _manifest())
    path.write_text(path.read_text() + path.read_text().splitlines()[0] + "\n")
    with pytest.raises(DuplicateUtteranceError, match=r"'u1' in records 1 and 3"):
        load_manifest(path)
