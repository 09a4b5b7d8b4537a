"""Manifest file parsing and writing."""

import json

import pytest

from recsynvc.errors import ManifestError
from recsynvc.manifest import load_manifest, write_manifest
from recsynvc.types import DatasetManifest, UtteranceRecord


def _manifest():
    records = (
        UtteranceRecord(utt_id="u1", speaker_id="A", wav_path="/w/u1.wav",
                        transcript="PA KO"),
        UtteranceRecord(utt_id="u2", speaker_id="B", wav_path="/w/u2.wav",
                        transcript=None),
    )
    return DatasetManifest(records=records)


def test_round_trip(tmp_path):
    path = tmp_path / "data.tsv"
    original = _manifest()
    write_manifest(path, original)
    loaded = load_manifest(path)
    assert len(loaded) == 2
    assert loaded.records[0].utt_id == "u1"
    assert loaded.records[0].transcript == "PA KO"
    assert loaded.records[1].transcript is None
    assert str(loaded.records[1].wav_path) == "/w/u2.wav"


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
    write_manifest(path, DatasetManifest(records=records))
    loaded = load_manifest(path)
    assert loaded.records[0].wav_path == tmp_path / "wavs" / "u1.wav"


def test_missing_required_field(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text('{"utt_id": "u1", "wav_path": "u1.wav"}\n')
    with pytest.raises(ManifestError, match="speaker_id"):
        load_manifest(path)


@pytest.mark.parametrize("field, value", [
    ("wav_path", 5), ("wav_path", ["u1.wav"]), ("transcript", 5), ("transcript", {}),
])
def test_field_of_wrong_type_names_field_and_line(tmp_path, field, value):
    good = {"utt_id": "u1", "speaker_id": "A", "wav_path": "u1.wav"}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(ManifestError, match=rf"line 2: field '{field}'"):
        load_manifest(path)


def test_duplicate_utt_id_names_both_records(tmp_path):
    path = tmp_path / "data.tsv"
    write_manifest(path, _manifest())
    path.write_text(path.read_text() + path.read_text().splitlines()[0] + "\n")
    with pytest.raises(ManifestError, match=r"duplicate utt_id 'u1' in records 1 and 3"):
        load_manifest(path)


def test_extra_keys_are_ignored(tmp_path):
    # older manifests carry a "language" key, which nothing reads
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"utt_id": "u1", "speaker_id": "A", "wav_path": "u1.wav",
                                "language": 7, "note": {"x": 1}}) + "\n")
    assert load_manifest(path).records[0].utt_id == "u1"


def test_written_lines_hold_only_the_record_fields(tmp_path):
    path = tmp_path / "data.jsonl"
    write_manifest(path, _manifest())
    assert sorted(json.loads(path.read_text().splitlines()[0])) == [
        "speaker_id", "transcript", "utt_id", "wav_path"]


def test_a_write_that_fails_midway_leaves_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "data.jsonl"
    write_manifest(path, DatasetManifest(records=_manifest().records[::-1]))
    before = path.read_bytes()
    dumps = json.dumps
    calls = []

    def failing_on_the_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_on_the_second)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        write_manifest(path, _manifest())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]
