"""Synthetic corpus generator: determinism, speaker separation, layout."""

import hashlib

import numpy as np

from recsynvc.audioio import load_waveform
from recsynvc.config import AudioConfig
from recsynvc.manifest import load_manifest
from recsynvc.synthetic import (
    make_toy_corpus,
    make_utterance,
    speaker_profile,
)

_PHONE_NAMES = {"PA", "KO", "TI", "SU", "NE", "RA", "MO", "VI"}


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_corpus_is_deterministic(tmp_path):
    kwargs = dict(n_utterances=4, n_speakers=2, duration=0.5, seed=3)
    make_toy_corpus(tmp_path / "a", **kwargs)
    make_toy_corpus(tmp_path / "b", **kwargs)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def test_corpus_seed_changes_content(tmp_path):
    make_toy_corpus(tmp_path / "a", n_utterances=2, duration=0.5, seed=0)
    make_toy_corpus(tmp_path / "b", n_utterances=2, duration=0.5, seed=1)
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "b")


def test_corpus_layout_and_roles(tmp_path):
    path = make_toy_corpus(tmp_path / "solo", n_utterances=6, duration=0.4)
    manifest = load_manifest(path)
    assert len(manifest.records) == 6
    assert manifest.speakers == ("SPK1",)

    path = make_toy_corpus(tmp_path / "multi", n_utterances=8, n_speakers=4,
                           duration=0.4, seed=1)
    manifest = load_manifest(path)
    assert manifest.speakers == ("SPK1", "SPK2", "SPK3", "SPK4")
    # round-robin deal: two utterances per speaker
    per_speaker = {spk: 0 for spk in manifest.speakers}
    for record in manifest.records:
        per_speaker[record.speaker_id] += 1
        assert record.wav_path.exists()
    assert set(per_speaker.values()) == {2}


def test_transcripts_use_phone_inventory(tmp_path):
    path = make_toy_corpus(tmp_path / "c", n_utterances=3, duration=1.0)
    for record in load_manifest(path).records:
        tokens = record.transcript.split()
        assert tokens
        assert set(tokens) <= _PHONE_NAMES


def test_utterance_duration_and_range(tmp_path):
    wave, transcript = make_utterance([0, 0], 0, duration=1.5)
    assert wave.samples.shape == (36000,)
    assert wave.sample_rate == 24000
    assert float(np.max(np.abs(wave.samples))) <= 1.0
    assert float(np.max(np.abs(wave.samples))) > 0.01
    assert len(transcript.split()) == 6


def test_speaker_profiles_differ():
    f0s = [speaker_profile(i)[0] for i in range(4)]
    assert f0s == sorted(f0s)
    assert len(set(f0s)) == 4


def test_speakers_sound_different():
    wave_a, _ = make_utterance([0, 0], 0, duration=0.5)
    wave_b, _ = make_utterance([0, 0], 1, duration=0.5)
    # same phone sequence, different pitch: waveforms must diverge
    assert float(np.mean(np.abs(wave_a.samples - wave_b.samples))) > 1e-3


def test_wavs_survive_audio_round_trip(tmp_path):
    path = make_toy_corpus(tmp_path / "d", n_utterances=1, duration=0.4)
    record = load_manifest(path).records[0]
    wave = load_waveform(record.wav_path, AudioConfig())
    assert wave.sample_rate == 24000
    assert wave.samples.shape == (9600,)
