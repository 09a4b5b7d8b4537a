"""Value-object invariants: construction, validation, immutability."""

import numpy as np
import pytest

from recsynvc.errors import ManifestError, VoiceConversionError
from recsynvc.types import (
    DatasetManifest,
    FeatureSequence,
    MelSpectrogram,
    SpeakerEmbedding,
    UtteranceRecord,
    Waveform,
    LOG_MEL_FLOOR,
    N_MELS,
)


class TestWaveform:
    def test_basic_properties(self):
        wave = Waveform(samples=np.zeros(2400), sample_rate=24000)
        assert len(wave) == 2400
        assert wave.samples.dtype == np.float64

    def test_samples_are_readonly(self):
        wave = Waveform(samples=np.zeros(10), sample_rate=24000)
        with pytest.raises(ValueError):
            wave.samples[0] = 1.0

    def test_rejects_empty_and_2d(self):
        with pytest.raises(VoiceConversionError):
            Waveform(samples=np.zeros(0), sample_rate=24000)
        with pytest.raises(VoiceConversionError):
            Waveform(samples=np.zeros((4, 2)), sample_rate=24000)

    def test_rejects_nan_and_overrange(self):
        with pytest.raises(VoiceConversionError, match="^waveform contains non-finite samples$"):
            Waveform(samples=np.array([0.0, np.nan]), sample_rate=24000)
        with pytest.raises(VoiceConversionError):
            Waveform(samples=np.array([0.0, 1.5]), sample_rate=24000)

    def test_rejects_unknown_rate(self):
        with pytest.raises(VoiceConversionError):
            Waveform(samples=np.zeros(10), sample_rate=12345)

    def test_tiny_excursions_are_clipped(self):
        wave = Waveform(samples=np.array([1.0 + 5e-7, -1.0 - 5e-7]),
                        sample_rate=24000)
        assert np.max(np.abs(wave.samples)) <= 1.0


class TestFeatureSequence:
    def test_stores_float32(self):
        seq = FeatureSequence(frames=np.ones((3, 4), dtype=np.float64),
                              frame_shift_ms=10.0)
        assert seq.frames.dtype == np.float32
        assert seq.dim == 4
        assert len(seq) == 3

    def test_frame_shift_is_float32_exact(self):
        # shift survives a float32 round trip unchanged
        seq = FeatureSequence(frames=np.zeros((1, 1)), frame_shift_ms=20.123)
        assert seq.frame_shift_ms == float(np.float32(20.123))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(VoiceConversionError):
            FeatureSequence(frames=np.zeros((0, 4)), frame_shift_ms=10.0)
        with pytest.raises(VoiceConversionError, match="^feature frames contain non-finite"):
            FeatureSequence(frames=np.array([[np.inf]]), frame_shift_ms=10.0)
        with pytest.raises(VoiceConversionError):
            FeatureSequence(frames=np.zeros((1, 1)), frame_shift_ms=0.0)

    @pytest.mark.parametrize("shift", [np.inf, 1e39, np.nan, 1e-46])
    def test_rejects_a_shift_that_is_not_finite_and_positive_as_float32(self, shift):
        # 1e39 overflows float32 and 1e-46 underflows it: the check runs after the cast
        with pytest.raises(VoiceConversionError, match="frame_shift_ms"):
            FeatureSequence(frames=np.zeros((1, 1)), frame_shift_ms=shift)


class TestMelSpectrogram:
    def test_shape_and_floor_enforced(self):
        frames = np.full((5, N_MELS), LOG_MEL_FLOOR)
        mel = MelSpectrogram(frames=frames, frame_shift_ms=10.0)
        assert len(mel) == 5
        with pytest.raises(VoiceConversionError):
            MelSpectrogram(frames=np.zeros((5, N_MELS - 1)), frame_shift_ms=10.0)
        with pytest.raises(VoiceConversionError):
            MelSpectrogram(frames=np.full((5, N_MELS), LOG_MEL_FLOOR - 1.0),
                           frame_shift_ms=10.0)

    def test_rejects_empty_nonfinite_and_infinite_shift(self):
        with pytest.raises(VoiceConversionError):
            MelSpectrogram(frames=np.zeros((0, N_MELS)), frame_shift_ms=10.0)
        with pytest.raises(VoiceConversionError, match="^mel frames contain non-finite"):
            MelSpectrogram(frames=np.full((2, N_MELS), np.nan), frame_shift_ms=10.0)
        with pytest.raises(VoiceConversionError, match="frame_shift_ms"):
            MelSpectrogram(frames=np.zeros((2, N_MELS)), frame_shift_ms=np.inf)

    def test_frames_are_readonly(self):
        mel = MelSpectrogram(frames=np.zeros((2, N_MELS)), frame_shift_ms=10.0)
        with pytest.raises(ValueError):
            mel.frames[0, 0] = 1.0

    def test_as_features_round_trip(self):
        frames = np.full((4, N_MELS), LOG_MEL_FLOOR + 1.0)
        mel = MelSpectrogram(frames=frames, frame_shift_ms=10.0)
        seq = mel.as_features()
        assert seq.dim == N_MELS
        assert seq.frame_shift_ms == mel.frame_shift_ms


class TestSpeakerEmbedding:
    def test_requires_unit_norm(self):
        SpeakerEmbedding(vector=np.array([1.0, 0.0]))
        with pytest.raises(VoiceConversionError):
            SpeakerEmbedding(vector=np.array([1.0, 1.0]))

    def test_from_raw_normalizes(self):
        emb = SpeakerEmbedding.from_raw(np.array([3.0, 4.0]))
        assert np.linalg.norm(emb.vector) == pytest.approx(1.0)
        assert emb.dim == 2

    def test_from_raw_rejects_zero(self):
        with pytest.raises(VoiceConversionError):
            SpeakerEmbedding.from_raw(np.zeros(8))

    @pytest.mark.parametrize("vector", [np.array([[1.0, 0.0]]), np.zeros(0)],
                             ids=["two_dimensional", "empty"])
    def test_requires_a_non_empty_vector(self, vector):
        with pytest.raises(VoiceConversionError, match="non-empty 1-D vector"):
            SpeakerEmbedding(vector=vector)

    def test_rejects_nan(self):
        with pytest.raises(VoiceConversionError, match="non-finite"):
            SpeakerEmbedding(vector=np.array([1.0, np.nan]))


class TestManifest:
    def _record(self, utt, spk):
        return UtteranceRecord(utt_id=utt, speaker_id=spk, wav_path=f"{utt}.wav")

    def test_duplicate_utt_id_rejected(self):
        recs = [self._record("u1", "A"), self._record("u1", "A")]
        with pytest.raises(ManifestError, match="duplicate utt_id 'u1' in records 1 and 2"):
            DatasetManifest(records=tuple(recs))

    def test_applies_no_speaker_rule(self):
        # the command that reads a manifest judges its speaker count; a role changes nothing
        assert DatasetManifest(records=()).speakers == ()
        one = (self._record("u1", "A"), self._record("u2", "A"))
        assert DatasetManifest(records=one, role="multi_speaker").speakers == ("A",)
        two = (self._record("u1", "B"), self._record("u2", "A"), self._record("u3", "B"))
        assert DatasetManifest(records=two, role="target_speaker").speakers == ("A", "B")

    def test_speakers_sorted(self):
        recs = (self._record("u1", "B"), self._record("u2", "A"))
        assert DatasetManifest(records=recs).speakers == ("A", "B")

    def test_record_validation(self):
        with pytest.raises(VoiceConversionError):
            UtteranceRecord(utt_id="", speaker_id="A", wav_path="x.wav")
        with pytest.raises(VoiceConversionError):
            UtteranceRecord(utt_id="u", speaker_id="", wav_path="x.wav")
