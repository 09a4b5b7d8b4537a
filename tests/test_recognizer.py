"""Content extraction: mel upstream, external features, frame-rate resampling."""

import numpy as np
import pytest

from recsynvc.config import AudioConfig
from recsynvc.errors import ConfigError, FeatureFileError, VoiceConversionError
from recsynvc.featureio import feature_path, write_features
from recsynvc.recognizer import (
    MAX_FRAME_SHIFT_MS,
    Upstream,
    UpstreamSpec,
    extract_mel,
    external_upstream,
    mel_upstream,
    recognize,
    resample_features,
)
from recsynvc.types import (
    FeatureSequence,
    UtteranceRecord,
    Waveform,
    LOG_MEL_FLOOR,
)


def _tone(seconds=0.3, rate=24000):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(samples=0.4 * np.sin(2 * np.pi * 440.0 * t), sample_rate=rate)


class TestExtractMel:
    def test_shape_and_floor(self, audio):
        mel = extract_mel(_tone(), audio)
        assert mel.frames.shape == (26, 80)  # 1 + (7200 - 1024) // 240
        assert mel.frame_shift_ms == pytest.approx(10.0)
        assert np.min(mel.frames) >= LOG_MEL_FLOOR

    def test_silence_hits_exact_floor(self, audio):
        silence = Waveform(samples=np.zeros(7200), sample_rate=24000)
        mel = extract_mel(silence, audio)
        np.testing.assert_array_equal(mel.frames, LOG_MEL_FLOOR)

    def test_deterministic(self, audio):
        wave = _tone()
        a = extract_mel(wave, audio)
        b = extract_mel(wave, audio)
        assert np.array_equal(a.frames, b.frames)

    def test_energy_lands_in_the_right_band(self, audio):
        # a 440 Hz tone concentrates energy in low mel channels
        mel = extract_mel(_tone(), audio)
        hot = np.argmax(mel.frames, axis=1)
        assert np.all(hot < 20)

    def test_a_waveform_at_another_rate_is_refused(self, audio):
        with pytest.raises(VoiceConversionError,
                           match="waveform rate 16000 != working rate 24000; resample"):
            extract_mel(_tone(rate=16000), audio)


class TestUpstreams:
    def test_mel_upstream_spec(self, audio):
        spec = mel_upstream(audio)
        assert spec.name == "mel"
        assert spec.feature_dim == 80
        assert spec.frame_shift_ms == pytest.approx(10.0)

    def test_native_upstream_must_be_80_dim(self):
        # training takes native content straight from the target mel
        with pytest.raises(ConfigError, match="upstream is 80-dim, got 40"):
            UpstreamSpec(name="mel", feature_dim=40, frame_shift_ms=10.0)

    def test_native_upstream_is_the_name_mel(self, tmp_path, audio):
        assert mel_upstream(audio).native
        assert not UpstreamSpec("ssl_stub", 80, 10.0, tmp_path).native
        # mel is computed from the wavs: no feature directory, external or not
        with pytest.raises(ConfigError, match="no feature directory"):
            UpstreamSpec("mel", 80, 10.0, tmp_path)
        _write(tmp_path, "u1", np.zeros((4, 80)), 10.0)
        with pytest.raises(ConfigError, match="no feature directory"):
            external_upstream("mel", tmp_path)
        with pytest.raises(ConfigError, match="--feature-dir"):
            UpstreamSpec("ssl_stub", 7, 20.0)

    def test_an_upstream_needs_no_directory_until_located(self, tmp_path):
        hubert = Upstream("hubert", 768, 20)
        assert type(hubert.frame_shift_ms) is float and hubert.frame_shift_ms == 20.0
        spec = hubert.at(tmp_path)
        assert isinstance(spec, UpstreamSpec) and spec.feature_dir == tmp_path
        assert (spec.name, spec.feature_dim, spec.frame_shift_ms) == ("hubert", 768, 20.0)
        with pytest.raises(ConfigError, match="--feature-dir"):
            hubert.at()
        with pytest.raises(ConfigError, match="no feature directory"):
            Upstream("mel", 80, 10.0).at(tmp_path)

    @pytest.mark.parametrize("shift", [0.0, 1000.5, 1e30, np.inf, np.nan])
    def test_frame_shift_outside_the_range_is_rejected(self, tmp_path, shift):
        with pytest.raises(ConfigError, match="frame_shift_ms"):
            UpstreamSpec("ssl_stub", 7, shift, tmp_path)
        assert UpstreamSpec("ssl_stub", 7, MAX_FRAME_SHIFT_MS, tmp_path).frame_shift_ms == 1000.0

    def test_mel_recognize_reads_the_record_wav(self, audio, tmp_path):
        from recsynvc.audioio import save_waveform

        wave = _tone()
        wav = tmp_path / "u1.wav"
        save_waveform(wav, wave)
        record = UtteranceRecord(utt_id="u1", speaker_id="A", wav_path=wav)
        from_record = recognize(record, mel_upstream(audio), audio)
        from_wave = extract_mel(wave, audio)
        assert from_record.dim == 80
        assert from_record.frame_shift_ms == from_wave.frame_shift_ms
        assert from_record.frames.shape == from_wave.frames.shape
        # compare only where signal sits above the PCM16 dither floor;
        # near-silent channels differ wildly on a log scale by design
        loud = from_wave.frames > -6.0
        assert loud.mean() > 0.2
        np.testing.assert_allclose(from_record.frames[loud],
                                   from_wave.frames[loud], atol=0.05)

    def test_external_upstream_reads_feature_dir(self, audio, tmp_path):
        frames = np.random.default_rng(0).standard_normal((12, 7)).astype(np.float32)
        _write(tmp_path, "u1", frames, 20.0)
        spec = external_upstream("ssl_stub", tmp_path)
        record = UtteranceRecord(utt_id="u1", speaker_id="A", wav_path="u1.wav")
        seq = recognize(record, spec, audio)
        # 20 ms files arrive at the decoder's 10 ms; every other row is a file row
        assert (len(seq), seq.frame_shift_ms) == (24, audio.frame_shift_ms)
        assert np.array_equal(seq.frames[::2], frames)

    def test_external_geometry_comes_from_the_first_file(self, tmp_path):
        _write(tmp_path, "b", np.zeros((3, 5)), 10.0)
        _write(tmp_path, "a", np.zeros((4, 7)), 20.0)
        (tmp_path / "index.tsv").write_text("not a feature file\n")
        spec = external_upstream("ssl_stub", tmp_path)
        assert (spec.name, spec.feature_dim, spec.frame_shift_ms) == ("ssl_stub", 7, 20.0)
        assert spec.feature_dir == tmp_path

    @pytest.mark.parametrize("make", [lambda d: d.mkdir(), lambda d: None],
                             ids=["empty", "absent"])
    def test_external_upstream_needs_a_feature_file(self, tmp_path, make):
        feature_dir = tmp_path / "feats"
        make(feature_dir)
        with pytest.raises(FeatureFileError,
                           match=f"^no .s3vc files in feature directory {feature_dir}$"):
            external_upstream("ssl_stub", feature_dir)

    def test_external_upstream_missing_file(self, audio, tmp_path):
        _write(tmp_path, "u1", np.zeros((4, 7)), 20.0)
        spec = external_upstream("ssl_stub", tmp_path)
        record = UtteranceRecord(utt_id="u9", speaker_id="A", wav_path="u9.wav")
        path = feature_path(tmp_path, "u9")
        with pytest.raises(FeatureFileError, match=f"^missing features for: u9 \\({path}\\)$"):
            recognize(record, spec, audio)

    def test_external_upstream_dim_mismatch(self, audio, tmp_path):
        # the spec comes from u1; a later file of another width or shift is rejected
        _write(tmp_path, "u1", np.zeros((4, 7)), 20.0)
        _write(tmp_path, "u2", np.zeros((4, 5)), 20.0)
        _write(tmp_path, "u3", np.zeros((4, 7)), 10.0)
        spec = external_upstream("ssl_stub", tmp_path)
        for utt_id in ("u2", "u3"):
            record = UtteranceRecord(utt_id=utt_id, speaker_id="A", wav_path="x.wav")
            with pytest.raises(FeatureFileError,
                               match=f"^{utt_id}: feature (dim|file frame shift)"):
                recognize(record, spec, audio)


def _write(feature_dir, utt_id, frames, frame_shift_ms):
    write_features(feature_path(feature_dir, utt_id),
                   FeatureSequence(frames=frames, frame_shift_ms=frame_shift_ms))


class TestResampleFeatures:
    def test_identity_when_rates_match(self):
        seq = FeatureSequence(frames=np.arange(12, dtype=np.float32).reshape(4, 3),
                              frame_shift_ms=10.0)
        out = resample_features(seq, 10.0)
        assert np.array_equal(out.frames, seq.frames)
        assert out.frame_shift_ms == seq.frame_shift_ms

    def test_halving_shift_doubles_length(self):
        frames = np.linspace(0, 1, 10, dtype=np.float32)[:, None]
        seq = FeatureSequence(frames=frames, frame_shift_ms=20.0)
        out = resample_features(seq, 10.0)
        assert out.frame_shift_ms == pytest.approx(10.0)
        assert abs(len(out) - 20) <= 1
        # values stay within the original range
        assert float(out.frames.min()) >= 0.0
        assert float(out.frames.max()) <= 1.0

    def test_constant_input_stays_constant(self):
        seq = FeatureSequence(frames=np.full((9, 2), 3.25, dtype=np.float32),
                              frame_shift_ms=12.5)
        out = resample_features(seq, 10.0)
        np.testing.assert_allclose(out.frames, 3.25, atol=1e-6)

    @pytest.mark.parametrize("shift", [0.0, -10.0, float("nan")])
    def test_a_non_positive_shift_is_refused(self, shift):
        seq = FeatureSequence(frames=np.zeros((4, 3), dtype=np.float32), frame_shift_ms=10.0)
        with pytest.raises(VoiceConversionError, match="target_shift_ms must be positive"):
            resample_features(seq, shift)
