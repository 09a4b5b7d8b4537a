"""Conversion pipeline, embedding pooling, vocoders, and external adapters."""

import copy
import sys
from dataclasses import asdict

import numpy as np
import pytest

from helpers import sphere_embedding

from recsynvc.audioio import load_waveform, save_waveform
from recsynvc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from recsynvc.config import AudioConfig, ModelConfig
from recsynvc.converter import (
    average_embedding,
    convert,
    denormalize,
    load_model,
    model_checkpoint,
    normalize,
    read_embedding,
    speaker_encoder_adapter,
    vocode,
    vocode_external,
    vocode_native,
)
from recsynvc.errors import (
    AdapterError,
    DimensionMismatchError,
    EmptyInputError,
    ExtraEmbeddingError,
    InvalidConfigError,
    VoiceConversionError,
    ZeroMeanVectorError,
)
from recsynvc.featureio import feature_path, write_features
from recsynvc.recognizer import mel_upstream, recognize, resample_features
from recsynvc.synthesizer import build_decoder, decoder_meta, forward_free_running
from recsynvc.types import FeatureSequence, MelSpectrogram, Waveform, LOG_MEL_FLOOR


def _source_wave(toy_corpus):
    record = toy_corpus["manifest"].records[0]
    return load_waveform(record.wav_path, target_rate=24000)


class TestConvert:
    def test_output_shape_and_floor(self, toy_corpus, quick_checkpoint):
        wave = _source_wave(toy_corpus)
        mel = convert(wave, load_checkpoint(quick_checkpoint["path"]))
        assert mel.frames.shape[1] == 80
        assert np.min(mel.frames) >= LOG_MEL_FLOOR

    def test_equals_manually_chained_modules(self, toy_corpus,
                                             quick_checkpoint, audio):
        # the one-call pipeline is exactly recognize -> resample -> normalize
        # -> decode -> denormalize, with no hidden extras
        wave = _source_wave(toy_corpus)
        ckpt = load_checkpoint(quick_checkpoint["path"])
        spec = mel_upstream(audio)
        mel = convert(wave, ckpt, dropout_seed=3)

        model = load_model(ckpt)
        params, stats, audio_cfg = model.params, model.stats, model.audio
        content = resample_features(recognize(wave, spec, audio_cfg),
                                    audio_cfg.frame_shift_ms)
        x = normalize(content.frames.astype(np.float64),
                      stats["input_mean"], stats["input_std"])
        y = forward_free_running(params, x, dropout_seed=3)
        y = denormalize(y, stats["target_mean"], stats["target_std"])
        expected = np.maximum(y, LOG_MEL_FLOOR)
        assert np.array_equal(mel.frames, expected)

    def test_embedding_argument_contract(self, toy_corpus, quick_checkpoint):
        wave = _source_wave(toy_corpus)
        ckpt = load_checkpoint(quick_checkpoint["path"])
        emb = sphere_embedding("nope", dim=16)
        with pytest.raises(ExtraEmbeddingError):
            convert(wave, ckpt, s=emb)

    def test_upstream_dim_must_match_checkpoint(self, toy_corpus,
                                                quick_checkpoint, tmp_path):
        # an external upstream's 7-dim files, read by a model trained on 80 dims
        ckpt = load_checkpoint(quick_checkpoint["path"])
        meta = copy.deepcopy(ckpt.meta)
        meta["upstream"]["name"] = "ssl_stub"
        record = toy_corpus["manifest"].records[0]
        write_features(feature_path(tmp_path, record.utt_id),
                       FeatureSequence(np.zeros((5, 7), np.float32), 10.0))
        with pytest.raises(DimensionMismatchError):
            convert(record, Checkpoint(meta=meta, tensors=ckpt.tensors), tmp_path)


@pytest.mark.parametrize("corrupt, entry", [
    (lambda meta: meta["decoder"].update(bogus=1), "bogus"),
    (lambda meta: meta["decoder"].pop("input_dim"), "input_dim"),
    (lambda meta: meta.pop("decoder"), "decoder"),
    (lambda meta: meta.pop("audio"), "audio"),
    (lambda meta: meta["decoder"].update(hidden_dim="x"), "hidden_dim"),
    (lambda meta: meta["decoder"].update(prenet_dims=None), "prenet_dims"),
    (lambda meta: meta.update(decoder=[]), "decoder"),
    (lambda meta: meta["audio"].update(hop_length=None), "hop_length"),
    (lambda meta: meta["audio"].update(hop_length=0), "hop_length"),
    (lambda meta: meta.update(seed="x"), "seed"),
    (lambda meta: meta.pop("upstream"), "upstream"),
    (lambda meta: meta["upstream"].update(feature_dim=81), "upstream"),
    (lambda meta: meta["upstream"].update(frame_shift_ms=0.0), "upstream"),
    (lambda meta: meta["upstream"].update(name=3), "upstream"),
    (lambda tensors: tensors.pop("stats.target_std"), "stats.target_std"),
    (lambda tensors: tensors.update({"stats.input_mean": np.zeros(3)}), "stats.input_mean"),
], ids=["unknown_key", "no_input_dim", "no_decoder", "no_audio", "str_hidden_dim",
        "null_prenet_dims", "list_decoder", "null_hop_length", "zero_hop_length",
        "str_seed", "no_upstream", "wide_upstream", "zero_frame_shift", "int_upstream_name",
        "no_target_std", "narrow_input_mean"])
def test_load_model_rejects_malformed_meta(quick_checkpoint, corrupt, entry):
    ckpt = load_checkpoint(quick_checkpoint["path"])
    meta, tensors = copy.deepcopy(ckpt.meta), dict(ckpt.tensors)
    corrupt(tensors if entry.startswith("stats.") else meta)
    with pytest.raises(InvalidConfigError, match=entry):
        load_model(Checkpoint(meta=meta, tensors=tensors))


def _tiny_checkpoint_headers(path):
    """Write a tiny ``simple`` model checkpoint; return its tensor header bytes."""
    params = build_decoder(ModelConfig(type="simple", hidden_dim=2, lstmp_proj_dim=2),
                           3, seed=0)
    stats = {f"stats.{side}_{kind}": np.ones(width)
             for side, width in (("input", 3), ("target", 80))
             for kind in ("mean", "std")}
    meta = {"decoder": decoder_meta(params.config, 3), "audio": asdict(AudioConfig()),
            "seed": 0, "upstream": {"name": "ssl", "feature_dim": 3, "frame_shift_ms": 20.0}}
    tensors = {**params.tensors, **stats}
    save_checkpoint(path, Checkpoint(meta=meta, tensors=tensors))
    # layout: magic, version, meta length and text, count, then per tensor
    # (name length, name, ndim, dims) followed by the float64 payload
    offset = 12 + int.from_bytes(path.read_bytes()[8:12], "little") + 4
    headers = []
    for name in sorted(tensors):
        size = 4 + len(name.encode()) + 4 + 4 * tensors[name].ndim
        headers.extend(range(offset, offset + size))
        offset += size + 8 * tensors[name].size
    assert offset == path.stat().st_size
    return headers


def test_every_tensor_header_bit_flip_is_typed(tmp_path):
    path = tmp_path / "tiny.s3ck"
    headers = _tiny_checkpoint_headers(path)
    blob = path.read_bytes()
    content = np.zeros((4, 3))
    escaped = []
    for i in headers:
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                forward_free_running(load_model(path).params, content)
            except VoiceConversionError:
                pass
            except Exception as exc:
                escaped.append(f"byte {i} bit {bit}: {type(exc).__name__}: {exc}")
    assert escaped == []


def test_model_checkpoint_inverts_load_model(quick_checkpoint):
    ckpt = load_checkpoint(quick_checkpoint["path"])
    meta = ckpt.meta
    again = model_checkpoint(load_model(ckpt), meta["mode"], meta["step"],
                             meta["target_speaker"])
    assert again.meta == meta
    assert again.tensors.keys() == ckpt.tensors.keys()
    assert all(again.tensors[name] is tensor for name, tensor in ckpt.tensors.items())


def test_load_model_shares_read_only_tensors(quick_checkpoint):
    ckpt = load_checkpoint(quick_checkpoint["path"])
    model = load_model(ckpt)
    params, stats = model.params, model.stats
    for name, tensor in [*params.tensors.items(),
                         *((f"stats.{k}", v) for k, v in stats.items())]:
        assert tensor is ckpt.tensors[name]
        with pytest.raises(ValueError, match="read-only"):
            tensor[(0,) * tensor.ndim] = 1.0


class TestAverageEmbedding:
    def test_mean_then_renormalize(self):
        e1 = sphere_embedding("a")
        e2 = sphere_embedding("b")
        avg = average_embedding([e1, e2])
        mean = (e1.vector + e2.vector) / 2.0
        np.testing.assert_allclose(avg.vector, mean / np.linalg.norm(mean),
                                   atol=1e-12)

    def test_idempotent_on_single_item(self):
        e = sphere_embedding("solo")
        np.testing.assert_allclose(average_embedding([e]).vector, e.vector,
                                   atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            average_embedding([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            average_embedding([sphere_embedding("a", dim=8),
                               sphere_embedding("b", dim=16)])

    def test_cancelling_vectors_rejected(self):
        e = sphere_embedding("x")
        from recsynvc.types import SpeakerEmbedding

        opposite = SpeakerEmbedding(vector=-e.vector)
        with pytest.raises(ZeroMeanVectorError):
            average_embedding([e, opposite])


class TestVocodeNative:
    def _mel(self, audio, toy_corpus):
        from recsynvc.recognizer import extract_mel

        return extract_mel(_source_wave(toy_corpus), audio)

    def test_length_and_range(self, audio, toy_corpus):
        mel = self._mel(audio, toy_corpus)
        wave = vocode_native(mel, audio)
        assert wave.sample_rate == audio.sample_rate
        assert len(wave) == len(mel) * audio.hop_length
        assert np.max(np.abs(wave.samples)) <= 1.0

    def test_reconstructs_audible_energy(self, audio, toy_corpus):
        mel = self._mel(audio, toy_corpus)
        wave = vocode_native(mel, audio)
        assert np.sqrt(np.mean(wave.samples ** 2)) > 1e-3

    def test_deterministic(self, audio, toy_corpus):
        mel = self._mel(audio, toy_corpus)
        a = vocode_native(mel, audio)
        b = vocode_native(mel, audio)
        assert np.array_equal(a.samples, b.samples)


class TestVocodeExternal:
    def test_stub_round_trip(self, audio, toy_corpus, stub_vocoder, tmp_path):
        from recsynvc.recognizer import extract_mel

        mel = extract_mel(_source_wave(toy_corpus), audio)
        wave = vocode_external(mel, stub_vocoder, audio)
        assert wave.sample_rate == audio.sample_rate
        assert len(wave) == len(mel) * audio.hop_length

    def test_dispatcher(self, audio, toy_corpus, stub_vocoder):
        from recsynvc.recognizer import extract_mel

        mel = extract_mel(_source_wave(toy_corpus), audio)
        command = " ".join([sys.executable, str(stub_vocoder[1])])
        wave = vocode(mel, audio, vocoder=f"external:{command}")
        assert len(wave) == len(mel) * audio.hop_length
        with pytest.raises(VoiceConversionError):
            vocode(mel, audio, vocoder="wavenet")

    def test_failing_command_raises_with_stderr(self, audio, toy_corpus,
                                                failing_adapter):
        from recsynvc.recognizer import extract_mel

        mel = extract_mel(_source_wave(toy_corpus), audio)
        with pytest.raises(AdapterError) as err:
            vocode_external(mel, failing_adapter, audio)
        assert "stub exploded" in err.value.stderr

    @pytest.mark.parametrize("command", ["", "/nonexistent/vocoder"])
    def test_unstartable_command_raises_adapter_error(self, audio, toy_corpus,
                                                      command):
        from recsynvc.recognizer import extract_mel

        mel = extract_mel(_source_wave(toy_corpus), audio)
        with pytest.raises(AdapterError):
            vocode(mel, audio, vocoder=f"external:{command}")


class TestSpeakerEncoderAdapter:
    def test_returns_unit_embedding(self, toy_corpus, stub_speaker_encoder):
        record = toy_corpus["manifest"].records[0]
        emb = speaker_encoder_adapter(record.wav_path, stub_speaker_encoder)
        assert emb.dim == 16
        assert np.linalg.norm(emb.vector) == pytest.approx(1.0)

    def test_cache_hit_spawns_nothing(self, toy_corpus, tmp_path):
        # counting wrapper: each real invocation appends to a side file
        counter = tmp_path / "count.txt"
        script = tmp_path / "counting_encoder.py"
        script.write_text(
            "import sys\n"
            "import numpy as np\n"
            "from pathlib import Path\n"
            "from recsynvc.featureio import write_features\n"
            "from recsynvc.types import FeatureSequence\n"
            f"Path({str(counter)!r}).open('a').write('x')\n"
            "vec = np.ones(4, dtype=np.float32) / 2.0\n"
            "write_features(sys.argv[2], FeatureSequence(frames=vec[None, :], "
            "frame_shift_ms=10.0))\n"
        )
        command = [sys.executable, str(script)]
        cache = tmp_path / "cache"
        record = toy_corpus["manifest"].records[0]
        a = speaker_encoder_adapter(record.wav_path, command,
                                    cache_dir=cache, utt_id=record.utt_id)
        b = speaker_encoder_adapter(record.wav_path, command,
                                    cache_dir=cache, utt_id=record.utt_id)
        assert counter.read_text() == "x"  # exactly one spawn
        assert np.array_equal(a.vector, b.vector)

    def test_accepts_in_memory_waveform(self, stub_speaker_encoder):
        wave = Waveform(samples=np.full(2400, 0.1), sample_rate=24000)
        emb = speaker_encoder_adapter(wave, stub_speaker_encoder)
        assert emb.dim == 16

    def test_expected_dim_enforced(self, toy_corpus, stub_speaker_encoder):
        record = toy_corpus["manifest"].records[0]
        with pytest.raises(DimensionMismatchError):
            speaker_encoder_adapter(record.wav_path, stub_speaker_encoder,
                                    expected_dim=32)

    def test_failing_encoder(self, toy_corpus, failing_adapter):
        record = toy_corpus["manifest"].records[0]
        with pytest.raises(AdapterError):
            speaker_encoder_adapter(record.wav_path, failing_adapter)


class TestReadEmbedding:
    def test_reads_single_row(self, tmp_path):
        vec = np.array([[0.6, 0.8]], dtype=np.float32)
        path = tmp_path / "e.s3vc"
        write_features(path, FeatureSequence(frames=vec, frame_shift_ms=10.0))
        emb = read_embedding(path)
        np.testing.assert_allclose(emb.vector, [0.6, 0.8], atol=1e-7)

    def test_normalizes_raw_vector(self, tmp_path):
        vec = np.array([[3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "e.s3vc"
        write_features(path, FeatureSequence(frames=vec, frame_shift_ms=10.0))
        assert np.linalg.norm(read_embedding(path).vector) == pytest.approx(1.0)

    def test_multi_row_rejected(self, tmp_path):
        path = tmp_path / "e.s3vc"
        write_features(path, FeatureSequence(frames=np.ones((2, 3), dtype=np.float32),
                                             frame_shift_ms=10.0))
        with pytest.raises(DimensionMismatchError):
            read_embedding(path)

    def test_expected_dim(self, tmp_path):
        path = tmp_path / "e.s3vc"
        write_features(path, FeatureSequence(frames=np.ones((1, 3), dtype=np.float32),
                                             frame_shift_ms=10.0))
        with pytest.raises(DimensionMismatchError):
            read_embedding(path, expected_dim=4)


def test_save_then_vocode_native_survives_round_trip(audio, toy_corpus,
                                                     tmp_path):
    # converted mel -> native vocoder -> wav file -> loadable waveform
    from recsynvc.recognizer import extract_mel

    mel = extract_mel(_source_wave(toy_corpus), audio)
    wave = vocode_native(mel, audio)
    path = tmp_path / "out.wav"
    save_waveform(path, wave)
    back = load_waveform(path)
    assert len(back) == len(wave)
