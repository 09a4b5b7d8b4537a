"""Conversion pipeline, embedding pooling, vocoders, and external adapters."""

import copy
import inspect
import os
import shlex
import shutil
import sys
import time

import numpy as np
import pytest

from helpers import sphere_embedding

from recsynvc.audioio import load_waveform, save_waveform
from recsynvc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from recsynvc import converter
from recsynvc.config import MAX_GRIFFIN_LIM_ITERS, AudioConfig, ModelConfig
from recsynvc.converter import (
    TrainedModel,
    _mel_pseudo_inverse,
    average_embedding,
    convert,
    denormalize,
    load_model,
    model_checkpoint,
    normalize,
    read_embedding,
    run_adapter,
    speaker_encoder_adapter,
    vocode,
    vocode_external,
    vocode_native,
)
from recsynvc.errors import AdapterError, ConfigError, FeatureFileError, VoiceConversionError
from recsynvc.featureio import feature_path, write_features
from recsynvc.recognizer import Upstream, mel_upstream, recognize
from recsynvc.synthesizer import build_decoder, forward_free_running
from recsynvc.types import FeatureSequence, MelSpectrogram, Waveform, LOG_MEL_FLOOR


def _source_wave(toy_corpus):
    record = toy_corpus["manifest"].records[0]
    return load_waveform(record.wav_path, AudioConfig())


class TestConvert:
    def test_output_shape_and_floor(self, toy_corpus, quick_checkpoint):
        record = toy_corpus["manifest"].records[0]
        mel = convert(record, load_checkpoint(quick_checkpoint["path"]))
        assert mel.frames.shape[1] == 80
        assert np.min(mel.frames) >= LOG_MEL_FLOOR

    def test_equals_manually_chained_modules(self, toy_corpus,
                                             quick_checkpoint, audio):
        # the one-call pipeline is exactly recognize -> normalize -> decode
        # -> denormalize, with no hidden extras
        record = toy_corpus["manifest"].records[0]
        ckpt = load_checkpoint(quick_checkpoint["path"])
        spec = mel_upstream(audio)
        mel = convert(record, ckpt, dropout_seed=3)

        model = load_model(ckpt)
        params, stats, audio_cfg = model.params, model.stats, model.audio
        content = recognize(record, spec, audio_cfg)
        x = normalize(content.frames.astype(np.float64),
                      stats["input_mean"], stats["input_std"])
        y = forward_free_running(params, x, None, dropout_seed=3)
        y = denormalize(y, stats["target_mean"], stats["target_std"])
        expected = np.maximum(y, LOG_MEL_FLOOR)
        assert np.array_equal(mel.frames, expected)

    def test_embedding_argument_contract(self, toy_corpus, quick_checkpoint):
        record = toy_corpus["manifest"].records[0]
        ckpt = load_checkpoint(quick_checkpoint["path"])
        emb = sphere_embedding("nope", dim=16)
        with pytest.raises(VoiceConversionError, match="^embedding supplied to a decoder "
                                                      "that is not speaker-conditioned$"):
            convert(record, ckpt, s=emb)

    def test_upstream_dim_must_match_checkpoint(self, toy_corpus,
                                                quick_checkpoint, tmp_path):
        # an external upstream's 7-dim files, read by a model trained on 80 dims
        ckpt = load_checkpoint(quick_checkpoint["path"])
        meta = copy.deepcopy(ckpt.meta)
        meta["upstream"]["name"] = "ssl_stub"
        record = toy_corpus["manifest"].records[0]
        write_features(feature_path(tmp_path, record.utt_id),
                       FeatureSequence(np.zeros((5, 7), np.float32), 10.0))
        with pytest.raises(FeatureFileError,
                           match=f"^{record.utt_id}: feature dim 7 != upstream contract 80$"):
            convert(record, Checkpoint(meta=meta, tensors=ckpt.tensors), tmp_path)


@pytest.mark.parametrize("corrupt, entry", [
    (lambda meta: meta["decoder"].update(bogus=1), "bogus"),
    (lambda meta: meta["decoder"].pop("input_dim"), "input_dim"),
    (lambda meta: meta["decoder"].pop("speaker_conditioned"), "speaker_conditioned"),
    (lambda meta: meta["decoder"].update(speaker_conditioned=1), "speaker_conditioned"),
    (lambda meta: meta["decoder"].update(speaker_conditioned=True),
     "speaker conditioning is only available for the taco2_ar decoder"),
    (lambda meta: meta.pop("decoder"), "decoder"),
    (lambda meta: meta.pop("audio"), "audio"),
    (lambda meta: meta["decoder"].update(hidden_dim="x"), "hidden_dim"),
    (lambda meta: meta["decoder"].update(prenet_dims=None), "prenet_dims"),
    (lambda meta: meta.update(decoder=[]), "decoder"),
    (lambda meta: meta["audio"].update(hop_length=None), "hop_length"),
    (lambda meta: meta["audio"].update(hop_length=0), "hop_length"),
    (lambda meta: meta["audio"].pop("n_mels"), "audio"),
    (lambda meta: meta["audio"].update(n_mels=40), "audio.*n_mels"),
    (lambda meta: meta["audio"].update(sample_rate=12345), "audio.*sample_rate"),
    (lambda meta: meta["audio"].update(fmax=40000.0), "audio.*fmax"),
    (lambda meta: meta.update(seed="x"), "seed"),
    (lambda meta: meta.pop("upstream"), "upstream"),
    (lambda meta: meta["upstream"].update(feature_dim=81), "upstream"),
    (lambda meta: meta["upstream"].update(frame_shift_ms=0.0), "upstream"),
    (lambda meta: meta["upstream"].update(name=3), "upstream"),
    (lambda meta: meta["upstream"].update(frame_shift_ms=5000.0),
     r"^checkpoint meta 'upstream': upstream frame_shift_ms must lie in \(0, 1000\], "
     r"got 5000\.0$"),
    (lambda meta: (meta["decoder"].update(input_dim=64), meta["upstream"].update(feature_dim=64)),
     r"^checkpoint meta 'upstream': the native 'mel' upstream is 80-dim, got 64$"),
    (lambda meta: meta["upstream"].update(bogus=1), r"'upstream': unknown keys \['bogus'\]"),
    (lambda meta: meta["upstream"].update(feature_dim=True), "'upstream' 'feature_dim'"),
    (lambda meta: meta["upstream"].update(frame_shift_ms="10"), "'upstream' 'frame_shift_ms'"),
    (lambda meta: meta["upstream"].update(name="ssl", feature_dim=64),
     r"^checkpoint meta 'upstream': feature_dim 64 != decoder input_dim 80$"),
    (lambda tensors: tensors.pop("stats.target_std"), "stats.target_std"),
    (lambda tensors: tensors.update({"stats.input_mean": np.zeros(3)}), "stats.input_mean"),
    (lambda tensors: tensors.pop("lstmp2.wp"),
     r"^checkpoint tensors do not fit the simple config: missing \['lstmp2\.wp'\], "
     r"unexpected \[\]$"),
    (lambda tensors: tensors.update({"postnet1.w": np.zeros((80, 80, 5))}),
     r"missing \[\], unexpected \['postnet1\.w'\]$"),
    (lambda tensors: tensors.update({"out.w": np.zeros((80, 31))}),
     r"^checkpoint tensor 'out\.w' has shape \(80, 31\), expected \(80, 32\)$"),
], ids=["unknown_key", "no_input_dim", "no_speaker_conditioned",
        "int_speaker_conditioned", "conditioned_simple", "no_decoder", "no_audio", "str_hidden_dim",
        "null_prenet_dims", "list_decoder", "null_hop_length", "zero_hop_length",
        "no_n_mels", "narrow_n_mels", "bad_sample_rate", "bad_fmax",
        "str_seed", "no_upstream", "wide_upstream", "zero_frame_shift", "int_upstream_name",
        "long_frame_shift", "narrow_mel_upstream", "unknown_upstream_key", "bool_feature_dim",
        "str_frame_shift", "upstream_narrower_than_decoder",
        "no_target_std", "narrow_input_mean", "no_decoder_tensor", "unexpected_tensor",
        "narrow_decoder_tensor"])
def test_load_model_rejects_malformed_meta(quick_checkpoint, corrupt, entry):
    ckpt = load_checkpoint(quick_checkpoint["path"])
    meta, tensors = copy.deepcopy(ckpt.meta), dict(ckpt.tensors)
    corrupt(tensors if "tensors" in inspect.signature(corrupt).parameters else meta)
    with pytest.raises(ConfigError, match=entry):
        load_model(Checkpoint(meta=meta, tensors=tensors))


def test_load_model_accepts_griffin_lim_iters_at_the_ceiling(quick_checkpoint):
    ckpt = load_checkpoint(quick_checkpoint["path"])
    meta = copy.deepcopy(ckpt.meta)
    meta["audio"]["griffin_lim_iters"] = MAX_GRIFFIN_LIM_ITERS
    model = load_model(Checkpoint(meta=meta, tensors=dict(ckpt.tensors)))
    assert model.audio.griffin_lim_iters == MAX_GRIFFIN_LIM_ITERS


def _tiny_checkpoint_headers(path):
    """Write a tiny ``simple`` model checkpoint; return its tensor header bytes."""
    params = build_decoder(ModelConfig(type="simple", hidden_dim=2, lstmp_proj_dim=2),
                           3, False, seed=0)
    stats = {f"{side}_{kind}": np.ones(width)
             for side, width in (("input", 3), ("target", 80))
             for kind in ("mean", "std")}
    ckpt = model_checkpoint(TrainedModel(params, stats, AudioConfig(), Upstream("ssl", 3, 20.0)),
                            0, "T")
    tensors = ckpt.tensors
    save_checkpoint(path, ckpt)
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
                forward_free_running(load_model(path).params, content, None, dropout_seed=0)
            except VoiceConversionError:
                pass
            except Exception as exc:
                escaped.append(f"byte {i} bit {bit}: {type(exc).__name__}: {exc}")
    assert escaped == []


def test_model_checkpoint_inverts_load_model(quick_checkpoint):
    ckpt = load_checkpoint(quick_checkpoint["path"])
    meta = ckpt.meta
    again = model_checkpoint(load_model(ckpt), meta["step"], meta["target_speaker"])
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

    def test_plain_vectors_are_averaged_as_given(self):
        e1, e2 = sphere_embedding("a"), sphere_embedding("b")
        mean = (3.0 * e1.vector + e2.vector) / 2.0
        np.testing.assert_allclose(average_embedding([3.0 * e1.vector, e2.vector]).vector,
                                   mean / np.linalg.norm(mean), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(VoiceConversionError, match="cannot average an empty list"):
            average_embedding([])

    def test_cancelling_vectors_rejected(self):
        e = sphere_embedding("x")
        from recsynvc.types import SpeakerEmbedding

        opposite = SpeakerEmbedding(vector=-e.vector)
        with pytest.raises(VoiceConversionError, match="average to \\(near\\) zero"):
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
        _mel_pseudo_inverse.cache_clear()
        a = vocode_native(mel, audio)  # builds the pseudo-inverse
        b = vocode_native(mel, audio)  # reuses it
        assert np.array_equal(a.samples, b.samples)

    def test_pseudo_inverse_is_cached_read_only(self, audio):
        key = (audio.sample_rate, audio.win_length, audio.fmin, audio.fmax)
        fb_pinv = _mel_pseudo_inverse(*key)
        assert _mel_pseudo_inverse(*key) is fb_pinv
        assert fb_pinv.shape == (audio.win_length // 2 + 1, 80)
        with pytest.raises(ValueError):
            fb_pinv[0, 0] = 1.0


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
        wave = vocode(mel, audio, vocoder=f"external:{stub_vocoder}")
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
        command = shlex.join([sys.executable, str(script)])
        cache = tmp_path / "cache"
        record = toy_corpus["manifest"].records[0]
        wav = tmp_path / "copy.wav"
        shutil.copyfile(record.wav_path, wav)
        a = speaker_encoder_adapter(wav, command, cache_dir=cache, utt_id=record.utt_id)
        b = speaker_encoder_adapter(wav, command, cache_dir=cache, utt_id=record.utt_id)
        assert counter.read_text() == "x"  # exactly one spawn
        assert np.array_equal(a.vector, b.vector)
        # a wav rewritten after its entry was cached is encoded again
        entry_ns = feature_path(cache, record.utt_id).stat().st_mtime_ns
        os.utime(wav, ns=(entry_ns + 10**9, entry_ns + 10**9))
        speaker_encoder_adapter(wav, command, cache_dir=cache, utt_id=record.utt_id)
        assert counter.read_text() == "xx"

    def test_accepts_in_memory_waveform(self, stub_speaker_encoder):
        wave = Waveform(samples=np.full(2400, 0.1), sample_rate=24000)
        emb = speaker_encoder_adapter(wave, stub_speaker_encoder)
        assert emb.dim == 16

    def test_failing_encoder(self, toy_corpus, failing_adapter):
        record = toy_corpus["manifest"].records[0]
        with pytest.raises(AdapterError):
            speaker_encoder_adapter(record.wav_path, failing_adapter)

    def test_output_of_two_rows_is_an_adapter_error_with_stderr(self, tmp_path):
        script = tmp_path / "two_rows.py"
        script.write_text(
            "import sys\n"
            "import numpy as np\n"
            "from recsynvc.featureio import write_features\n"
            "from recsynvc.types import FeatureSequence\n"
            "print('two speakers heard', file=sys.stderr)\n"
            "write_features(sys.argv[2], FeatureSequence(np.ones((2, 4), np.float32), 10.0))\n"
        )
        command = shlex.join([sys.executable, str(script)])
        with pytest.raises(AdapterError, match="^speaker encoder output for in.wav: expected "
                                               "a single embedding row, got 2 frames") as err:
            speaker_encoder_adapter("in.wav", command, cache_dir=tmp_path / "cache", utt_id="u")
        assert "two speakers heard" in err.value.stderr
        assert not (tmp_path / "cache").exists()


def _sh_adapter(tmp_path, body):
    script = tmp_path / "adapter.sh"
    script.write_text(body)
    return shlex.join(["sh", str(script)])


class TestAdapterOutput:
    """A vocoder and a speaker encoder that write no file, or one that cannot be read."""

    @pytest.fixture(params=["vocoder", "speaker encoder"])
    def call(self, request, audio):
        mel = MelSpectrogram(np.zeros((3, 80)), audio.frame_shift_ms)
        if request.param == "vocoder":
            return request.param, lambda command: vocode_external(mel, command, audio)
        return request.param, lambda command: speaker_encoder_adapter("in.wav", command)

    @pytest.mark.parametrize("write, problem", [
        ("", "wrote no output file"),
        ('printf garbage > "$2"\n', "output unreadable"),
    ], ids=["no_file", "garbage"])
    def test_raises_adapter_error_with_stderr(self, tmp_path, call, write, problem):
        adapter, run = call
        command = _sh_adapter(tmp_path, "echo 'model not found' >&2\n" + write)
        with pytest.raises(AdapterError, match=f"{adapter} {problem}") as err:
            run(command)
        assert "model not found" in err.value.stderr


def test_hung_adapter_is_killed_at_the_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(converter, "ADAPTER_TIMEOUT_S", 0.5)
    command = _sh_adapter(tmp_path, "exec sleep 30\n")
    start = time.perf_counter()
    with pytest.raises(AdapterError, match=r"adapter.+adapter\.sh.+0\.5 s limit"):
        run_adapter(command, ["in.wav"])
    assert time.perf_counter() - start < 10.0


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
        with pytest.raises(FeatureFileError,
                           match=f"^{path}: expected a single embedding row, got 2 frames$"):
            read_embedding(path)

    def test_zero_row_rejected(self, tmp_path):
        path = tmp_path / "e.s3vc"
        write_features(path, FeatureSequence(frames=np.zeros((1, 3), dtype=np.float32),
                                             frame_shift_ms=10.0))
        with pytest.raises(FeatureFileError, match=f"^{path}: cannot normalize a zero"):
            read_embedding(path)

    def test_expected_dim(self, tmp_path):
        path = tmp_path / "e.s3vc"
        write_features(path, FeatureSequence(frames=np.ones((1, 3), dtype=np.float32),
                                             frame_shift_ms=10.0))
        with pytest.raises(FeatureFileError, match=f"^{path}: embedding dim 3 != expected 4$"):
            read_embedding(path, expected_dim=4)


def test_save_then_vocode_native_survives_round_trip(audio, toy_corpus,
                                                     tmp_path):
    # converted mel -> native vocoder -> wav file -> loadable waveform
    from recsynvc.recognizer import extract_mel

    mel = extract_mel(_source_wave(toy_corpus), audio)
    wave = vocode_native(mel, audio)
    path = tmp_path / "out.wav"
    save_waveform(path, wave)
    back = load_waveform(path, audio)
    assert len(back) == len(wave)
