"""End-to-end runs of every CLI subcommand through main(argv)."""

import copy
import json
import shutil

import numpy as np
import pytest

from recsynvc.audioio import load_waveform, save_waveform
from recsynvc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from recsynvc.cli import main
from recsynvc.featureio import read_features, write_features
from recsynvc.manifest import load_manifest, write_manifest
from recsynvc.synthetic import make_toy_corpus, make_utterance
from recsynvc.types import DatasetManifest, FeatureSequence, UtteranceRecord

from helpers import sphere_embedding

CLI_CONFIG = """\
[model]
type = simple
hidden_dim = 32
lstmp_proj_dim = 32

[training]
learning_rate = 3e-3
batch_size = 4
steps = 15
checkpoint_interval = 15
log_interval = 5
"""


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    return make_toy_corpus(root, n_utterances=4, duration=0.4, seed=5)


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_cfg") / "tiny.ini"
    path.write_text(CLI_CONFIG)
    return path


@pytest.fixture(scope="module")
def cli_checkpoint(cli_corpus, cli_config, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli_train")
    rc = main([
        "train", str(cli_corpus), "--mode", "a2o",
        "--out-dir", str(out_dir), "--config", str(cli_config),
    ])
    assert rc == 0
    return out_dir / "final.s3ck"


# --- extract-features ---------------------------------------------------------

def test_extract_features(cli_corpus, tmp_path):
    out_dir = tmp_path / "feats"
    rc = main(["extract-features", str(cli_corpus), "--out-dir", str(out_dir)])
    assert rc == 0
    files = sorted(out_dir.glob("*.s3vc"))
    assert len(files) == 4
    seq = read_features(files[0])
    assert seq.frames.shape[1] == 80
    index = (out_dir / "index.tsv").read_text().splitlines()
    assert len(index) == 4
    assert all("\t" in line for line in index)

    # a second run skips existing outputs, --force rewrites them
    before = [p.stat().st_mtime_ns for p in files]
    assert main(["extract-features", str(cli_corpus), "--out-dir", str(out_dir)]) == 0
    assert [p.stat().st_mtime_ns for p in files] == before
    assert main(["extract-features", str(cli_corpus), "--out-dir", str(out_dir),
                 "--force"]) == 0
    assert [p.stat().st_mtime_ns for p in files] != before


def test_extract_features_rejects_external_upstream(cli_corpus, tmp_path):
    rc = main(["extract-features", str(cli_corpus), "--out-dir", str(tmp_path),
               "--upstream", "hubert"])
    assert rc == 1


# --- train / convert -----------------------------------------------------------

def test_train_writes_checkpoint_and_log(cli_corpus, cli_config, tmp_path):
    out_dir = tmp_path / "run"
    log = tmp_path / "train.tsv"
    rc = main([
        "train", str(cli_corpus), "--out-dir", str(out_dir),
        "--config", str(cli_config), "--log-file", str(log),
    ])
    assert rc == 0
    assert (out_dir / "final.s3ck").exists()
    # headerless step/loss/walltime rows at step 1 and every log_interval
    lines = log.read_text().splitlines()
    assert [row.split("\t")[0] for row in lines] == ["1", "5", "10", "15"]
    assert all(len(row.split("\t")) == 3 for row in lines)
    assert float(lines[-1].split("\t")[1]) < float(lines[0].split("\t")[1])


def test_train_corrupt_wav_is_one_error_line(cli_config, tmp_path, capsys):
    manifest = make_toy_corpus(tmp_path / "corpus", n_utterances=4, duration=0.4, seed=5)
    wav = load_manifest(manifest).records[0].wav_path
    blob = wav.read_bytes()
    # RIFF header, then the data chunk ahead of the 24-byte fmt chunk
    wav.write_bytes(blob[:12] + blob[36:] + blob[12:36])
    capsys.readouterr()
    rc = main(["train", str(manifest), "--out-dir", str(tmp_path / "run"),
               "--config", str(cli_config)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and wav.name in lines[0]


@pytest.mark.parametrize("name, blob", [
    ("manifest.jsonl", b'{"utt_id": "u\xff"}\n'),
    ("tiny.ini", b"steps = 15\n"),
    ("tiny.ini", b"[training]\nsteps = 15 \xff\n"),
], ids=["non_utf8_manifest", "ini_without_section", "non_utf8_ini"])
def test_bad_text_input_is_one_error_line(cli_corpus, cli_config, tmp_path, capsys,
                                          name, blob):
    paths = {"manifest.jsonl": cli_corpus, "tiny.ini": cli_config}
    paths[name] = tmp_path / name
    paths[name].write_bytes(blob)
    rc = main(["train", str(paths["manifest.jsonl"]), "--out-dir", str(tmp_path / "run"),
               "--config", str(paths["tiny.ini"])])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]


def test_train_a2a_needs_embedding_source(tmp_path, cli_config):
    manifest = make_toy_corpus(tmp_path / "multi", n_utterances=4,
                               n_speakers=2, duration=0.4, seed=6)
    rc = main(["train", str(manifest), "--mode", "a2a",
               "--out-dir", str(tmp_path / "run"), "--config", str(cli_config)])
    assert rc == 1


def test_convert_outputs(cli_checkpoint, cli_corpus, tmp_path):
    out_dir = tmp_path / "conv"
    rc = main(["convert", str(cli_checkpoint), str(cli_corpus),
               "--out-dir", str(out_dir)])
    assert rc == 0
    for record in load_manifest(cli_corpus).records:
        assert (out_dir / f"{record.utt_id}.mel.s3vc").exists()
        assert (out_dir / f"{record.utt_id}.wav").exists()
    mel = read_features(out_dir / f"{record.utt_id}.mel.s3vc")
    assert mel.frames.shape[1] == 80


def test_convert_uses_checkpoint_audio(cli_corpus, tmp_path):
    config = tmp_path / "hop120.ini"
    config.write_text(CLI_CONFIG + "\n[audio]\nhop_length = 120\n")
    assert main(["train", str(cli_corpus), "--out-dir", str(tmp_path / "run"),
                 "--config", str(config)]) == 0
    out_dir = tmp_path / "conv"
    assert main(["convert", str(tmp_path / "run" / "final.s3ck"), str(cli_corpus),
                 "--out-dir", str(out_dir)]) == 0
    for record in load_manifest(cli_corpus).records:
        mel = read_features(out_dir / f"{record.utt_id}.mel.s3vc")
        wave = load_waveform(out_dir / f"{record.utt_id}.wav")
        assert mel.frame_shift_ms == 5.0
        assert len(wave) == len(mel) * 120


def test_convert_external_upstream_needs_only_feature_dir(cli_corpus, cli_config,
                                                          tmp_path, capsys):
    feature_dir = tmp_path / "ssl"
    feature_dir.mkdir()
    rng = np.random.default_rng(0)
    for record in load_manifest(cli_corpus).records:
        write_features(feature_dir / f"{record.utt_id}.s3vc", FeatureSequence(
            frames=rng.standard_normal((20, 7)).astype(np.float32), frame_shift_ms=20.0))
    assert main(["train", str(cli_corpus), "--out-dir", str(tmp_path / "run"),
                 "--config", str(cli_config), "--upstream", "ssl_stub",
                 "--feature-dir", str(feature_dir), "--feature-dim", "7",
                 "--frame-shift", "20"]) == 0
    convert_argv = ["convert", str(tmp_path / "run" / "final.s3ck"), str(cli_corpus),
                    "--out-dir", str(tmp_path / "conv")]
    assert main(convert_argv + ["--feature-dir", str(feature_dir)]) == 0
    mel = read_features(tmp_path / "conv" / f"{record.utt_id}.mel.s3vc")
    assert mel.frames.shape == (40, 80)  # 20 frames of 20 ms at 10 ms
    capsys.readouterr()
    assert main(convert_argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--feature-dir" in lines[0]


def test_convert_help_has_no_upstream_flags(capsys):
    with pytest.raises(SystemExit):
        main(["convert", "--help"])
    out = capsys.readouterr().out
    assert "--feature-dir" in out
    assert not any(flag in out for flag in ("--upstream", "--feature-dim", "--frame-shift"))


def test_convert_jobs_match_serial(cli_checkpoint, cli_corpus, tmp_path):
    serial, threaded = tmp_path / "s", tmp_path / "t"
    assert main(["convert", str(cli_checkpoint), str(cli_corpus),
                 "--out-dir", str(serial)]) == 0
    assert main(["convert", str(cli_checkpoint), str(cli_corpus),
                 "--out-dir", str(threaded), "--jobs", "3"]) == 0
    for path in sorted(serial.iterdir()):
        assert path.read_bytes() == (threaded / path.name).read_bytes()


def test_convert_rejects_jobs_below_one(cli_checkpoint, cli_corpus, tmp_path, capsys):
    rc = main(["convert", str(cli_checkpoint), str(cli_corpus),
               "--out-dir", str(tmp_path), "--jobs", "0"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: --jobs must be at least 1, got 0"]


@pytest.mark.parametrize("corrupt, entry", [
    (lambda meta, tensors: meta.pop("decoder"), "decoder"),
    (lambda meta, tensors: meta.update(decoder=[]), "decoder"),
    (lambda meta, tensors: meta["audio"].update(hop_length=None), "hop_length"),
    (lambda meta, tensors: meta.update(seed="x"), "seed"),
    (lambda meta, tensors: meta["upstream"].update(frame_shift_ms=-10.0), "upstream"),
    (lambda meta, tensors: tensors.pop("stats.target_std"), "stats.target_std"),
    (lambda meta, tensors: tensors.update({"out.weight": tensors.pop("out.w")}), "out.w"),
    (lambda meta, tensors: tensors.update({"out.b": np.zeros(81)}), "out.b"),
], ids=["no_decoder", "list_decoder", "null_hop_length", "str_seed",
        "negative_frame_shift", "no_target_std", "renamed_tensor", "reshaped_tensor"])
def test_convert_malformed_checkpoint_is_one_error_line(cli_checkpoint, cli_corpus,
                                                        tmp_path, capsys, corrupt, entry):
    ckpt = load_checkpoint(cli_checkpoint)
    meta, tensors = copy.deepcopy(ckpt.meta), dict(ckpt.tensors)
    corrupt(meta, tensors)
    path = tmp_path / "bad.s3ck"
    save_checkpoint(path, Checkpoint(meta=meta, tensors=tensors))
    capsys.readouterr()
    rc = main(["convert", str(path), str(cli_corpus), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and entry in lines[0]


def test_convert_unknown_vocoder(cli_checkpoint, cli_corpus, tmp_path):
    rc = main(["convert", str(cli_checkpoint), str(cli_corpus),
               "--out-dir", str(tmp_path), "--vocoder", "wavenet"])
    assert rc == 1


def test_convert_missing_checkpoint(cli_corpus, tmp_path):
    rc = main(["convert", str(tmp_path / "nope.s3ck"), str(cli_corpus),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1


def test_missing_manifest(tmp_path):
    rc = main(["extract-features", str(tmp_path / "nope.jsonl"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1


# --- evaluate -------------------------------------------------------------------

@pytest.fixture()
def eval_setup(tmp_path):
    """One-utterance reference manifest whose 'conversion' is a perfect copy."""
    wave, _ = make_utterance([9, 0], 0, duration=0.4)
    wav_dir = tmp_path / "ref"
    wav_dir.mkdir()
    wav_path = wav_dir / "u0.wav"
    save_waveform(wav_path, wave)
    manifest_path = tmp_path / "eval.jsonl"
    write_manifest(manifest_path, DatasetManifest(
        (UtteranceRecord(utt_id="u0", speaker_id="SPK1", wav_path=wav_path,
                         transcript="PA KO"),),
        role="source_eval",
    ))
    conv_dir = tmp_path / "conv"
    conv_dir.mkdir()
    shutil.copyfile(wav_path, conv_dir / "u0.wav")
    return manifest_path, conv_dir


def test_evaluate_mcd_only(eval_setup, tmp_path):
    manifest_path, conv_dir = eval_setup
    out_dir = tmp_path / "scores"
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_utterances"] == 1
    assert summary["mcd"] == 0.0
    assert summary["wer"] is None
    assert summary["asv"] is None
    report = (out_dir / "report.tsv").read_text().splitlines()
    assert report[0] == "utt_id\tmcd\twer"
    assert report[1].startswith("u0\t0.0000")


def test_evaluate_with_asr_and_asv(eval_setup, tmp_path, stub_asr,
                                   stub_speaker_encoder):
    manifest_path, conv_dir = eval_setup
    out_dir = tmp_path / "scores"
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(out_dir),
               "--asr"] + [" ".join(stub_asr)] + [
               "--speaker-encoder", " ".join(stub_speaker_encoder),
               "--threshold", "0.9"])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    # the stub transcriber answers exactly the reference transcript
    assert summary["wer"] == 0.0
    # converted and reference wavs share a stem, so embeddings coincide
    assert summary["asv"] == 100.0


def test_evaluate_asv_against_other_speaker(eval_setup, tmp_path,
                                            stub_speaker_encoder):
    manifest_path, conv_dir = eval_setup
    other = tmp_path / "other.s3vc"
    write_features(other, FeatureSequence(
        frames=sphere_embedding("someone_else").vector[None, :].astype(np.float32),
        frame_shift_ms=10.0,
    ))
    out_dir = tmp_path / "scores"
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(out_dir),
               "--speaker-encoder", " ".join(stub_speaker_encoder),
               "--target-embedding", str(other),
               "--threshold", "0.999"])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["asv"] == 0.0


def test_evaluate_asv_without_threshold_names_config_section(
        eval_setup, tmp_path, stub_speaker_encoder, capsys):
    manifest_path, conv_dir = eval_setup
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(tmp_path / "scores"),
               "--speaker-encoder", " ".join(stub_speaker_encoder)])
    assert rc == 1
    assert "[evaluation] asv_threshold" in capsys.readouterr().err


def test_evaluate_without_converted_wavs(eval_setup, tmp_path):
    manifest_path, _ = eval_setup
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["evaluate", str(empty), str(manifest_path),
               "--out-dir", str(tmp_path / "scores")])
    assert rc == 1


# --- correlate ------------------------------------------------------------------

def test_correlate_bundled(tmp_path):
    out = tmp_path / "corr.json"
    rc = main(["correlate", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["labels"] == ["MCD", "WER", "ASV", "NAT", "SIM"]
    assert len(payload["matrix"]) == 5
    assert payload["n_rows"] == 16
    assert payload["subset"] in {"all", "s3r+ppg", "s3r+mel", "s3r_only"}
    assert payload["max_deviation"] <= 0.02
    assert len(payload["comparison"]) == 10
    for entry in payload["comparison"]:
        assert entry["deviation"] <= 0.02 + 1e-9


def test_correlate_custom_table(tmp_path):
    from recsynvc.evaluator import MetricsRow, write_metrics_table

    rng = np.random.default_rng(2)
    rows = []
    for k in range(5):
        q = rng.uniform(0, 1)
        rows.append(MetricsRow(
            system=f"sys{k}", mcd=6 + 4 * q, wer=5 + 50 * q, asv=95 - 60 * q,
            naturalness=4.5 - 3 * q, similarity=90 - 60 * q + rng.uniform(0, 5),
        ))
    table = tmp_path / "table.tsv"
    write_metrics_table(table, rows)
    out = tmp_path / "corr.json"
    rc = main(["correlate", "--table", str(table), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["subset"] == "all"
    assert payload["n_rows"] == 5
    assert "comparison" not in payload
    matrix = np.array(payload["matrix"])
    np.testing.assert_allclose(matrix, matrix.T)
    np.testing.assert_allclose(np.diag(matrix), 1.0)
