"""End-to-end runs of every CLI subcommand through main(argv)."""

import argparse
import ast
import copy
import dataclasses
import importlib
import inspect
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from recsynvc.audioio import load_waveform, save_waveform
from recsynvc import cli, config, evaluator
from recsynvc.blas import openblas_functions
from recsynvc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from recsynvc.config import (
    MAX_BATCH_SIZE,
    MAX_GRIFFIN_LIM_ITERS,
    MAX_KERNEL,
    MAX_LAYERS,
    MAX_WIDTH,
    MAX_WINDOW,
    AudioConfig,
)
from recsynvc.cli import main
from recsynvc.benchmark import MetricsRow
from recsynvc.errors import VoiceConversionError
from recsynvc.featureio import read_features, write_features
from recsynvc.manifest import load_manifest, write_manifest
from recsynvc.synthetic import make_toy_corpus, make_utterance
from recsynvc.types import DatasetManifest, FeatureSequence, UtteranceRecord, Waveform

from helpers import BAD_WAVS, sphere_embedding, write_metrics_table

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
    assert sorted(out_dir.iterdir()) == files

    assert {read_features(f).frame_shift_ms for f in files} == {10.0}

    # a rerun with other audio settings rewrites every file
    config = tmp_path / "hop480.ini"
    config.write_text("[audio]\nhop_length = 480\n")
    before = [read_features(f).frames.shape[0] for f in files]
    assert main(["extract-features", str(cli_corpus), "--out-dir", str(out_dir),
                 "--config", str(config)]) == 0
    assert sorted(out_dir.iterdir()) == files
    for path, n_frames in zip(files, before):
        seq = read_features(path)
        assert seq.frame_shift_ms == 20.0
        assert seq.frames.shape[0] < n_frames


def test_extract_features_bytes_and_notes_do_not_depend_on_the_cpu_count(
        cli_corpus, tmp_path, capsys, monkeypatch):
    # the second record's wav is missing, so the notes hold one failed: line too
    records = list(load_manifest(cli_corpus).records)
    records[1] = dataclasses.replace(records[1], wav_path=tmp_path / "missing.wav")
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, DatasetManifest(tuple(records)))
    out_dir = tmp_path / "feats"
    written = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        shutil.rmtree(out_dir, ignore_errors=True)
        capsys.readouterr()
        assert main(["extract-features", str(manifest), "--out-dir", str(out_dir)]) == 1
        written.append((capsys.readouterr().err,
                        {p.name: p.read_bytes() for p in out_dir.iterdir()}))
    assert len(written[0][1]) == 3
    assert written[0][0].splitlines()[1].startswith(f"failed: {records[1].utt_id}: ")
    assert written[0] == written[1]


def test_extract_features_rejects_external_upstream(cli_corpus, tmp_path):
    # it computes the native mel only, so it has no upstream flags
    for flags in (["--upstream", "hubert"], ["--feature-dir", str(tmp_path)]):
        with pytest.raises(SystemExit) as exit_info:
            main(["extract-features", str(cli_corpus), "--out-dir", str(tmp_path), *flags])
        assert exit_info.value.code == 2


@pytest.mark.parametrize("field, value", [
    ("wav_path", 5), ("transcript", 5),
    ("utt_id", {"x": 1}), ("speaker_id", ["a", "b"]),
])
def test_extract_features_bad_field_type_is_one_error_line(tmp_path, capsys, field, value):
    record = {"utt_id": "u", "speaker_id": "s", "wav_path": "u.wav"}
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({**record, field: value}) + "\n")
    capsys.readouterr()
    rc = main(["extract-features", str(manifest), "--out-dir", str(tmp_path / "feats")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "line 1" in lines[0] and field in lines[0] and str(manifest) in lines[0]


@pytest.mark.parametrize("utt_id", ["../escaped", "ABSOLUTE", "a/b", "a\0b", ".", ".."],
                         ids=["parent", "absolute", "subdir", "nul", "dot", "dotdot"])
def test_extract_features_id_that_is_not_a_file_name_is_one_error_line(
        cli_corpus, tmp_path, capsys, utt_id):
    # output files are named after the id, so a path in it must not reach the file system
    utt_id = utt_id.replace("ABSOLUTE", str(tmp_path / "abs"))
    record = {"utt_id": utt_id, "speaker_id": "s",
              "wav_path": str(load_manifest(cli_corpus).records[0].wav_path)}
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    rc = main(["extract-features", str(manifest), "--out-dir", str(tmp_path / "work" / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "line 1" in lines[0] and "utt_id" in lines[0] and str(manifest) in lines[0]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["manifest.jsonl"]


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
    assert not (tmp_path / "run").exists()


def test_train_log_file_in_a_missing_directory_leaves_no_run_directory(
        cli_corpus, cli_config, tmp_path, capsys):
    log = tmp_path / "missing" / "train.tsv"
    capsys.readouterr()
    rc = main(["train", str(cli_corpus), "--out-dir", str(tmp_path / "run"),
               "--config", str(cli_config), "--log-file", str(log)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(log) in lines[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("defect", sorted(BAD_WAVS))
def test_bad_wav_is_reported_once_naming_the_file(cli_checkpoint, cli_config, tmp_path,
                                                  capsys, defect):
    manifest = make_toy_corpus(tmp_path / "corpus", n_utterances=4, duration=0.4, seed=5)
    record = load_manifest(manifest).records[0]
    rate, samples, _ = BAD_WAVS[defect]
    wavfile.write(record.wav_path, rate, samples)
    one = tmp_path / "one.jsonl"
    write_manifest(one, DatasetManifest((record,)))
    conv_wav = tmp_path / "conv" / f"{record.utt_id}.wav"
    conv_wav.parent.mkdir()
    shutil.copyfile(record.wav_path, conv_wav)
    capsys.readouterr()
    assert main(["train", str(manifest), "--out-dir", str(tmp_path / "run"),
                 "--config", str(cli_config)]) == 1
    assert main(["evaluate", str(conv_wav.parent), str(one),
                 "--out-dir", str(tmp_path / "scores")]) == 1
    # convert and extract-features go on past a bad source and report it on one
    # "failed:" line each
    assert main(["convert", str(cli_checkpoint), str(one),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert main(["extract-features", str(one), "--out-dir", str(tmp_path / "feats")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 6, lines
    assert lines[0].startswith(f"error: {record.wav_path}: ")
    assert lines[1].startswith(f"error: {conv_wav}: ")
    assert lines[3].startswith(f"failed: {record.utt_id}: {record.wav_path}: ")
    assert lines[5].startswith(f"failed: {record.utt_id}: {record.wav_path}: ")


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


@pytest.mark.parametrize("command, section, key, value", [
    ("train", "training", "steps", 0), ("evaluate", "evaluation", "mcd_order", 200),
    ("train", "training", "batch_size", MAX_BATCH_SIZE + 1),
    ("train", "audio", "win_length", MAX_WINDOW + 1),
    ("train", "audio", "hop_length", MAX_WINDOW + 1),
    ("train", "model", "hidden_dim", MAX_WIDTH + 1),
    ("train", "model", "lstmp_proj_dim", MAX_WIDTH + 1),
    ("train", "model", "postnet_channels", MAX_WIDTH + 1),
    ("train", "model", "embedding_dim", MAX_WIDTH + 1),
    ("train", "model", "prenet_dims", f"16,{MAX_WIDTH + 1}"),
    ("train", "model", "prenet_dims", ",".join(["16"] * (MAX_LAYERS + 1))),
    ("train", "model", "postnet_layers", MAX_LAYERS + 1),
    ("train", "model", "postnet_kernel", MAX_KERNEL + 2),  # the next odd kernel
    ("train", "model", "hidden_dim", 99999999999999999999999),
], ids=["train_steps", "evaluate_mcd_order", "train_batch_size_above_ceiling",
        "train_win_length_above_ceiling", "train_hop_length_above_ceiling",
        "train_hidden_dim_above_ceiling", "train_lstmp_proj_dim_above_ceiling",
        "train_postnet_channels_above_ceiling", "train_embedding_dim_above_ceiling",
        "train_prenet_width_above_ceiling", "train_prenet_count_above_ceiling",
        "train_postnet_layers_above_ceiling", "train_postnet_kernel_above_ceiling",
        "train_hidden_dim_of_23_digits"])
def test_out_of_range_config_is_one_error_line(cli_corpus, tmp_path, capsys, command,
                                               section, key, value):
    config = tmp_path / "bad.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n")
    positional = [cli_corpus] if command == "train" else [tmp_path, cli_corpus]
    capsys.readouterr()
    rc = main([command, *map(str, positional), "--out-dir", str(tmp_path / "out"),
               "--config", str(config)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0]
    assert str(config) in lines[0]
    assert not (tmp_path / "out").exists()


A2A_ONLY = "read only by --mode a2a"
NEEDS_ENCODER = "read only with --speaker-encoder"


@pytest.mark.parametrize("command, flags, reason", [
    ("train", ["--embeddings-dir", "D"], A2A_ONLY),
    ("train", ["--speaker-encoder", "enc"], A2A_ONLY),
    ("train", ["--embeddings-cache", "C"], A2A_ONLY),
    ("train", ["--mode", "a2a", "--embeddings-dir", "D", "--speaker-encoder", "enc"],
     "not both"),
    ("train", ["--mode", "a2a", "--embeddings-dir", "D", "--embeddings-cache", "C"],
     NEEDS_ENCODER),
    ("convert", ["--target-embeddings", "D"], "not speaker-conditioned"),
    ("convert", ["--target-embedding", "/nonexistent"], "not speaker-conditioned"),
    ("convert", ["--target-embeddings", "D", "--target-embedding", "F"], "not both"),
    ("evaluate", ["--target-embedding", "F"], NEEDS_ENCODER),
    ("evaluate", ["--threshold", "0.5"], NEEDS_ENCODER),
    ("evaluate", ["--embeddings-cache", "C"], NEEDS_ENCODER),
], ids=["a2o_embeddings_dir", "a2o_speaker_encoder", "a2o_embeddings_cache",
        "a2a_both_sources", "cache_without_encoder", "unconditioned_target_dir",
        "unconditioned_target_file", "both_targets", "evaluate_target",
        "evaluate_threshold", "evaluate_cache"])
def test_unread_option_is_one_error_line(cli_checkpoint, cli_corpus, cli_config, tmp_path,
                                         capsys, command, flags, reason):
    positional = {"train": [cli_corpus], "convert": [cli_checkpoint, cli_corpus],
                  "evaluate": [tmp_path, cli_corpus]}[command]
    capsys.readouterr()
    rc = main([command, *map(str, positional), "--out-dir", str(tmp_path / "out"),
               "--config", str(cli_config), *flags])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0]
    assert not (tmp_path / "out").exists()


def test_train_a2a_needs_embedding_source(tmp_path, cli_config):
    manifest = make_toy_corpus(tmp_path / "multi", n_utterances=4,
                               n_speakers=2, duration=0.4, seed=6)
    rc = main(["train", str(manifest), "--mode", "a2a",
               "--out-dir", str(tmp_path / "run"), "--config", str(cli_config)])
    assert rc == 1


A2A_CONFIG = """\
[model]
type = taco2_ar
hidden_dim = 16
lstmp_proj_dim = 16
prenet_dims = 8,8
postnet_layers = 1
postnet_channels = 8
embedding_dim = 16

[training]
steps = 1
"""


@pytest.mark.parametrize("n_speakers, mode, reason", [
    (0, "a2o", "empty manifest"),
    (2, "a2o", "exactly one speaker, manifest has 2"),
    (1, "a2a", "needs >= 2 speakers, manifest has 1"),
    (2, "a2a", "emb/SPK1_000.s3vc: embedding dim 8 != expected 16"),
], ids=["empty", "a2o_two_speakers", "a2a_one_speaker", "a2a_embedding_width"])
def test_train_on_a_corpus_of_the_wrong_kind_is_one_error_line(tmp_path, capsys,
                                                               n_speakers, mode, reason):
    manifest = tmp_path / "manifest.jsonl"
    if n_speakers:
        manifest = make_toy_corpus(tmp_path / "corpus", n_utterances=4,
                                   n_speakers=n_speakers, duration=0.4, seed=6)
    else:
        manifest.write_text("")
    config = tmp_path / "a2a.ini"
    config.write_text(A2A_CONFIG)
    emb_dir = tmp_path / "emb"
    flags = []
    if mode == "a2a":
        flags = ["--embeddings-dir", str(emb_dir)]
        emb_dir.mkdir()
        for record in load_manifest(manifest):
            write_features(emb_dir / f"{record.utt_id}.s3vc", FeatureSequence(
                frames=sphere_embedding(record.utt_id, dim=8).vector[None, :],
                frame_shift_ms=10.0))
    capsys.readouterr()
    rc = main(["train", str(manifest), "--mode", mode, "--out-dir", str(tmp_path / "run"),
               "--config", str(config), *flags])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0]
    assert not list((tmp_path / "run").glob("*.s3ck"))
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("n_samples", [1024, 1983])
def test_convert_refuses_a_source_too_short_to_score(cli_checkpoint, cli_corpus, tmp_path,
                                                      capsys, n_samples):
    # 1-4 frames at the defaults vocode to T x 240 < 1024 samples, which no
    # metric can read: convert fails that utterance alone, writing none of its files
    full = load_manifest(cli_corpus).records[0]
    wave = load_waveform(full.wav_path, AudioConfig())
    short = dataclasses.replace(full, utt_id="short", wav_path=tmp_path / "short.wav")
    save_waveform(short.wav_path, Waveform(wave.samples[:n_samples], wave.sample_rate))
    manifest = tmp_path / "sources.jsonl"
    write_manifest(manifest, DatasetManifest((short, full)))
    out_dir = tmp_path / "conv"
    capsys.readouterr()
    assert main(["convert", str(cli_checkpoint), str(manifest),
                 "--out-dir", str(out_dir)]) == 1
    frames = (n_samples - 1024) // 240 + 1
    assert capsys.readouterr().err.splitlines()[1:] == [
        f"failed: short: {frames} content frame(s) vocode to {frames * 240} samples, "
        "fewer than one 1024-sample analysis window"]
    assert sorted(path.name for path in out_dir.iterdir()) == [
        f"{full.utt_id}.mel.s3vc", f"{full.utt_id}.wav"]
    assert main(["evaluate", str(out_dir), str(manifest),
                 "--out-dir", str(tmp_path / "scores")]) == 0


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
        wave = load_waveform(out_dir / f"{record.utt_id}.wav", AudioConfig())
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
                 "--feature-dir", str(feature_dir)]) == 0
    convert_argv = ["convert", str(tmp_path / "run" / "final.s3ck"), str(cli_corpus),
                    "--out-dir", str(tmp_path / "conv")]
    assert main(convert_argv + ["--feature-dir", str(feature_dir)]) == 0
    mel = read_features(tmp_path / "conv" / f"{record.utt_id}.mel.s3vc")
    assert mel.frames.shape == (40, 80)  # 20 frames of 20 ms at 10 ms
    capsys.readouterr()
    assert main(convert_argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--feature-dir" in lines[0]


def test_mel_upstream_with_a_feature_dir_is_one_error_line(cli_checkpoint, cli_corpus,
                                                          cli_config, tmp_path, capsys):
    capsys.readouterr()
    assert main(["train", str(cli_corpus), "--out-dir", str(tmp_path / "run"),
                 "--config", str(cli_config), "--feature-dir", str(tmp_path)]) == 1
    assert main(["convert", str(cli_checkpoint), str(cli_corpus), "--out-dir",
                 str(tmp_path / "conv"), "--feature-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: ") and "'mel'" in line
                                   for line in lines)
    assert not (tmp_path / "run").exists() and not (tmp_path / "conv").exists()


@pytest.mark.parametrize("shift", [np.inf, 1e30], ids=["inf", "1e30"])
def test_bad_upstream_frame_shift_is_one_error_line(cli_checkpoint, cli_corpus, cli_config,
                                                   tmp_path, capsys, shift):
    # train reads the shift from a .s3vc header, convert from the checkpoint's upstream entry
    feature_dir = tmp_path / "ssl"
    feature_dir.mkdir()
    for record in load_manifest(cli_corpus).records:
        path = feature_dir / f"{record.utt_id}.s3vc"
        write_features(path, FeatureSequence(frames=np.zeros((20, 7)), frame_shift_ms=20.0))
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<f", shift)  # after magic, version, frame count, width
        path.write_bytes(bytes(blob))
    ckpt = load_checkpoint(cli_checkpoint)
    meta = copy.deepcopy(ckpt.meta)
    meta["upstream"]["frame_shift_ms"] = shift
    bad_ckpt = tmp_path / "bad.s3ck"
    save_checkpoint(bad_ckpt, Checkpoint(meta=meta, tensors=dict(ckpt.tensors)))
    capsys.readouterr()
    assert main(["train", str(cli_corpus), "--out-dir", str(tmp_path / "run"),
                 "--config", str(cli_config), "--upstream", "ssl_stub",
                 "--feature-dir", str(feature_dir)]) == 1
    assert main(["convert", str(bad_ckpt), str(cli_corpus),
                 "--out-dir", str(tmp_path / "conv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: ") and "frame_shift_ms" in line
                                   for line in lines), lines
    assert not (tmp_path / "run").exists() and not (tmp_path / "conv").exists()


def test_train_on_too_wide_upstream_is_one_error_line(cli_corpus, cli_config, tmp_path,
                                                       capsys):
    # the first file sets the upstream width, and nothing is built for a width refused
    feature_dir = tmp_path / "wide"
    feature_dir.mkdir()
    write_features(feature_dir / "a.s3vc",
                   FeatureSequence(frames=np.zeros((2, MAX_WIDTH + 1)), frame_shift_ms=20.0))
    capsys.readouterr()
    assert main(["train", str(cli_corpus), "--out-dir", str(tmp_path / "run"),
                 "--config", str(cli_config), "--upstream", "wide",
                 "--feature-dir", str(feature_dir)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: feature_dim must lie in 1..{MAX_WIDTH}, got {MAX_WIDTH + 1}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("defect", ["nan_frame", "no_frames", "zero_shift"])
def test_bad_feature_file_is_one_error_line_naming_it(cli_corpus, cli_config, tmp_path,
                                                     capsys, defect):
    feature_dir = tmp_path / "ssl"
    feature_dir.mkdir()
    paths = [feature_dir / f"{r.utt_id}.s3vc" for r in load_manifest(cli_corpus).records]
    for path in paths:
        write_features(path, FeatureSequence(frames=np.zeros((20, 7)), frame_shift_ms=20.0))
    bad = max(paths)  # read by recognize, after the first file has set the upstream
    blob = bad.read_bytes()
    if defect == "nan_frame":
        blob = blob[:20] + struct.pack("<f", np.nan) + blob[24:]
    elif defect == "no_frames":
        blob = blob[:8] + struct.pack("<I", 0) + blob[12:20]
    else:
        blob = blob[:16] + struct.pack("<f", 0.0) + blob[20:]
    bad.write_bytes(blob)
    capsys.readouterr()
    assert main(["train", str(cli_corpus), "--out-dir", str(tmp_path / "run"),
                 "--config", str(cli_config), "--upstream", "ssl_stub",
                 "--feature-dir", str(feature_dir)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), lines
    assert not (tmp_path / "run").exists()


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


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_convert_vocodes_while_the_next_utterance_decodes(cli_checkpoint, cli_corpus,
                                                          tmp_path, monkeypatch):
    # --jobs 1 on two CPUs: the first vocode waits for the second decode to start,
    # which a single stage would reach only after its timeout
    _cpus(monkeypatch, 2)
    second = load_manifest(cli_corpus).records[1].utt_id
    second_decoding, waited = threading.Event(), []
    convert, vocode = cli.convert, cli.vocode

    def decoding(record, *args, **kwargs):
        if record.utt_id == second:
            second_decoding.set()
        return convert(record, *args, **kwargs)

    def vocoding(*args, **kwargs):
        if not waited:
            waited.append(second_decoding.wait(timeout=10))
        return vocode(*args, **kwargs)

    monkeypatch.setattr(cli, "convert", decoding)
    monkeypatch.setattr(cli, "vocode", vocoding)
    assert main(["convert", str(cli_checkpoint), str(cli_corpus),
                 "--out-dir", str(tmp_path / "conv"), "--jobs", "1"]) == 0
    assert waited == [True]


@pytest.mark.parametrize("cpus", [1, 2])
def test_convert_failure_in_either_stage_is_one_line_in_manifest_order(
        cli_checkpoint, cli_corpus, tmp_path, capsys, monkeypatch, cpus):
    # the second record fails to vocode, the third to decode; the others are written
    _cpus(monkeypatch, cpus)
    ids = [r.utt_id for r in load_manifest(cli_corpus).records]
    mels = {}  # id of a decoded mel -> (its utt_id, the mel, kept so no id is reused)
    convert, vocode = cli.convert, cli.vocode

    def decoding(record, *args, **kwargs):
        if record.utt_id == ids[2]:
            raise VoiceConversionError("decode broke")
        mel = convert(record, *args, **kwargs)
        mels[id(mel)] = record.utt_id, mel
        return mel

    def vocoding(mel, *args, **kwargs):
        if mels[id(mel)][0] == ids[1]:
            raise VoiceConversionError("vocode broke")
        return vocode(mel, *args, **kwargs)

    monkeypatch.setattr(cli, "convert", decoding)
    monkeypatch.setattr(cli, "vocode", vocoding)
    out_dir = tmp_path / "conv"
    capsys.readouterr()
    assert main(["convert", str(cli_checkpoint), str(cli_corpus),
                 "--out-dir", str(out_dir), "--jobs", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"converted 2 / 4 utterance(s) into {out_dir}",
        f"failed: {ids[1]}: vocode broke", f"failed: {ids[2]}: decode broke"]
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(
        [f"{ids[0]}.mel.s3vc", f"{ids[0]}.wav", f"{ids[1]}.mel.s3vc",
         f"{ids[3]}.mel.s3vc", f"{ids[3]}.wav"])


@pytest.mark.parametrize("cpus", [1, 2])
def test_convert_runs_each_utterance_on_one_thread_and_two_at_once_given_two_cpus(
        cli_checkpoint, cli_corpus, tmp_path, monkeypatch, cpus):
    # --jobs 1 on two CPUs: the first decode waits for the second to start, which
    # one thread for every decode would reach only after its timeout
    _cpus(monkeypatch, cpus)
    ids = [r.utt_id for r in load_manifest(cli_corpus).records]
    second_decoding, waited = threading.Event(), []
    decoded_on, vocoded_on = {}, {}  # utt_id -> thread
    mels = {}  # id of a decoded mel -> (its utt_id, the mel, kept so no id is reused)
    convert, vocode = cli.convert, cli.vocode

    def decoding(record, *args, **kwargs):
        decoded_on[record.utt_id] = threading.get_ident()
        if record.utt_id == ids[1]:
            second_decoding.set()
        if record.utt_id == ids[0] and cpus == 2:
            waited.append(second_decoding.wait(timeout=10))
        mel = convert(record, *args, **kwargs)
        mels[id(mel)] = record.utt_id, mel
        return mel

    def vocoding(mel, *args, **kwargs):
        vocoded_on[mels[id(mel)][0]] = threading.get_ident()
        return vocode(mel, *args, **kwargs)

    monkeypatch.setattr(cli, "convert", decoding)
    monkeypatch.setattr(cli, "vocode", vocoding)
    assert main(["convert", str(cli_checkpoint), str(cli_corpus),
                 "--out-dir", str(tmp_path / "conv"), "--jobs", "1"]) == 0
    assert waited == ([True] if cpus == 2 else [])
    assert sorted(decoded_on) == sorted(ids) and vocoded_on == decoded_on
    if cpus == 1:
        assert len(set(decoded_on.values())) == 1


_CONVERT_CHILD = """\
import hashlib, sys
from recsynvc import cli, recognizer

def hashing(*args, **kwargs):  # the float64 mel, before any rounding to a file
    mel = extract_mel(*args, **kwargs)
    print(hashlib.sha256(mel.frames.tobytes()).hexdigest())
    return mel

extract_mel, recognizer.extract_mel = recognizer.extract_mel, hashing
sys.exit(cli.main(sys.argv[1:]))
"""


def test_convert_bytes_do_not_depend_on_the_blas_thread_count(cli_checkpoint, tmp_path):
    if not openblas_functions("get_num_threads"):
        pytest.skip("needs numpy on OpenBLAS")
    # the mel of a 3 s source is one whose bits change with OpenBLAS's thread count
    manifest = make_toy_corpus(tmp_path / "corpus", n_utterances=1, duration=3.0, seed=7)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    written = []
    for threads in (1, 2):
        out_dir = tmp_path / f"blas{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", _CONVERT_CHILD, "convert", str(cli_checkpoint),
             str(manifest), "--out-dir", str(out_dir)],
            env={**env, "OPENBLAS_NUM_THREADS": str(threads)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append((proc.stdout, {p.name: p.read_bytes() for p in out_dir.iterdir()}))
    assert len(written[0][1]) == 2
    assert written[0] == written[1]


def test_convert_rejects_jobs_below_one(cli_checkpoint, cli_corpus, tmp_path, capsys):
    rc = main(["convert", str(cli_checkpoint), str(cli_corpus),
               "--out-dir", str(tmp_path), "--jobs", "0"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: --jobs must be at least 1, got 0"]


def test_convert_rejects_jobs_above_the_ceiling_before_reading_the_manifest(
        cli_checkpoint, tmp_path, capsys):
    jobs = cli.MAX_JOBS + 1
    rc = main(["convert", str(cli_checkpoint), str(tmp_path / "nope.jsonl"),
               "--out-dir", str(tmp_path / "out"), "--jobs", str(jobs)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --jobs must be at most {cli.MAX_JOBS}, got {jobs}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corrupt, entry", [
    (lambda meta, tensors: meta.pop("decoder"), "decoder"),
    (lambda meta, tensors: meta.update(decoder=[]), "decoder"),
    (lambda meta, tensors: meta["audio"].update(hop_length=None), "hop_length"),
    (lambda meta, tensors: meta.update(seed="x"), "seed"),
    (lambda meta, tensors: meta["upstream"].update(frame_shift_ms=-10.0), "upstream"),
    (lambda meta, tensors: meta["upstream"].update(frame_shift_ms=5000.0),
     "checkpoint meta 'upstream': upstream frame_shift_ms must lie in (0, 1000], got 5000.0"),
    (lambda meta, tensors: meta["audio"].update(griffin_lim_iters=MAX_GRIFFIN_LIM_ITERS + 1),
     f"griffin_lim_iters must lie in 0..{MAX_GRIFFIN_LIM_ITERS}"),
    (lambda meta, tensors: meta["decoder"].update(hidden_dim=MAX_WIDTH + 1),
     f"checkpoint decoder meta: hidden_dim must lie in 1..{MAX_WIDTH}, got {MAX_WIDTH + 1}"),
    (lambda meta, tensors: (meta["decoder"].update(input_dim=MAX_WIDTH + 1),
                            meta["upstream"].update(feature_dim=MAX_WIDTH + 1)),
     f"checkpoint meta 'upstream': feature_dim must lie in 1..{MAX_WIDTH}, "
     f"got {MAX_WIDTH + 1}"),
    (lambda meta, tensors: tensors.pop("stats.target_std"), "stats.target_std"),
    (lambda meta, tensors: tensors.update({"out.weight": tensors.pop("out.w")}), "out.w"),
    (lambda meta, tensors: tensors.update({"out.b": np.zeros(81)}), "out.b"),
    # one line naming the checkpoint, not one "failed:" line per utterance
    (lambda meta, tensors: tensors.update(
        {"stats.target_std": np.where(np.arange(80) == 3, np.nan, tensors["stats.target_std"])}),
     "tensor 'stats.target_std' contains non-finite values"),
], ids=["no_decoder", "list_decoder", "null_hop_length", "str_seed",
        "negative_frame_shift", "long_frame_shift", "griffin_lim_iters_above_ceiling",
        "hidden_dim_above_ceiling", "feature_dim_above_ceiling",
        "no_target_std", "renamed_tensor", "reshaped_tensor", "nan_target_std"])
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
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ") and entry in lines[0]
    assert not (tmp_path / "out").exists()


def test_convert_unknown_vocoder(cli_checkpoint, cli_corpus, tmp_path, capsys):
    # a bad selector is one error before any utterance is decoded or written
    for vocoder in ("wavenet", "external:", "external:'unclosed"):
        out_dir = tmp_path / "out"
        capsys.readouterr()
        rc = main(["convert", str(cli_checkpoint), str(cli_corpus),
                   "--out-dir", str(out_dir), "--vocoder", vocoder])
        assert rc == 1, vocoder
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (vocoder, lines)
        assert not out_dir.exists(), vocoder


def test_convert_conditioned_simple_checkpoint_is_one_error_line(cli_checkpoint, cli_corpus,
                                                                  tmp_path, capsys):
    # only taco2_ar reads a speaker embedding; the CLI checkpoint is a simple decoder
    ckpt = load_checkpoint(cli_checkpoint)
    meta = copy.deepcopy(ckpt.meta)
    assert meta["decoder"]["type"] == "simple"
    meta["decoder"]["speaker_conditioned"] = True
    bad_ckpt = tmp_path / "bad.s3ck"
    save_checkpoint(bad_ckpt, Checkpoint(meta=meta, tensors=dict(ckpt.tensors)))
    capsys.readouterr()
    assert main(["convert", str(bad_ckpt), str(cli_corpus),
                 "--out-dir", str(tmp_path / "conv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {bad_ckpt}: speaker conditioning is only available "
                     "for the taco2_ar decoder"]
    assert not (tmp_path / "conv").exists()


def test_convert_missing_checkpoint(cli_corpus, tmp_path):
    rc = main(["convert", str(tmp_path / "nope.s3ck"), str(cli_corpus),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1


@pytest.fixture(scope="module")
def a2a_checkpoint(tmp_path_factory):
    """A speaker-conditioned checkpoint, trained for one step."""
    root = tmp_path_factory.mktemp("a2a_train")
    manifest = make_toy_corpus(root / "corpus", n_utterances=4, n_speakers=2,
                               duration=0.4, seed=6)
    config = root / "a2a.ini"
    config.write_text(A2A_CONFIG)
    emb_dir = root / "emb"
    emb_dir.mkdir()
    for record in load_manifest(manifest):
        write_features(emb_dir / f"{record.utt_id}.s3vc", FeatureSequence(
            frames=sphere_embedding(record.utt_id, dim=16).vector[None, :],
            frame_shift_ms=10.0))
    assert main(["train", str(manifest), "--mode", "a2a", "--out-dir", str(root / "run"),
                 "--config", str(config), "--embeddings-dir", str(emb_dir)]) == 0
    return root / "run" / "final.s3ck"


def test_convert_conditioned_checkpoint_needs_a_target(a2a_checkpoint, cli_corpus, tmp_path,
                                                       capsys):
    capsys.readouterr()
    assert main(["convert", str(a2a_checkpoint), str(cli_corpus),
                 "--out-dir", str(tmp_path / "conv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: this checkpoint is speaker-conditioned; pass --target-embeddings DIR "
        "or --target-embedding FILE"]
    assert not (tmp_path / "conv").exists()


def test_convert_target_embeddings_in_a_directory_without_any(a2a_checkpoint, cli_corpus,
                                                              tmp_path, capsys):
    empty = tmp_path / "emb"
    empty.mkdir()
    (empty / "notes.txt").write_text("no embeddings here")
    capsys.readouterr()
    assert main(["convert", str(a2a_checkpoint), str(cli_corpus),
                 "--out-dir", str(tmp_path / "conv"), "--target-embeddings", str(empty)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: no .s3vc embeddings under {empty}"]
    assert not (tmp_path / "conv").exists()


@pytest.mark.parametrize("linked", [False, True], ids=["same_directory", "symlinked"])
def test_convert_refuses_to_overwrite_its_sources(cli_checkpoint, tmp_path, capsys, linked):
    manifest = make_toy_corpus(tmp_path / "corpus", n_utterances=2, duration=0.4, seed=5)
    wav_dir = tmp_path / "corpus" / "wav"
    out_dir = wav_dir
    if linked:
        out_dir = tmp_path / "out"
        out_dir.symlink_to(wav_dir, target_is_directory=True)
    sources = {p.name: p.read_bytes() for p in wav_dir.iterdir()}
    first = load_manifest(manifest).records[0].utt_id
    capsys.readouterr()
    assert main(["convert", str(cli_checkpoint), str(manifest),
                 "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {first}: converting into {out_dir / f'{first}.wav'} "
        "would overwrite its source wav"]
    assert {p.name: p.read_bytes() for p in wav_dir.iterdir()} == sources


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


def test_evaluate_rerun_replaces_its_outputs_atomically(eval_setup, tmp_path):
    manifest_path, conv_dir = eval_setup
    out_dir = tmp_path / "scores"
    out_dir.mkdir()
    (out_dir / "summary.json").write_text("stale")
    (out_dir / "report.tsv").write_text("stale")
    argv = ["evaluate", str(conv_dir), str(manifest_path), "--out-dir", str(out_dir)]
    assert main(argv) == 0
    first = {name: (out_dir / name).read_bytes() for name in ("summary.json", "report.tsv")}
    assert json.loads(first["summary.json"])["n_utterances"] == 1
    assert first["report.tsv"].startswith(b"utt_id\tmcd\twer\n")
    assert main(argv) == 0
    assert {name: (out_dir / name).read_bytes() for name in first} == first
    assert sorted(p.name for p in out_dir.iterdir()) == ["report.tsv", "summary.json"]


def test_evaluate_with_asr_and_asv(eval_setup, tmp_path, stub_asr,
                                   stub_speaker_encoder):
    manifest_path, conv_dir = eval_setup
    out_dir = tmp_path / "scores"
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(out_dir),
               "--asr", stub_asr,
               "--speaker-encoder", stub_speaker_encoder,
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
               "--speaker-encoder", stub_speaker_encoder,
               "--target-embedding", str(other),
               "--threshold", "0.999"])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["asv"] == 0.0


def test_evaluate_asv_without_threshold_names_the_flag(
        eval_setup, tmp_path, stub_speaker_encoder, capsys):
    manifest_path, conv_dir = eval_setup
    capsys.readouterr()
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(tmp_path / "scores"),
               "--speaker-encoder", stub_speaker_encoder])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--threshold" in lines[0]
    assert not (tmp_path / "scores").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "-1.01"])
def test_evaluate_threshold_outside_the_cosine_range_is_one_error(
        eval_setup, tmp_path, stub_speaker_encoder, capsys, value):
    manifest_path, conv_dir = eval_setup
    capsys.readouterr()
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(tmp_path / "scores"),
               "--speaker-encoder", stub_speaker_encoder, f"--threshold={value}"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --threshold must be a finite number in [-1, 1], got {float(value)}"]
    assert not (tmp_path / "scores").exists()


def test_evaluate_target_embedding_of_another_width_is_one_error(
        eval_setup, tmp_path, stub_speaker_encoder, capsys):
    manifest_path, conv_dir = eval_setup
    narrow = tmp_path / "narrow.s3vc"  # the stub encoder's embeddings are 16-dim
    write_features(narrow, FeatureSequence(
        frames=sphere_embedding("target", dim=8).vector[None, :].astype(np.float32),
        frame_shift_ms=10.0,
    ))
    capsys.readouterr()
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(tmp_path / "scores"),
               "--speaker-encoder", stub_speaker_encoder,
               "--target-embedding", str(narrow), "--threshold", "0.5"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {narrow}: embedding dim 8 != expected 16"]


def test_evaluate_pair_above_the_dtw_cap_is_one_error_line(eval_setup, tmp_path, capsys,
                                                           monkeypatch):
    manifest_path, conv_dir = eval_setup
    monkeypatch.setattr(evaluator, "MAX_DTW_CELLS", 100)
    capsys.readouterr()
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(tmp_path / "scores")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(lines) == 1
    assert re.fullmatch(r"error: cannot align (\d+) x \1 frames: DTW is capped at 100 cells",
                        lines[0])


@pytest.mark.parametrize("transcript", ["?!", ""])
def test_evaluate_transcript_without_words_skips_only_its_wer(eval_setup, tmp_path, capsys,
                                                             monkeypatch, stub_asr, transcript):
    manifest_path, conv_dir = eval_setup
    scored = load_manifest(manifest_path).records[0]
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, DatasetManifest(
        (scored, dataclasses.replace(scored, utt_id="u1", transcript=transcript))))
    shutil.copyfile(conv_dir / "u0.wav", conv_dir / "u1.wav")
    transcribed = []
    transcribe = cli.transcribe_adapter

    def counted(wav_path, command):
        transcribed.append(Path(wav_path).name)
        return transcribe(wav_path, command)
    monkeypatch.setattr(cli, "transcribe_adapter", counted)
    capsys.readouterr()
    out_dir = tmp_path / "scores"
    assert main(["evaluate", str(conv_dir), str(manifest), "--out-dir", str(out_dir),
                 "--asr", stub_asr]) == 0
    assert transcribed == ["u0.wav"]
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1 and "u1" in warnings[0]
    report = (out_dir / "report.tsv").read_text().splitlines()
    assert report[1:] == ["u0\t0.0000\t0.00", "u1\t0.0000\tnan"]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_utterances"] == 2 and summary["wer"] == 0.0


def test_evaluate_refuses_a_converted_wav_that_is_its_reference(eval_setup, tmp_path,
                                                                capsys):
    manifest_path, _ = eval_setup
    reference = load_manifest(manifest_path).records[0].wav_path
    capsys.readouterr()
    assert main(["evaluate", str(reference.parent), str(manifest_path),
                 "--out-dir", str(tmp_path / "scores")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: u0: the converted wav {reference} is its reference wav"]
    assert not (tmp_path / "scores").exists()


def test_evaluate_without_a_reference_wav_leaves_out_only_its_mcd(eval_setup, tmp_path,
                                                                  capsys):
    manifest_path, conv_dir = eval_setup
    scored = load_manifest(manifest_path).records[0]
    manifest = tmp_path / "m.jsonl"
    # u1's converted wav is another utterance, so its MCD is not 0
    other, _ = make_utterance([9, 1], 0, duration=0.4)
    save_waveform(conv_dir / "u1.wav", other)
    shutil.copyfile(conv_dir / "u0.wav", conv_dir / "u2.wav")
    write_manifest(manifest, DatasetManifest((
        scored, dataclasses.replace(scored, utt_id="u1"),
        dataclasses.replace(scored, utt_id="u2", wav_path=tmp_path / "missing.wav"))))
    capsys.readouterr()
    out_dir = tmp_path / "scores"
    assert main(["evaluate", str(conv_dir), str(manifest), "--out-dir", str(out_dir)]) == 0
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")] == [
        "warning: no reference wav for u2; intrusive metrics skipped"]
    rows = [line.split("\t") for line in (out_dir / "report.tsv").read_text().splitlines()]
    assert [row[0] for row in rows[1:]] == ["u0", "u1", "u2"]
    assert rows[1][1] == "0.0000" and float(rows[2][1]) > 0 and rows[3][1] == "nan"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_utterances"] == 3
    assert summary["mcd"] == pytest.approx(float(rows[2][1]) / 2, abs=1e-4)


def test_evaluate_without_converted_wavs(eval_setup, tmp_path, capsys):
    manifest_path, _ = eval_setup
    empty = tmp_path / "empty"
    empty.mkdir()
    capsys.readouterr()
    rc = main(["evaluate", str(empty), str(manifest_path),
               "--out-dir", str(tmp_path / "scores")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "warning: no converted wav for u0, skipping",
        "error: no converted utterances found to evaluate"]
    assert not (tmp_path / "scores").exists()


def test_evaluate_asv_without_any_target_fails_before_encoding(eval_setup, tmp_path,
                                                               capsys):
    # the only converted wav has no reference wav and no --target-embedding is given
    manifest_path, conv_dir = eval_setup
    load_manifest(manifest_path).records[0].wav_path.unlink()
    spawns = tmp_path / "spawns.txt"
    script = tmp_path / "counting_encoder.py"
    script.write_text(f"open({str(spawns)!r}, 'a').write('spawn\\n')\n")
    capsys.readouterr()
    rc = main(["evaluate", str(conv_dir), str(manifest_path),
               "--out-dir", str(tmp_path / "scores"),
               "--speaker-encoder", shlex.join([sys.executable, str(script)]),
               "--threshold", "0.5"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: ASV needs reference wavs or --target-embedding"]
    assert not spawns.exists()
    assert not (tmp_path / "scores").exists()


_LIMITED_CHILD = """\
import resource, sys
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from recsynvc.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_evaluate_with_a_flooding_asr_is_one_error_line(eval_setup, tmp_path):
    """An ASR adapter that prints without end is killed at its output ceiling;
    without one, ``evaluate`` buffered the flood until a ``MemoryError``."""
    manifest_path, conv_dir = eval_setup
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD, str(1_500_000 * 1024), "evaluate",
         str(conv_dir), str(manifest_path), "--out-dir", str(tmp_path / "scores"),
         "--asr", "yes"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "'yes'" in lines[0]
    assert "output ceiling" in lines[0]


# --- correlate ------------------------------------------------------------------

def test_correlate_bundled(tmp_path):
    out = tmp_path / "corr.json"
    rc = main(["correlate", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["labels"] == ["MCD", "WER", "ASV", "NAT", "SIM"]
    assert len(payload["matrix"]) == 5
    assert payload["n_rows"] == 16
    assert payload["subset"] == "all"
    assert payload["max_deviation"] <= 0.02
    assert len(payload["comparison"]) == 10
    for entry in payload["comparison"]:
        assert entry["deviation"] <= 0.02 + 1e-9


def test_correlate_custom_table(tmp_path):
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


PUBLISHED = {"MCD:WER": 0.678, "MCD:ASV": -0.934, "MCD:NAT": -0.968, "MCD:SIM": -0.961,
             "WER:ASV": -0.640, "WER:NAT": -0.808, "WER:SIM": -0.587, "ASV:NAT": 0.910,
             "ASV:SIM": 0.911, "NAT:SIM": 0.932}


def test_correlate_published_without_table_is_honored(tmp_path):
    published = tmp_path / "published.json"
    published.write_text(json.dumps({"coefficients": {k: 0.5 for k in PUBLISHED}}))
    out = tmp_path / "corr.json"
    assert main(["correlate", "--published", str(published), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_rows"] == 16
    assert [entry["published"] for entry in payload["comparison"]] == [0.5] * 10


@pytest.mark.parametrize("text", [
    "not json",
    "\"coefficients\"",
    json.dumps({"source": "x"}),
    json.dumps({"coefficients": [0.5]}),
    json.dumps({"coefficients": {**PUBLISHED, "MCD-WER": 0.5}}),
    json.dumps({"coefficients": {"MCD:WER": 0.678}}),
    json.dumps({"coefficients": {**PUBLISHED, "MCD:WER": "high"}}),
    json.dumps({"coefficients": {**PUBLISHED, "MCD:WER": True}}),
    json.dumps({"coefficients": {**PUBLISHED, "MCD:WER": float("nan")}}),
    json.dumps({"coefficients": {**PUBLISHED, "MCD:WER": float("-inf")}}),
    json.dumps({"coefficients": {**PUBLISHED, "MCD:WER": 1.5}}),
], ids=["not_json", "not_object", "no_coefficients", "list_coefficients", "bad_key",
        "missing_pairs", "str_value", "bool_value", "nan_value", "infinite_value",
        "out_of_range"])
def test_correlate_bad_published_is_one_error_line(tmp_path, capsys, text):
    published = tmp_path / "published.json"
    published.write_text(text)
    capsys.readouterr()
    assert main(["correlate", "--published", str(published),
                 "--out", str(tmp_path / "corr.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(published) in lines[0]
    assert not (tmp_path / "corr.json").exists()


_TABLE_HEAD = b"system\tmcd\twer\tasv\tnaturalness\tsimilarity\n"


@pytest.mark.parametrize("blob", [
    _TABLE_HEAD + b"sys\xff0\t7.0\t20.0\t60.0\t3.0\t50.0\n",
    _TABLE_HEAD + b"sys0\tnan\t20.0\t60.0\t3.0\t50.0\n",
    _TABLE_HEAD + b"sys0\t7.0\tinf\t60.0\t3.0\t50.0\n",
    _TABLE_HEAD + b"sys0\t7.0\t20.0\t60.0\tNaN\t50.0\n",
    b"system\tmcd\twer\tasv\tnat\n",
    _TABLE_HEAD + b"sys0\tseven\t20.0\t60.0\t3.0\t50.0\n",
    b"system\tmcd\tmcd\twer\tasv\n",
    _TABLE_HEAD + b"sys0\t7.0\t20.0\t60.0\t3.0\t50.0\t9.0\n",
    b"# scores\n" + _TABLE_HEAD + b"A\t7.0\t20.0\t60.0\t3.0\t50.0\nB\t6.0\t10.0\t70.0\n"
    + b"C\t5.0\t15.0\t80.0\t4.0\t70.0\n",
    _TABLE_HEAD + b"sys0\t7.0\t20.0\t60.0\t3.0\t50.0\n",
    _TABLE_HEAD + b"A\t7.0\t20.0\t60.0\t3.0\t50.0\nB\t7.0\t10.0\t70.0\t3.5\t60.0\n"
    + b"C\t7.0\t15.0\t80.0\t4.0\t70.0\n",
], ids=["not_utf8", "nan_mcd", "inf_wer", "nan_naturalness", "unknown_column",
        "not_a_number", "repeated_column", "extra_cell", "row_lacks_naturalness",
        "one_row", "constant_column"])
def test_correlate_bad_table_is_one_error_line(tmp_path, capsys, blob):
    table = tmp_path / "table.tsv"
    table.write_bytes(blob)
    capsys.readouterr()
    assert main(["correlate", "--table", str(table), "--out", str(tmp_path / "corr.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(table) in lines[0]
    assert not (tmp_path / "corr.json").exists()


def test_correlate_published_keeps_every_row_of_a_table(tmp_path, capsys):
    """Rows named like the bundled baselines are correlated like any other row."""
    table = tmp_path / "table.tsv"
    table.write_bytes(_TABLE_HEAD + b"mel\t7.0\t20.0\t60.0\t3.0\t50.0\n"
                      + b"PPG (TIMIT)\t6.0\t10.0\t70.0\t3.5\t60.0\n"
                      + b"A\t5.0\t15.0\t80.0\t4.0\t70.0\nB\t4.0\t12.0\t75.0\t4.2\t72.0\n")
    published = tmp_path / "published.json"
    published.write_text(json.dumps({"coefficients": {k: 0.5 for k in PUBLISHED}}))
    out = tmp_path / "corr.json"
    capsys.readouterr()
    assert main(["correlate", "--table", str(table), "--published", str(published),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["n_rows"], payload["subset"], len(payload["comparison"])) == (4, "all", 10)
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "computed a 5x5 correlation matrix over 4 rows"
    assert lines[1] == f"max |deviation| = {payload['max_deviation']:.4f}"
    assert len(lines) == 12


# --- parser ---------------------------------------------------------------------

def test_every_subcommand_reads_each_of_its_options():
    """Each option reaches its command: read in its ``cmd_*`` function, or in a
    module helper that function passes ``args`` to (``getattr(args, name)`` counts)."""
    functions = {node.name: node for node in ast.parse(inspect.getsource(cli)).body
                 if isinstance(node, ast.FunctionDef)}

    def reads(name, seen=frozenset()):
        found = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                found.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                passes_args = any(isinstance(a, ast.Name) and a.id == "args"
                                  for a in node.args)
                if (node.func.id == "getattr" and passes_args
                        and isinstance(node.args[1], ast.Constant)):
                    found.add(node.args[1].value)
                elif passes_args and node.func.id in functions.keys() - seen:
                    found |= reads(node.func.id, seen | {name})
        return found

    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    unread = {}
    for command, sub in commands.items():
        options = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        unread[command] = sorted(options - reads(sub.get_default("func").__name__))
    assert unread == {command: [] for command in commands}


def test_readme_names_only_real_options_and_keys():
    """Every ``--flag`` in the README is an option of some subcommand and every
    option of every subcommand is named there, every `` `[section] key` `` it
    names is a config field, and every name its Python blocks import from
    ``recsynvc.X`` is defined in module ``X``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {flag for sub in commands.values() for a in sub._actions
             for flag in a.option_strings}
    keys = {(section, f.name) for section, cls in config._SECTIONS.items()
            for f in dataclasses.fields(cls)}
    named_flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme))
    named_keys = set(re.findall(r"`\[(\w+)\]\s+(\w+)`", readme))
    assert named_flags and named_keys
    assert sorted(named_flags - flags) == []
    assert sorted(flags - named_flags - {"-h", "--help"}) == []
    assert sorted(named_keys - keys) == []

    # the configuration table: one row per key, with its declared default and range
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| ([^|]*?) *\| *([^|]*?) *\|", readme, re.M)
    assert sorted((section, key) for section, key, _, _ in rows) == sorted(keys)
    for section, key, default, span in rows:
        f = next(f for f in dataclasses.fields(config._SECTIONS[section]) if f.name == key)
        declared = (",".join(map(str, f.default)) if isinstance(f.default, tuple)
                    else str(f.default))
        assert default == declared, key
        assert span == ("{}..{}".format(*f.metadata["range"]) if "range" in f.metadata
                        else ""), key

    code = "\n".join(re.findall(r"```python\n(.*?)```", readme, re.S))
    imports = re.findall(r"^from recsynvc\.(\w+) import (.+)$", code, re.M)
    assert imports
    missing = [f"{module}.{name}" for module, names in imports
               for name in map(str.strip, names.split(","))
               if not hasattr(importlib.import_module(f"recsynvc.{module}"), name)]
    assert missing == []
