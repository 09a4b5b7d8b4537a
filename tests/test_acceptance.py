"""Acceptance gate: eight release criteria, one printed verdict line each.

Each test prints ``ACCEPTANCE <n> (<name>): PASS/FAIL - <detail>`` to the
terminal (bypassing capture) and then asserts, so a bare ``pytest`` run shows
the full scoreboard.
"""

import itertools
import json
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from recsynvc.audioio import load_waveform
from recsynvc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from recsynvc.cli import main
from recsynvc.config import ModelConfig
from recsynvc.converter import average_embedding, convert, vocode
from recsynvc.evaluator import MCD_CONSTANT, dtw_align, mcd, path_cost, wer
from recsynvc.featureio import read_features, write_features
from recsynvc.recognizer import extract_mel, mel_upstream
from recsynvc.synthesizer import build_decoder, decoder_from_meta
from recsynvc.trainer import loss_and_grads, train_a2a, train_a2o
from recsynvc.types import FeatureSequence, SpeakerEmbedding

from helpers import sphere_embedding, toy_config

DECODERS = ("simple", "simple_ar", "taco2_ar")


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {number} ({name}): {verdict} - {detail}")


# --- 1: correlation reproduction ---------------------------------------------------

def test_criterion_1_correlation_reproduction(tmp_path, capsys):
    out = tmp_path / "corr.json"
    t0 = time.perf_counter()
    rc = main(["correlate", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    payload = json.loads(out.read_text())
    gaps = [entry["deviation"] for entry in payload["comparison"]]
    ok = (rc == 0 and len(gaps) == 10 and max(gaps) <= 0.02 and elapsed < 1.0)
    _report(capsys, 1, "correlation reproduction", ok,
            f"subset={payload['subset']} max|gap|={max(gaps):.4f} "
            f"(10 coefficients, tol 0.02) in {elapsed:.3f}s")
    assert rc == 0
    assert len(gaps) == 10
    assert max(gaps) <= 0.02
    assert elapsed < 1.0


# --- 2: metric oracles --------------------------------------------------------------

def _edit_distance_bruteforce(a, b):
    # plain exhaustive recursion, no dynamic programming
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _edit_distance_bruteforce(a[1:], b) + 1,
        _edit_distance_bruteforce(a, b[1:]) + 1,
        _edit_distance_bruteforce(a[1:], b[1:]) + (a[0] != b[0]),
    )


def _min_dtw_cost_exhaustive(a, b):
    # enumerate every monotone path; no pruning, no memoization
    ta, tb = a.shape[0], b.shape[0]
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    best = [np.inf]

    def walk(i, j, acc):
        acc += cost[i, j]
        if i == ta - 1 and j == tb - 1:
            best[0] = min(best[0], acc)
            return
        if i + 1 < ta and j + 1 < tb:
            walk(i + 1, j + 1, acc)
        if i + 1 < ta:
            walk(i + 1, j, acc)
        if j + 1 < tb:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def test_criterion_2_metric_oracles(capsys):
    t0 = time.perf_counter()
    alphabet = ("a", "b", "c")

    # exhaustively over every token pair with combined length <= 6
    n_pairs = 0
    for n in range(1, 7):
        for m in range(0, 7 - n):
            for ref in itertools.product(alphabet, repeat=n):
                for hyp in itertools.product(alphabet, repeat=m):
                    expected = 100.0 * _edit_distance_bruteforce(ref, hyp) / n
                    assert wer(ref, hyp) == expected
                    n_pairs += 1

    # every shape up to 6x6 on seeded random token pairs
    rng = np.random.default_rng(202)
    for n in range(1, 7):
        for m in range(0, 7):
            for _ in range(5):
                ref = tuple(alphabet[k] for k in rng.integers(0, 3, n))
                hyp = tuple(alphabet[k] for k in rng.integers(0, 3, m))
                expected = 100.0 * _edit_distance_bruteforce(ref, hyp) / n
                assert wer(ref, hyp) == expected
                n_pairs += 1

    # DTW: 200 random instances cycling through all shapes <= 6x6
    shapes = [(ta, tb) for ta in range(1, 7) for tb in range(1, 7)]
    worst_gap = 0.0
    for k in range(200):
        ta, tb = shapes[k % len(shapes)]
        a = rng.standard_normal((ta, 3))
        b = rng.standard_normal((tb, 3))
        exhaustive = _min_dtw_cost_exhaustive(a, b)
        returned = path_cost(a, b, dtw_align(a, b))
        worst_gap = max(worst_gap, abs(returned - exhaustive))
        assert abs(returned - exhaustive) < 1e-9

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(capsys, 2, "metric oracles", ok,
            f"{n_pairs} WER pairs vs brute force, 200 DTW instances "
            f"(worst gap {worst_gap:.2e}) in {elapsed:.1f}s")
    assert ok


# --- 3: MCD closed forms -------------------------------------------------------------

def test_criterion_3_mcd_closed_forms(capsys):
    rng = np.random.default_rng(30)
    # identical sequences score exactly zero
    for t in (1, 7, 30):
        a = rng.standard_normal((t, 24))
        assert mcd(a, a) == 0.0

    # unit offset in one dimension hits the dB constant to 1e-9
    worst = 0.0
    for t in (2, 5, 16):
        a = rng.standard_normal((t, 24))
        b = a.copy()
        b[:, int(rng.integers(0, 24))] += 1.0
        worst = max(worst, abs(mcd(a, b) - MCD_CONSTANT))
    assert worst < 1e-9

    # scaling one noise draw must scale the score strictly monotonically
    monotone = True
    for seed in range(10):
        srng = np.random.default_rng(seed)
        base = srng.standard_normal((30, 24))
        noise = srng.standard_normal(base.shape)
        scores = [mcd(base, base + sigma * noise) for sigma in (0.1, 0.2, 0.4)]
        monotone &= scores[0] < scores[1] < scores[2]
    _report(capsys, 3, "MCD closed forms", monotone and worst < 1e-9,
            f"identity=0, unit offset within {worst:.1e} of "
            f"{MCD_CONSTANT:.6f} dB, noise monotone over 10 seeds")
    assert monotone


# --- 4: toy A2O end to end -----------------------------------------------------------

def _mel_to_cepstra(mel, order=24):
    import scipy.fft

    frames = scipy.fft.dct(np.asarray(mel.frames, dtype=np.float64),
                           type=2, norm="ortho", axis=1)
    return frames[:, 1:order + 1]


def _untrained_twin(trained: Checkpoint) -> Checkpoint:
    """Same architecture and stats, freshly initialized weights."""
    cfg, input_dim = decoder_from_meta(trained.meta["decoder"])
    fresh = build_decoder(cfg, input_dim, seed=12345)
    tensors = dict(fresh.tensors)
    for key, value in trained.tensors.items():
        if key.startswith("stats."):
            tensors[key] = value
    return Checkpoint(meta=dict(trained.meta), tensors=tensors)


def test_criterion_4_toy_a2o(toy_corpus, audio, tmp_path, capsys):
    spec = mel_upstream(audio)
    manifest = toy_corpus["manifest"]
    held_in = manifest.records[0]
    ref_wave = load_waveform(held_in.wav_path, target_rate=audio.sample_rate)
    ref_cepstra = _mel_to_cepstra(extract_mel(ref_wave, audio))

    summaries = []
    all_ok = True
    for decoder_type in DECODERS:
        config = toy_config(decoder_type)
        t0 = time.perf_counter()
        run = train_a2o(manifest, spec, config, tmp_path / decoder_type)
        train_time = time.perf_counter() - t0
        ratio = run.loss_history[-1] / run.loss_history[0]

        trained = load_checkpoint(run.checkpoint_path)
        converted = convert(held_in, trained, dropout_seed=0)
        baseline = convert(held_in, _untrained_twin(trained),
                           dropout_seed=0)
        mcd_trained = mcd(ref_cepstra, _mel_to_cepstra(converted))
        mcd_untrained = mcd(ref_cepstra, _mel_to_cepstra(baseline))

        ok = (train_time < 600.0 and ratio < 0.10
              and mcd_trained < mcd_untrained)
        all_ok &= ok
        summaries.append(
            f"{decoder_type}: {train_time:.0f}s ratio={ratio:.3f} "
            f"mcd {mcd_trained:.1f}<{mcd_untrained:.1f}"
        )
        assert train_time < 600.0
        assert ratio < 0.10
        assert mcd_trained < mcd_untrained

    _report(capsys, 4, "toy A2O end-to-end", all_ok, "; ".join(summaries))


# --- 5: toy A2A ---------------------------------------------------------------------

def test_criterion_5_toy_a2a(toy_corpus_multi, audio, tmp_path, capsys):
    spec = mel_upstream(audio)
    manifest = toy_corpus_multi["manifest"]

    def encoder(record):
        return sphere_embedding(record.speaker_id)

    config = toy_config("taco2_ar", speaker_conditioned=True, embedding_dim=16,
                        hidden_dim=64, lstmp_proj_dim=64, prenet_dims=(32, 32),
                        postnet_layers=3, postnet_channels=32, steps=120)
    run = train_a2a(manifest, spec, config, tmp_path / "a2a", encoder)
    trained = load_checkpoint(run.checkpoint_path)
    assert trained.meta["mode"] == "a2a"

    source = manifest.records[0]
    by_speaker = {}
    for record in manifest.records:
        by_speaker.setdefault(record.speaker_id, []).append(encoder(record))
    target_a = average_embedding(by_speaker["SPK2"])
    target_b = average_embedding(by_speaker["SPK4"])
    out_a = convert(source, trained, s=target_a, dropout_seed=7)
    out_b = convert(source, trained, s=target_b, dropout_seed=7)
    l1_gap = float(np.mean(np.abs(out_a.frames - out_b.frames)))

    rng = np.random.default_rng(50)
    norm_worst = 0.0
    idem_worst = 0.0
    for _ in range(1000):
        group = [SpeakerEmbedding.from_raw(rng.standard_normal(16))
                 for _ in range(int(rng.integers(1, 8)))]
        avg = average_embedding(group)
        norm_worst = max(norm_worst,
                         abs(float(np.linalg.norm(avg.vector)) - 1.0))
        again = average_embedding([avg, avg, avg])
        idem_worst = max(idem_worst,
                         float(np.max(np.abs(again.vector - avg.vector))))

    ok = l1_gap > 1e-3 and norm_worst < 1e-6 and idem_worst < 1e-12
    _report(capsys, 5, "toy A2A", ok,
            f"target swap L1 gap={l1_gap:.4f} (>1e-3); 1000 draws: "
            f"|norm-1|<={norm_worst:.1e}, idempotence gap<={idem_worst:.1e}")
    assert l1_gap > 1e-3
    assert norm_worst < 1e-6
    assert idem_worst < 1e-12


# --- 6: gradient check ---------------------------------------------------------------

def test_criterion_6_gradient_check(capsys):
    rng = np.random.default_rng(60)
    eps = 1e-5
    worst = 0.0
    for decoder_type in DECODERS:
        conditioned = decoder_type == "taco2_ar"
        cfg = ModelConfig(
            type=decoder_type, hidden_dim=8, lstmp_proj_dim=8,
            prenet_dims=(8, 8), postnet_layers=3, postnet_channels=8,
            postnet_kernel=5, ar_dropout=0.5,
            speaker_conditioned=conditioned, embedding_dim=4,
        )
        params = build_decoder(cfg, 6, seed=61)
        # move off the exact ReLU kinks that zero initialization creates
        for arr in params.tensors.values():
            arr += 0.01 * rng.standard_normal(arr.shape)
        content = rng.standard_normal((2, 5, 6))
        target = rng.standard_normal((2, 5, 80))
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float64)
        spk = None
        if conditioned:
            spk = rng.standard_normal((2, 4))
            spk /= np.linalg.norm(spk, axis=1, keepdims=True)

        _, grads = loss_and_grads(params, content, target, mask, spk,
                                  dropout_seed=3)
        names = sorted(params.tensors)
        coords = []
        while len(coords) < 20:
            name = names[int(rng.integers(0, len(names)))]
            idx = tuple(int(rng.integers(0, s))
                        for s in params.tensors[name].shape)
            coords.append((name, idx))
        for name, idx in coords:
            saved = params.tensors[name][idx]
            params.tensors[name][idx] = saved + eps
            up, _ = loss_and_grads(params, content, target, mask, spk,
                                   dropout_seed=3)
            params.tensors[name][idx] = saved - eps
            down, _ = loss_and_grads(params, content, target, mask, spk,
                                     dropout_seed=3)
            params.tensors[name][idx] = saved
            fd = (up - down) / (2.0 * eps)
            analytic = grads[name][idx]
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-3, f"{decoder_type} {name}{idx}: {analytic} vs {fd}"

    _report(capsys, 6, "gradient check", worst < 1e-3,
            f"20 sampled parameters per decoder, central differences, "
            f"worst relative error {worst:.2e}")


# --- 7: determinism -----------------------------------------------------------------

def test_criterion_7_determinism(toy_corpus, audio, tmp_path, capsys):
    spec = mel_upstream(audio)
    manifest = toy_corpus["manifest"]
    config = toy_config("simple_ar", hidden_dim=32, lstmp_proj_dim=32,
                        steps=8, checkpoint_interval=4, batch_size=4)

    artifacts = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        run = train_a2o(manifest, spec, config, run_dir)
        trained = load_checkpoint(run.checkpoint_path)
        converted = convert(manifest.records[0], trained, dropout_seed=3)
        mel_path = run_dir / "converted.s3vc"
        write_features(mel_path, converted.as_features())
        wave = vocode(converted, audio)
        artifacts.append((
            (run_dir / "checkpoint_000004.s3ck").read_bytes(),
            run.checkpoint_path.read_bytes(),
            mel_path.read_bytes(),
            wave.samples.tobytes(),
        ))

    same = [a == b for a, b in zip(artifacts[0], artifacts[1])]
    ok = all(same)
    _report(capsys, 7, "determinism", ok,
            "two seeded runs byte-identical: intermediate checkpoint, final "
            f"checkpoint, converted features, vocoded samples = {same}")
    assert ok


# --- 8: format round-trips -----------------------------------------------------------

def _random_meta(rng):
    return {
        "format": "recsynvc-checkpoint",
        "step": int(rng.integers(0, 10_000)),
        "loss": float(rng.standard_normal()),
        "flag": bool(rng.integers(0, 2)),
        "note": "".join(chr(int(c)) for c in rng.integers(97, 123, 8)),
        "maybe": None if rng.integers(0, 2) else "present",
        "nested": {"dims": [int(v) for v in rng.integers(1, 300, 3)]},
    }


def test_criterion_8_format_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(80)

    for k in range(100):
        frames = rng.standard_normal(
            (int(rng.integers(1, 40)), int(rng.integers(1, 100)))
        ).astype(np.float32)
        seq = FeatureSequence(frames=frames,
                              frame_shift_ms=float(rng.uniform(1.0, 50.0)))
        path = tmp_path / f"seq_{k}.s3vc"
        write_features(path, seq)
        back = read_features(path)
        assert np.array_equal(back.frames, seq.frames)
        assert back.frames.dtype == np.float32
        assert back.frame_shift_ms == seq.frame_shift_ms
        again = tmp_path / f"seq_{k}_again.s3vc"
        write_features(again, back)
        assert again.read_bytes() == path.read_bytes()

    for k in range(100):
        tensors = {}
        for t in range(int(rng.integers(1, 6))):
            shape = tuple(int(v) for v in
                          rng.integers(1, 20, int(rng.integers(1, 4))))
            tensors[f"t{t}.w"] = rng.standard_normal(shape)
        ckpt = Checkpoint(meta=_random_meta(rng), tensors=tensors)
        path = tmp_path / f"ckpt_{k}.s3ck"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.meta == ckpt.meta
        assert sorted(back.tensors) == sorted(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(back.tensors[name], arr)
            assert back.tensors[name].dtype == np.float64
        again = tmp_path / f"ckpt_{k}_again.s3ck"
        save_checkpoint(again, back)
        assert again.read_bytes() == path.read_bytes()

    _report(capsys, 8, "format round-trips", True,
            "100 feature files and 100 checkpoints round-trip bit-exactly, "
            "re-serialization byte-identical")
