"""Tests of the benchmark harness itself, at toy model size.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
from conftest import BENCH, ROOT
from tracing import Span
from workloads import TOY, WORKLOADS, compare

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STAGES = {
    "train": {"train_frames_per_s.taco2_ar", "train_frames_per_s.simple_ar"},
    "convert_long": {"convert_audio_s_per_s", "score_utts_per_s"},
    "a2a_short": {"convert_audio_s_per_s", "score_utts_per_s"},
}


def toy_run(tmp_path, name, trace, reference_path=harness.REFERENCE, seed=3):
    return harness.run_workload(name, seed, 0.2, trace, TOY, ROOT, tmp_path / name,
                                reference_path=reference_path)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tmp_path, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        report = toy_run(tmp_path, name, trace)
        result = report["result"]
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        assert set(report["stages"]) == STAGES[name]
        lines = "\n".join(harness.format_report(report))
        for metric in list(want) + list(STAGES[name]) + ["error_rate"]:
            assert re.search(rf"^  {re.escape(metric)} ", lines, re.M), metric


def test_traced_run_sees_the_layers_its_workload_uses(tmp_path):
    metrics = toy_run(tmp_path, "a2a_short", True)["result"]["metrics"]
    value = {k: m["value"] for k, m in metrics.items()}
    # one checkpoint reload per utterance, one adapter spawn per converted wav
    assert value["converter.load_model.calls"] == TOY.n_short_sources
    assert value["converter.speaker_encoder_adapter.spawns"] == TOY.n_short_sources
    assert value["converter.speaker_encoder_adapter.cache_hit_ratio"] == 0.5
    assert value["evaluator.transcribe_adapter.spawns"] == TOY.n_short_sources
    n = TOY.calib_speakers * TOY.calib_utts
    assert value["evaluator.calibrate_asv_threshold.pairs"] == n * (n - 1) // 2
    assert value["cli.train.calls"] == 0 and value["cli.convert.calls"] == 1


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("b", 0, 3.0, 6.0),     # overlaps a: the union counts once
        Span("a.child", 1, 2.0, 3.0),
        Span("late", 0, 9.0, 12.0),  # only the part inside root counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_per_layer_arithmetic_on_a_hand_built_tree():
    spans = [
        Span("cli.train", None, 0.0, 10.0),
        Span("trainer.loss_and_grads", 0, 2.0, 7.0, {"unmasked": 6.0, "padded": 8}),
        Span("synthesizer.teacher_forward", 1, 2.5, 4.5),
        Span("nnops.lstm_step", 2, 3.0, 4.0, {"flop": 2e9}),
        Span("trainer.loss_and_grads", 0, 7.0, 9.0, {"unmasked": 2.0, "padded": 8}),
    ]
    m = {k: v for k, (v, _) in tracing.per_layer_metrics(spans, n_passes=2).items()}
    assert m["cli.train.calls"] == 0.5
    assert m["cli.train.s"] == 5.0
    assert m["cli.train.unattributed_s"] == pytest.approx(1.5)
    assert m["trainer.loss_and_grads.calls"] == 1.0
    assert m["trainer.loss_and_grads.s"] == pytest.approx(2.5)
    assert m["synthesizer.teacher_forward.s"] == pytest.approx(0.5)
    assert m["nnops.lstm_step.gflop"] == 1.0
    assert m["nnops.lstm_step.gflop_per_s"] == pytest.approx(2.0)
    assert m["trainer.prepare.s"] == pytest.approx(1.0)
    assert m["trainer.pad_ratio"] == 0.5


def test_a_failing_output_check_raises_error_rate(tmp_path):
    good = toy_run(tmp_path, "convert_long", False)
    assert good["error_rate"] == 0
    wrong = {"mcd": good["record"]["observed"]["mcd"] * 1.1}
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"toy": {"convert_long": {"3": wrong}}}))
    bad = toy_run(tmp_path, "convert_long", False, reference_path=ref)
    assert bad["record"]["reference"] == "recorded"
    assert bad["error_rate"] > 0
    assert not bad["result"]["correct"] and bad["result"]["failed"] > 0
    assert any("recorded reference" in f for f in bad["failures"])


def test_recorded_reference_matches_at_toy_size(tmp_path):
    first = toy_run(tmp_path, "train", False)
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"toy": {"train": {"3": first["record"]["observed"]}}}))
    again = toy_run(tmp_path, "train", False, reference_path=ref)
    assert again["record"]["reference"] == "recorded"
    assert again["result"]["correct"], again["failures"]


def test_tolerance_admits_rounding_but_not_changed_results():
    ref = {"taco2_ar": {"loss": [1.5], "param_norm": 40.0}, "mcd": 7.0}
    close = {"taco2_ar": {"loss": [1.5 * (1 + 1e-7)], "param_norm": 40.0 * (1 + 1e-9)},
             "mcd": 7.0 * (1 + 1e-5)}
    assert compare(close, ref) == []
    far = {"taco2_ar": {"loss": [1.5015], "param_norm": 40.0}, "mcd": 7.0}
    assert compare(far, ref) == ["taco2_ar.loss.0: 1.5015 != 1.5"]
    assert compare({"mcd": None}, {"mcd": 7.0}) == ["mcd: None != 7.0"]


def test_tracing_off_leaves_every_binding_unwrapped(tmp_path):
    def bindings():
        return [getattr(tracing._resolve(target), attr)
                for target, attr, *_ in tracing.PATCHES]

    before = bindings()
    toy_run(tmp_path, "train", True)
    assert bindings() == before
    tracer = tracing.Tracer()
    tracer.install(tracing.PATCHES)
    try:
        assert tracer.missing == []  # every binding exists in this checkout
        assert all(a is not b for a, b in zip(bindings(), before))
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {n: w.why for n, w in WORKLOADS.items()}
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == harness.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.per_layer_names()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
