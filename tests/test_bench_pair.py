"""``tools/bench_pair.py``: parsing perfbench's output, aggregation and verdicts."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _stdout(workload, seed, setup_s, wall_s, peak, correct=True, failed=0, stages=()):
    """What ``perfbench/run.py --trace 0`` prints for one run; ``stages`` holds
    (name, value, unit) rows."""
    record = {"workload": workload, "seed": seed, "commit": "unknown", "nproc": 2}
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                          "wall_s": {"value": wall_s, "unit": "s"},
                          "peak_rss_mb": {"value": peak, "unit": "MB"}}}
    return "\n".join([f"workload {workload} (seed {seed}): why",
                      "run_record " + json.dumps(record),
                      f"  {'wall_s':<52} {wall_s:>14.6g} s",
                      *(f"  {name:<52} {value:>14.6g} {unit}" for name, value, unit in stages),
                      f"  {'error_rate':<52} {failed / 10:>14.6g} failed/attempted",
                      json.dumps(result)]) + "\n"


def _runs(workload, side, rows):
    """Parsed runs of one side: ``rows`` holds (seed, setup_s, wall_s, peak[, correct, failed])."""
    runs = []
    for seed, *values in rows:
        result, _ = bench_pair.parse_run_output(_stdout(workload, seed, *values))
        runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
    return runs


def test_parse_reads_the_result_and_the_run_record():
    result, record = bench_pair.parse_run_output(_stdout("train", 3, 1.0, 2.0, 240.0))
    assert result["correct"] is True and result["metrics"]["wall_s"]["value"] == 2.0
    assert record == {"workload": "train", "seed": 3, "commit": "unknown", "nproc": 2}


@pytest.mark.parametrize("stdout", ["", "error: no recsynvc sources\n", "run_record {}\n[1, 2]\n"])
def test_parse_of_a_run_without_a_result_line_is_none(stdout):
    assert bench_pair.parse_run_output(stdout)[0] is None


def test_parse_keeps_the_stage_lines_only():
    stdout = _stdout("train", 1, 1.0, 2.0, 240.0, stages=[
        ("train_frames_per_s.taco2_ar", 1234.5678, "frames/s"),
        ("train_frames_per_s.simple_ar", 2e3, "frames/s")])
    assert bench_pair.parse_stage_lines(stdout) == {
        "train_frames_per_s.taco2_ar": pytest.approx(1234.57),
        "train_frames_per_s.simple_ar": 2000.0}
    assert bench_pair.parse_stage_lines("") == {}


def test_stage_metrics_get_medians_and_a_ratio_but_no_verdict():
    runs = []
    for side, values in (("parent", [2.0, 2.4, 2.2]), ("change", [3.3, 2.9, 3.6])):
        for seed, value in enumerate(values, 1):
            stdout = _stdout("a2a_short", seed, 0.3, 2.0, 150.0, stages=[
                ("convert_audio_s_per_s", value, "s/s"), ("score_utts_per_s", 40.0, "utts/s")])
            runs.append({"workload": "a2a_short", "seed": seed, "side": side,
                         "result": bench_pair.parse_run_output(stdout)[0],
                         "stages": bench_pair.parse_stage_lines(stdout)})
    runs += _runs("train", "parent", [(1, 1.0, 2.0, 240.0)])  # a run without stage lines
    summary = bench_pair.summarize(runs, END_TO_END)
    stages = summary["a2a_short"]["stages"]
    assert list(stages) == ["convert_audio_s_per_s", "score_utts_per_s"]
    audio = stages["convert_audio_s_per_s"]
    assert audio["parent"] == {"n": 3, "median": 2.2, "q1": pytest.approx(2.1),
                               "q3": pytest.approx(2.3), "iqr": pytest.approx(0.2)}
    assert audio["change"]["median"] == 3.3
    assert audio["ratio"] == pytest.approx(1.5)
    assert stages["score_utts_per_s"]["ratio"] == 1.0
    assert not any("verdict" in row for row in stages.values())
    assert summary["train"]["stages"] == {}
    assert "convert_audio_s_per_s" not in summary["a2a_short"]["metrics"]


def test_medians_quartiles_ratio_and_verdicts():
    # ten seeds. peak_rss_mb: 7 % lower on every seed; wall_s: the same spread
    # on both sides; setup_s: 40 % slower, beyond its 25 % bound
    seeds = range(1, 11)
    runs = (_runs("convert_long", "parent",
                  [(s, 2.0, 1.5 + 0.1 * (s % 3), 145.5 + 0.1 * s) for s in seeds])
            + _runs("convert_long", "change",
                    [(s, 2.8, 1.5 + 0.1 * ((s + 1) % 3), 135.5 + 0.1 * s) for s in seeds]))
    summary = bench_pair.summarize(runs, END_TO_END)["convert_long"]
    assert summary["correct"] is True
    assert summary["parent_failed_runs"] == summary["change_failed_runs"] == 0
    assert summary["parent_error_rate"] == summary["change_error_rate"] == 0.0
    peak = summary["metrics"]["peak_rss_mb"]
    assert peak["parent"] == {"n": 10, "median": pytest.approx(146.05),
                              "q1": pytest.approx(145.825), "q3": pytest.approx(146.275),
                              "iqr": pytest.approx(0.45)}
    assert peak["change"]["median"] == pytest.approx(136.05)
    assert peak["ratio"] == pytest.approx(136.05 / 146.05)
    assert peak["bound"] == 0.1
    assert peak["verdict"] == "better"
    assert summary["metrics"]["wall_s"]["verdict"] == "within_bound"
    assert summary["metrics"]["setup_s"]["verdict"] == "worse"


def test_each_end_to_end_metric_reports_its_seed_pairs():
    # wall_s: the change is 0.9x the parent in seeds 1-3 and 1.2x in seed 4, so
    # it wins 3 of 4 pairs; seed 5 ran on the parent side only
    parent = [(s, 1.0, 2.0, 100.0) for s in range(1, 6)]
    change = [(s, 1.0, 1.8 if s < 4 else 2.4, 100.0) for s in range(1, 5)]
    runs = _runs("train", "parent", parent) + _runs("train", "change", change)
    metrics = bench_pair.summarize(runs, END_TO_END)["train"]["metrics"]
    wall = metrics["wall_s"]
    assert wall["pairs"] == 4 and wall["seeds_won"] == 3
    assert wall["seed_ratios"] == pytest.approx({1: 0.9, 2: 0.9, 3: 0.9, 4: 1.2})
    assert wall["median_seed_ratio"] == pytest.approx(0.9)
    # equal values are no win; the verdict does not read these figures
    assert metrics["peak_rss_mb"]["seeds_won"] == 0
    assert metrics["peak_rss_mb"]["median_seed_ratio"] == 1.0
    assert wall["verdict"] == bench_pair.verdict(
        {s: 2.0 for s in range(1, 6)}, {s: v for s, _, v, _ in change}, "lower", 0.25, True)
    # a higher-is-better metric wins where the change is higher
    assert bench_pair.paired({1: 10.0, 2: 10.0}, {1: 12.0, 2: 9.0}, "higher")["seeds_won"] == 1


def test_a_run_that_is_not_correct_makes_every_verdict_incorrect():
    runs = (_runs("a2a_short", "parent", [(1, 2.0, 3.0, 157.0), (2, 2.0, 3.1, 157.1)])
            + _runs("a2a_short", "change", [(1, 2.0, 3.0, 147.0, False, 2),
                                            (2, 2.0, 3.1, 147.1)]))
    summary = bench_pair.summarize(runs, END_TO_END)["a2a_short"]
    assert summary["correct"] is False
    assert (summary["parent_failed_runs"], summary["change_failed_runs"]) == (0, 1)
    assert summary["change_error_rate"] == pytest.approx(2 / 20)
    assert {m["verdict"] for m in summary["metrics"].values()} == {"incorrect"}


def test_a_run_that_printed_no_result_is_a_failed_run():
    runs = (_runs("train", "parent", [(1, 1.0, 2.0, 247.0)])
            + [{"workload": "train", "seed": 1, "side": "change", "result": None}])
    summary = bench_pair.summarize(runs, END_TO_END)["train"]
    assert summary["correct"] is False and summary["change_failed_runs"] == 1
    assert summary["change_error_rate"] is None
    assert summary["metrics"]["wall_s"]["change"] is None
    assert summary["metrics"]["wall_s"]["verdict"] == "incorrect"


@pytest.mark.parametrize("parent, change, expected", [
    # the parent's IQR (1.0 on a median of 2.0) exceeds the 25 % bound
    ({1: 1.5, 2: 2.0, 3: 2.5, 4: 3.0}, {1: 2.0, 2: 2.1, 3: 2.2, 4: 2.3}, "unresolved"),
    # ... unless every change run beats every parent run
    ({s: 1.0 + 0.2 * s for s in range(1, 11)}, {s: 1.0 + 0.01 * s for s in range(1, 11)},
     "better"),
    # winning every one of three pairs is too few pairs to show a gain
    ({1: 2.0, 2: 2.0, 3: 2.0}, {1: 1.0, 2: 1.0, 3: 1.0}, "within_bound"),
    # 20 % worse is inside a 25 % bound when the spread is narrow
    ({1: 2.0, 2: 2.0, 3: 2.1}, {1: 2.4, 2: 2.4, 3: 2.4}, "within_bound"),
    # a win on two of three pairs is not a gain
    ({1: 2.0, 2: 2.0, 3: 2.0}, {1: 1.0, 2: 1.0, 3: 2.5}, "within_bound"),
])
def test_verdict_rules(parent, change, expected):
    assert bench_pair.verdict(parent, change, "lower", 0.25, True) == expected


def test_the_default_seeds_can_show_a_gain():
    seeds = bench_pair.build_parser().parse_args(["HEAD", "--pr", "1"]).seeds
    assert seeds == list(range(1, bench_pair.MIN_PAIRS_FOR_GAIN + 1))
    assert bench_pair.verdict(dict.fromkeys(seeds, 2.0), dict.fromkeys(seeds, 1.0),
                              "lower", 0.25, True) == "better"


def test_higher_is_better_flips_the_direction():
    seeds = range(1, 11)
    assert bench_pair.verdict(dict.fromkeys(seeds, 10.0), dict.fromkeys(seeds, 12.0),
                              "higher", 0.1, True) == "better"
    assert bench_pair.verdict({1: 10.0, 2: 10.0}, {1: 8.0, 2: 8.0}, "higher", 0.1,
                              True) == "worse"


def _git(*args):
    return subprocess.run(["git", *args], cwd=_PATH.parents[1], capture_output=True,
                          text=True)


def test_the_parent_is_exported_without_a_worktree(tmp_path):
    top = _git("rev-parse", "--show-toplevel").stdout.strip() if shutil.which("git") else ""
    if not top or Path(top).resolve() != _PATH.parents[1]:
        pytest.skip("needs a git checkout of this tree")
    worktrees = _git("worktree", "list", "--porcelain").stdout
    bench_pair.export_tree("HEAD", tmp_path)
    assert (tmp_path / "perfbench" / "run.py").is_file()
    assert (tmp_path / "src" / "recsynvc" / "cli.py").is_file()
    assert not (tmp_path / ".git").exists()
    assert _git("worktree", "list", "--porcelain").stdout == worktrees
