#!/usr/bin/env python3
"""Benchmark this checkout against a parent commit with the unedited perfbench.

Usage: python3 tools/bench_pair.py PARENT_REV --pr N
           [--workloads train,convert_long,a2a_short] [--seeds 1,2,3] [--seconds 27]

The parent is checked out with `git worktree add` under `.perfbench_work/`;
the change is this checkout's working tree. For each workload and seed, each
side runs `python3 perfbench/run.py --workload W --seed S --seconds X
--trace 0` once, in a process of its own, and the side that runs first
alternates from one pair to the next. The worktree is removed at the end,
also when a run fails or the tool is interrupted.

`BENCH_<N>.json` at the root of the checkout holds every run (its metrics,
`correct`, `attempted` and `failed`, and its run record); per workload and
metric, each side's median, quartiles and IQR and the change/parent ratio of
the medians; and each end-to-end metric's verdict against its bound in
`BENCHMARK.json`, together with the seeds, both commit ids and nproc.
Each end-to-end metric also gets the seeds run on both sides, each seed's
change/parent ratio (`seed_ratios`), their median (`median_seed_ratio`) and
the number of seeds in which the change was better (`seeds_won`). The stage
metrics each run prints (`train_frames_per_s.*`, `convert_audio_s_per_s`,
`score_utts_per_s`; higher is faster) get each side's median, quartiles and
IQR and the change/parent ratio of the medians, under `stages`. These inform
the reader and do not enter the verdict. A verdict is one of:

- `incorrect`: a run of either side failed, or reported a failed operation;
- `worse`: the change's median is worse than the parent's by more than the bound;
- `better`: at least `MIN_PAIRS_FOR_GAIN` (10) seed pairs were run, the
  change is better in at least nine tenths of them, and its median by more
  than the IQR of the parent's runs;
- `unresolved`: the parent's IQR exceeds the bound (as a share of its median),
  and not every run of the change is better than every run of the parent;
- `within_bound`: otherwise.

On a shared 2-vCPU VM the spread of a metric lies between processes more than
between the passes of one process, so more seeds narrow a verdict where a
longer `--seconds` does not.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKTREE = ROOT / ".perfbench_work" / "bench_pair_parent"
SIDES = ("parent", "change")
STAGES = ("train_frames_per_s.", "convert_audio_s_per_s", "score_utts_per_s")  # name prefixes
MIN_PAIRS_FOR_GAIN = 10  # fewer pairs than this cannot show a gain


def parse_run_output(stdout: str) -> tuple[dict | None, dict | None]:
    """(result, run record) printed by one ``perfbench/run.py`` run; None for either missing.

    The result is the JSON object on the last line; the record is the JSON
    after ``run_record`` on an earlier line.
    """
    lines = [line.strip() for line in stdout.splitlines() if line.strip()]
    result = record = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    for line in lines:
        if line.startswith("run_record "):
            try:
                record = json.loads(line[len("run_record "):])
            except ValueError:
                pass
    return (result if isinstance(result, dict) else None), record


def parse_stage_lines(stdout: str) -> dict[str, float]:
    """Stage metric -> value, from the ``  <name> <value> <unit>`` lines of one run."""
    stages = {}
    for fields in map(str.split, stdout.splitlines()):
        if len(fields) == 3 and fields[0].startswith(STAGES):
            try:
                stages[fields[0]] = float(fields[1])
            except ValueError:
                pass
    return stages


def _run_ok(run: dict) -> bool:
    result = run.get("result")
    return bool(result) and result.get("correct") is True and result.get("failed") == 0


def _values(runs: list[dict], metric: str) -> dict[int, float]:
    """seed -> value of ``metric`` over the runs that report it."""
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs
            if r.get("result") and metric in r["result"].get("metrics", {})}


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _sides(values: dict[str, list[float]]) -> dict:
    """Each side's spread of ``values`` (None for a side without any), and their ratio."""
    row = {side: _spread(values[side]) if values[side] else None for side in SIDES}
    if row["parent"] and row["change"] and row["parent"]["median"]:
        row["ratio"] = row["change"]["median"] / row["parent"]["median"]
    return row


def verdict(parent: dict[int, float], change: dict[int, float], better: str,
            bound: float, correct: bool) -> str:
    """Verdict of one end-to-end metric from seed -> value of each side (see the module doc)."""
    if not correct or not parent or not change:
        return "incorrect"
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: a is worse than b
    p, c = _spread(list(parent.values())), _spread(list(change.values()))
    if sign * (c["median"] - p["median"]) > bound * abs(p["median"]):
        return "worse"
    pairs = parent.keys() & change.keys()
    wins = _wins(parent, change, sign)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs)
            and sign * (p["median"] - c["median"]) > p["iqr"]):
        return "better"
    all_better = max(sign * v for v in change.values()) < min(sign * v for v in parent.values())
    if p["iqr"] > bound * abs(p["median"]) and not all_better:
        return "unresolved"
    return "within_bound"


def _wins(parent: dict[int, float], change: dict[int, float], sign: float) -> int:
    """Seeds run on both sides in which the change was better."""
    return sum(sign * (parent[s] - change[s]) > 0 for s in parent.keys() & change.keys())


def paired(parent: dict[int, float], change: dict[int, float], better: str) -> dict:
    """Seed by seed: the pairs, each change/parent ratio, their median, and the change's wins."""
    pairs = sorted(parent.keys() & change.keys())
    ratios = {s: change[s] / parent[s] for s in pairs if parent[s]}
    return {"pairs": len(pairs), "seed_ratios": ratios,
            "median_seed_ratio": statistics.median(ratios.values()) if ratios else None,
            "seeds_won": _wins(parent, change, 1.0 if better == "lower" else -1.0)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: correctness, failure shares, and per metric each side's spread.

    ``runs`` holds ``{"workload", "seed", "side", "result"}`` entries, where
    ``result`` is a run's parsed result line or None; ``end_to_end`` is the
    ``end_to_end`` list of ``BENCHMARK.json``.  Each end-to-end metric also
    gets its bound and verdict, and the seed-by-seed figures of ``paired``.
    The stage metrics of runs that hold ``"stages"`` get their spreads only.
    """
    bounds = {m["name"]: m for m in end_to_end}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
                for side in SIDES}
        correct = all(_run_ok(r) for side in SIDES for r in mine[side])
        entry = {"correct": correct, "metrics": {}}
        for side in SIDES:
            attempted = sum((r["result"] or {}).get("attempted", 0) for r in mine[side])
            failed = sum((r["result"] or {}).get("failed", 0) for r in mine[side])
            entry[f"{side}_failed_runs"] = sum(not _run_ok(r) for r in mine[side])
            entry[f"{side}_error_rate"] = failed / attempted if attempted else None
        names = dict.fromkeys(name for side in SIDES for r in mine[side] if r.get("result")
                              for name in r["result"].get("metrics", {}))
        for name in names:
            values = {side: _values(mine[side], name) for side in SIDES}
            row = _sides({side: list(values[side].values()) for side in SIDES})
            if name in bounds:
                row["bound"] = bounds[name]["bound"]
                row["verdict"] = verdict(values["parent"], values["change"],
                                         bounds[name]["better"], bounds[name]["bound"], correct)
                row.update(paired(values["parent"], values["change"], bounds[name]["better"]))
            entry["metrics"][name] = row
        stages = dict.fromkeys(name for side in SIDES for r in mine[side]
                               for name in r.get("stages", {}))
        entry["stages"] = {name: _sides({side: [r["stages"][name] for r in mine[side]
                                                if name in r.get("stages", {})]
                                         for side in SIDES})
                           for name in stages}
        summary[workload] = entry
    return summary


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _remove_worktree() -> None:
    subprocess.run(["git", "worktree", "remove", "--force", str(WORKTREE)], cwd=ROOT,
                   capture_output=True)
    shutil.rmtree(WORKTREE, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def _run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=600 + 20 * seconds)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "result": None, "record": None}
    result, record = parse_run_output(proc.stdout)
    run = {"exit": proc.returncode, "result": result, "record": record,
           "stages": parse_stage_lines(proc.stdout)}
    if proc.returncode != 0 or result is None:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<N>.json")
    parser.add_argument("--workloads", type=lambda text: text.split(","),
                        default="train,convert_long,a2a_short")
    parser.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")],
                        default="1,2,3")
    parser.add_argument("--seconds", type=float, default=27.0)
    args = parser.parse_args(argv)
    workloads, seeds = args.workloads, args.seeds
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    parent = _git("rev-parse", "--verify", f"{args.parent_rev}^{{commit}}")
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain"))
    runs = []
    _remove_worktree()  # a worktree left by an interrupted run
    try:
        _git("worktree", "add", "--detach", str(WORKTREE), parent)
        trees = {"parent": WORKTREE, "change": ROOT}
        for pair, (workload, seed) in enumerate(itertools.product(workloads, seeds)):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = _run_one(trees[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": side == order[0], **run})
                print(f"{workload} seed {seed} {side}: {json.dumps(run['result'])}",
                      file=sys.stderr, flush=True)
    finally:
        _remove_worktree()

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "pr": args.pr,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent": {"rev": args.parent_rev, "commit": parent},
        "change": {"head": head, "uncommitted_changes": dirty},
        "nproc": len(os.sched_getaffinity(0)),
        "workloads": workloads,
        "seeds": seeds,
        "seconds": args.seconds,
        "summary": summarize(runs, benchmark["end_to_end"]),
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
