"""One benchmark run: set up, warm up, measure for a fixed time, check, report.

End-to-end metrics come from untraced passes.  With tracing on, untraced and
traced passes alternate, the per-layer metrics come from the traced ones, and
the difference of the two medians is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, Ops, Sizes, check_pass

N_SETUPS = 3
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better): every workload reports all of these with tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed and recorded per workload where the stage exists
STAGE_UNITS = {
    "train_frames_per_s.taco2_ar": "frames/s",
    "train_frames_per_s.simple_ar": "frames/s",
    "convert_audio_s_per_s": "s/s",
    "score_utts_per_s": "utts/s",
}


def load_reference(sizes: Sizes, workload: str, seed: int, path: Path = REFERENCE):
    """Outputs the seed code produced for this workload and seed, if recorded."""
    try:
        table = json.loads(path.read_text())
    except OSError:
        return None
    return table.get(sizes.name, {}).get(workload, {}).get(str(seed))


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
               root: Path) -> dict:
    return {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes.name,
        "load": "closed loop, one client, in-process CLI commands, convert --jobs 1",
        "commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get(BLAS_ENV[0]),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Run:
    """One run's workload, set-up outputs and the outputs of its first pass."""

    def __init__(self, workload, sizes, work: Path, ops: Ops, reference):
        self.w = workload
        self.sizes = sizes
        self.work = work
        self.ops = ops
        self.reference = reference
        self.state = None
        self.first = None
        self._last_out = None

    def setup(self, seed: int) -> list[float]:
        times = []
        for k in range(N_SETUPS):
            d = self.work / f"setup{k}"
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            self.state = self.w.setup(d, seed, self.sizes, self.ops)
            times.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(self.work / f"setup{k - 1}")
        return times

    def one_pass(self, label: str, tracer=None):
        if self._last_out is not None:  # keep the disk small: only the last pass stays
            shutil.rmtree(self._last_out)
        out = self.work / f"pass_{label}"
        out.mkdir()
        if self.w.prepare is not None:
            self.w.prepare(self.state, out)
        if tracer is not None:
            tracer.install(tracing.PATCHES)
        try:
            result = self.w.run_pass(self.state, out, self.sizes, self.ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        observed = self.w.observe(self.state, result, self.sizes, self.ops)
        check_pass(self.w.name, observed, self.reference, self.first, self.ops)
        if self.first is None:
            self.first = observed
        self._last_out = out
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 root: Path, work: Path, reference_path: Path = REFERENCE) -> dict:
    """Run one workload and return the result line plus the report."""
    workload = WORKLOADS[name]
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ops = Ops()
    run = _Run(workload, sizes, work, ops, load_reference(sizes, name, seed, reference_path))
    setup_times = run.setup(seed)

    t0 = time.perf_counter()
    run.one_pass("warmup")
    steps = [time.perf_counter() - t0]  # pass plus its checks
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    t_start = time.perf_counter()
    # start a pass only while it is expected to end within the measured region
    while (time.perf_counter() - t_start + statistics.median(steps) <= seconds
           or not plain or (trace and not traced)):
        t0 = time.perf_counter()
        use_tracer = tracer if trace and len(plain) > len(traced) else None
        result = run.one_pass(str(len(steps)), use_tracer)
        (traced if use_tracer else plain).append(result)
        steps.append(time.perf_counter() - t0)

    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall for r in plain),
        "peak_rss_mb": _peak_rss_mb(),
    }
    stages = {}
    for r in plain:
        for key, value in workload.stage_metrics(run.state, r, sizes).items():
            stages.setdefault(key, []).append(value)
    stages = {key: statistics.median(values) for key, values in stages.items()}

    record = run_record(name, seed, seconds, trace, sizes, root)
    record.update(passes=len(plain), traced_passes=len(traced),
                  setup_s_each=setup_times, pass_wall_s=[r.wall for r in plain],
                  reference="recorded" if run.reference is not None else "none for this seed",
                  observed=run.first)
    if trace:
        layers = tracing.per_layer_metrics(tracer.spans, len(traced))
        layers["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced) - e2e["wall_s"], "s")
        layers["trace.spans"] = (len(tracer.spans) / len(traced), "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["unpatched"] = sorted(set(tracer.missing))
        tracer.dump(work / "spans.jsonl")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}

    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    report = {
        "record": record,
        "end_to_end": e2e,
        "stages": stages,
        "error_rate": ops.failed / ops.attempted,
        "failures": ops.failures,
        "result": result,
    }
    (work / "run.json").write_text(json.dumps(report, indent=1, default=str))
    return report


def format_report(report: dict) -> list[str]:
    """Human-readable lines: each metric by name, value and unit."""
    rec = report["record"]
    lines = [f"workload {rec['workload']} (seed {rec['seed']}): {rec['why']}",
             "run_record " + json.dumps({k: v for k, v in rec.items() if k != "observed"},
                                        default=str)]
    rows = [(k, v, END_TO_END[k][0]) for k, v in report["end_to_end"].items()]
    rows += [(k, v, STAGE_UNITS[k]) for k, v in report["stages"].items()]
    rows.append(("error_rate", report["error_rate"], "failed/attempted"))
    if rec["trace"]:
        rows += [(k, m["value"], m["unit"]) for k, m in report["result"]["metrics"].items()]
    lines += [f"  {k:<52} {v:>14.6g} {u}" for k, v, u in rows]
    return lines
