"""Record the reference outputs that the benchmark's output checks compare with.

    python3 perfbench/record_reference.py --seeds 0-31 [--workload NAME ...]

Runs one untraced pass of each workload per seed at the default sizes and
merges what it observed (losses, checkpoint norms, MCD, WER, ASV, threshold)
into ``perfbench/reference.json``.  Run it on the commit whose outputs are
the reference; a change that alters outputs on purpose re-records them.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path[:0] = [str(run.SRC)]

import harness  # noqa: E402
from workloads import DEFAULT, WORKLOADS, Ops  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def observe_once(name: str, seed: int, work: Path) -> dict:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ops = Ops()
    workload = WORKLOADS[name]
    state = workload.setup(work / "setup", seed, DEFAULT, ops)
    out = work / "pass"
    out.mkdir()
    if workload.prepare is not None:
        workload.prepare(state, out)
    result = workload.run_pass(state, out, DEFAULT, ops)
    observed = workload.observe(state, result, DEFAULT, ops)
    if ops.failed:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(ops.failures))
    return observed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,9")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    path = harness.REFERENCE
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or list(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            observed = observe_once(name, seed, run.ROOT / ".perfbench_work" / f"reference-{name}")
            table.setdefault(DEFAULT.name, {}).setdefault(name, {})[str(seed)] = observed
            print(f"{name} seed {seed}: {json.dumps(observed)}", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
