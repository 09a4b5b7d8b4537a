"""End-to-end benchmark of recsynvc: train -> convert -> evaluate.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 27 --trace 0

Workloads are listed in ``BENCHMARK.json`` and ``workloads.WORKLOADS``;
``--workload all`` runs each in turn.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Lines before
it report every metric by name and unit, and the run record.  Work files go
to ``.perfbench_work/<workload>`` in the checkout.

The program under test is imported from ``src/`` of the same checkout; the
benchmark exits with status 2, printing no result, when it is absent.
"""

import os
import sys

# BLAS threads are pinned before numpy loads; the run record reports them.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; only the input generator sees it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recsynvc" / "__init__.py").is_file():
        print(f"error: no recsynvc sources under {SRC}", file=sys.stderr)
        return 2
    # the adapters' temp files stay inside the checkout too
    work = ROOT / ".perfbench_work"
    tempfile.tempdir = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import harness
    from workloads import DEFAULT, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; expected all or one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    for name in names:
        report = harness.run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      DEFAULT, root=ROOT, work=work / name)
        for failure in report["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
        print("\n".join(harness.format_report(report)))
        print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
