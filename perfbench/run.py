"""Prequential replay benchmark for wfpredict.

    python3 perfbench/run.py --workload ts-online-curved --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; wfpredict is imported from `src/`.
A run generates its corpus from `--seed` with wfpredict's own generator,
checks on a short prefix that the timed loops reproduce `run_online` or
`run_batch_offline` bit for bit, then runs whole passes of the workload, each
in fresh worker processes (`replay.py`). The pass count follows from
`--seconds` and the workload alone, so two commits do the same work; every
pass replays the same input from empty state. Timings are scaled to a
reference host speed measured by a fixed probe between loop steps, and each
call's time is its best over the passes.

With `--trace 0` the last line of stdout carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of traced passes, which alternate
with untraced ones to measure the tracing overhead. The lines before it are a
readable report. A failed output check prints `"correct": false` and exits 1;
a checkout without wfpredict's sources exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Prequential replay benchmark for wfpredict.")
    p.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=None,
                   help="corpus seed (default: the standard corpus seed)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "wfpredict" / "__init__.py").is_file():
        print(f"perfbench: no wfpredict sources under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM unwind like an interrupt: the running worker is killed and
    # waited for, and the run's work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))  # the checkout's sources, ahead of any installed copy
    import bench
    from wfpredict.evaluation import STANDARD_SEED

    if args.workload not in bench.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    seed = STANDARD_SEED if args.seed is None else args.seed
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        report = bench.run(args.workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.print_report(report)
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
