#!/usr/bin/env python3
"""phytolab benchmark: four closed-loop workloads, one process, one thread.

    python3 bench/run.py --workload bench_loop --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
main phase repeats the workload's unit of work (loop episode, sweep batch or
store episode) until --seconds have passed, finishing the unit in progress.
Every end-to-end metric is printed for every workload: the ones the main
phase does not produce come from fixed-size reference units of the other
kinds, spread through the same seconds (see bench/README.md).  With
--trace 1 the main phase alternates untraced and traced units and the
per-layer metrics are printed instead; the spans are written to
.bench_trace/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs are checked on every unit; a failed
check or an actuator dispatch error counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
TRACEDIR = ROOT / ".bench_trace"

WORKLOADS = ("bench_loop", "closed_loop", "store_io", "fra_sweep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "phytolab" / "__init__.py").is_file():
        print(f"error: no phytolab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phytolab

    if Path(phytolab.__file__).resolve().parent != SRC / "phytolab":
        print(f"error: imported phytolab from {phytolab.__file__}", file=sys.stderr)
        return 2

    from session import END_TO_END, PER_LAYER, Session

    session = Session(args.workload, args.seed, WORKDIR)
    try:
        if args.trace:
            session.run_traced(args.seconds)
            metrics, units = session.per_layer(), PER_LAYER
            session.tracer.write(TRACEDIR / f"{args.workload}-seed{args.seed}.csv")
        else:
            session.run(args.seconds)
            metrics, units = session.end_to_end(), END_TO_END
    finally:
        session.cleanup()
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    for line in session.report_lines(metrics, units):
        print(line)
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
