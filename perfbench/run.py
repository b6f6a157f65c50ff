"""The repository benchmark: one command, two workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sheet-recalc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
status is non-zero when any output disagreed with the from-scratch
reference, an audit found a violation, or an acknowledged write was
lost.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import OUT, Result, ensure_repro_importable
from metrics import END_TO_END, PER_LAYER, complete

WORKLOADS = ("sheet-recalc", "serve-failover")
DEFAULT_SEED = 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="minimal sizes (benchmark self-check)"
    )
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="perturb the reference's final grid (the self-check's negative case)",
    )
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> Result:
    if args.workload == "sheet-recalc":
        import sheet_recalc

        size = sheet_recalc.TINY if args.tiny else sheet_recalc.Size()
        if args.trace:
            return sheet_recalc.run_traced(args.seed, args.seconds, size)
        return sheet_recalc.run(args.seed, args.seconds, size, args.corrupt_reference)
    import serve_load

    shape = serve_load.shape_for(args.workload, tiny=args.tiny)
    if args.trace:
        return serve_load.run_traced(shape, args.seed, args.seconds)
    return serve_load.run(shape, args.seed, args.seconds, args.corrupt_reference)


def main(argv=None) -> int:
    args = parse_args(argv)
    ensure_repro_importable()
    started = time.perf_counter()
    result = run(args)
    result.problems += complete(result.metrics, traced=bool(args.trace))
    order = [name for name, _unit in (PER_LAYER if args.trace else END_TO_END)]
    notes = dict(result.notes, wall_s=round(time.perf_counter() - started, 3))
    for problem in result.problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, "notes": notes}, default=str))
    report = {
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
            for name in order
            if name in result.metrics
        },
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"last-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(report, notes=notes, problems=result.problems), fh, indent=1, default=str)
    print(json.dumps(report))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
