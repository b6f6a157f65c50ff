"""Self-check of the benchmark at tiny sizes.

Runs every workload end to end (untraced and traced) and checks that:

* the printed metric names and units match ``BENCHMARK.json``;
* the deterministic ``sheet-recalc`` counts repeat exactly across two
  traced runs of one seed;
* a perturbed reference grid (``--corrupt-reference``) makes every
  workload fail with a non-zero exit;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import List, Tuple

from common import ROOT, WORK
from metrics import END_TO_END, PER_LAYER
from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

#: Per-layer metrics that are counts over a fixed op stream on sheet-recalc.
DETERMINISTIC = (
    "core.executions_per_write",
    "core.edges_created_per_write",
    "core.order_shifts_per_write",
    "core.partition_finds_per_op",
    "core.cache_hit_ratio",
    "core.pycalls_per_write",
    "core.pycalls_per_read",
    "core.events_per_write",
    "obs.handler_calls_per_write",
)


def invoke(workload: str, trace: int, *extra: str, cwd: str = ROOT, run: str = RUN) -> Tuple[int, str]:
    argv = [sys.executable, run, "--workload", workload, "--seed", "7",
            "--seconds", "2", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def main() -> int:
    failures: List[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(e2e == END_TO_END, "BENCHMARK.json end_to_end matches the catalogue")
    expect(layers == PER_LAYER, "BENCHMARK.json per_layer matches the catalogue")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names match")

    counts = []
    for workload in WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layers)):
            code, out = invoke(workload, trace, "--tiny")
            report = last_json(out)
            printed = [(n, v["unit"]) for n, v in report.get("metrics", {}).items()]
            expect(code == 0 and report.get("correct") is True, f"{workload} trace={trace}: runs clean")
            expect(sorted(report) == ["attempted", "correct", "failed", "metrics"], f"{workload} trace={trace}: result keys")
            expect(printed == wanted, f"{workload} trace={trace}: metric names and units match BENCHMARK.json")
            if workload == "sheet-recalc" and trace == 1:
                counts.append({k: report["metrics"][k]["value"] for k in DETERMINISTIC})
        code, out = invoke(workload, 0, "--tiny", "--corrupt-reference")
        expect(code != 0 and last_json(out).get("correct") is False, f"{workload}: corrupted reference grid fails the run")

    code, out = invoke("sheet-recalc", 1, "--tiny")
    counts.append({k: last_json(out)["metrics"][k]["value"] for k in DETERMINISTIC})
    expect(counts[0] == counts[1], "sheet-recalc counts repeat exactly for one seed")

    bare = os.path.join(WORK, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out = invoke("sheet-recalc", 0, cwd=bare, run=os.path.join(bare, "perfbench", "run.py"))
    expect(code != 0 and not out.strip(), "without the program: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
