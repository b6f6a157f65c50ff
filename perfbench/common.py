"""Shared pieces: the run's result, percentiles, paths."""

from __future__ import annotations

import os
import resource
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch state (server roots) and artefacts (span dumps, reports).
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")


def ensure_repro_importable() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit non-zero
    when the program under test is not there."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure ({SRC}/repro is missing)", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@dataclass
class Result:
    """What one run reports: metrics plus correctness accounting."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Context printed beside the metrics (not part of the contract).
    notes: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0..100); 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(result: Result, writes: List[float], reads: List[float]) -> None:
    """p50/p95 of write and read latencies (ms).  p95 is the highest
    percentile every workload has at least ten samples beyond."""
    for kind, ms in (("write", writes), ("read", reads)):
        result.put(f"{kind}_p50_ms", percentile(ms, 50), "ms")
        result.put(f"{kind}_p95_ms", percentile(ms, 95), "ms")
        result.notes[f"{kind}_samples"] = len(ms)


def grid_mismatches(label: str, got: Any, want: List[List[int]], result: Result) -> int:
    """Compare a served/computed grid against the reference.  A grid
    that differs anywhere is one failed operation; returns the number
    of differing cells."""
    if not isinstance(got, list) or len(got) != len(want):
        result.fail(f"{label}: grid shape differs from the reference")
        return len(want) * len(want[0])
    diffs = [
        (r, c, a, b)
        for r, (row_got, row_want) in enumerate(zip(got, want))
        for c, (a, b) in enumerate(zip(row_got, row_want))
        if a != b
    ]
    if diffs:
        r, c, a, b = diffs[0]
        result.fail(f"{label}: {len(diffs)} cells differ, first R{r}C{c} got {a!r}, reference {b!r}")
    return len(diffs)
