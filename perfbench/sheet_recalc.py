"""``sheet-recalc``: one process, one Runtime, the Spreadsheet library API.

No server, no persistence, no recorders.  Each timed edit rewrites a
random cell and then refreshes a 6x6 viewport; four timed point reads
follow each edit.  A run is a series of editing sessions of
``Size.session_edits`` edits, each on a fresh build of the sheet (a
``setup_s`` sample) and each ended by a rebuild of the sheet from its
current formulas in a new runtime (a ``failover_s`` sample), until the
measured time is used up.  Every viewport value, every read, every
rebuild and every session's final grid are checked against the
from-scratch reference afterwards.
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import pstats
import statistics
import time
from dataclasses import dataclass
from typing import Any, List, Tuple

from common import OUT, Result, grid_mismatches, latency_metrics, own_peak_rss_mb
from gen import SheetOps
from refsheet import RefSheet

READS_PER_EDIT = 4


@dataclass
class Size:
    rows: int = 30
    cols: int = 30
    #: Edits in each deterministic count pass (core counts, Python calls).
    count_edits: int = 100
    #: Edits per editing session.  The runtime's per-edit cost grows
    #: with the length of a session, so a run of fixed-length sessions
    #: measures the same thing however many edits fit in it.
    session_edits: int = 300


TINY = Size(rows=10, cols=10, count_edits=10, session_edits=20)


def build(seed: Any, size: Size) -> Tuple[Any, Any]:
    """A fresh runtime holding the seed's sheet, fully evaluated."""
    from repro.core import Runtime
    from repro.spreadsheet import Spreadsheet

    rt = Runtime()
    with rt.active():
        sheet = Spreadsheet(size.rows, size.cols)
        for r, c, formula in SheetOps(seed, size.rows, size.cols).initial:
            sheet.set_formula(r, c, formula)
        sheet.values()
    return rt, sheet


class Log:
    """What a timed loop did, for latency statistics and checking."""

    def __init__(self) -> None:
        self.edits: List[Tuple[int, int, Any, int, int, List[List[Any]]]] = []
        self.reads: List[Tuple[int, int, int, Any]] = []  # (after edit #, r, c, value)
        #: The closing rebuild: (r, c, formula, value read back, seconds).
        self.rebuild: Tuple[int, int, Any, Any, float] = (0, 0, 0, None, 0.0)
        self.write_s: List[float] = []
        self.read_s: List[float] = []
        #: Wall time spent inside :func:`drive`.
        self.elapsed = 0.0

    @property
    def ops(self) -> int:
        return len(self.edits) + len(self.reads)


def drive(sheet: Any, ops: SheetOps, log: Log, *, deadline: float = math.inf, edits: float = math.inf, tracer: Any = None) -> None:
    """Edit + viewport refresh, then point reads, until ``deadline`` or
    until the log holds ``edits`` edits."""
    clock = time.perf_counter
    view = SheetOps.VIEWPORT
    started = clock()
    while len(log.edits) < edits and clock() < deadline:
        r, c, formula, vr, vc = ops.edit()
        t0 = clock()
        if tracer is not None:
            with tracer.root("bench.edit"):
                sheet.set_formula(r, c, formula)
                shown = [[sheet.value(vr + i, vc + j) for j in range(view)] for i in range(view)]
        else:
            sheet.set_formula(r, c, formula)
            shown = [[sheet.value(vr + i, vc + j) for j in range(view)] for i in range(view)]
        t1 = clock()
        log.write_s.append(t1 - t0)
        log.edits.append((r, c, formula, vr, vc, shown))
        for _ in range(READS_PER_EDIT):
            rr, rc = ops.read()
            t0 = clock()
            if tracer is not None:
                with tracer.root("bench.read"):
                    value = sheet.value(rr, rc)
            else:
                value = sheet.value(rr, rc)
            t1 = clock()
            log.read_s.append(t1 - t0)
            log.reads.append((len(log.edits), rr, rc, value))
    log.elapsed += clock() - started


def check(seed: Any, size: Size, log: Log, final: List[List[Any]], result: Result, corrupt: bool) -> None:
    """Replay the log on the reference; every viewport, read, rebuild
    and the final grid must match."""
    ref = RefSheet(size.rows, size.cols)
    for r, c, formula in SheetOps(seed, size.rows, size.cols).initial:
        ref.set(r, c, formula)
    sources = {(r, c): formula for r, c, formula in SheetOps(seed, size.rows, size.cols).initial}
    reads = iter(log.reads)
    pending = next(reads, None)
    view = SheetOps.VIEWPORT
    for index, (r, c, formula, vr, vc, shown) in enumerate(log.edits, start=1):
        ref.set(r, c, formula)
        sources[(r, c)] = formula
        want = ref.values()
        expected_view = [[want[vr + i][vc + j] for j in range(view)] for i in range(view)]
        if shown != expected_view:
            result.fail(f"edit {index}: viewport R{vr}C{vc} differs from the reference")
        while pending is not None and pending[0] == index:
            _, rr, rc, value = pending
            if value != want[rr][rc]:
                result.fail(f"read R{rr}C{rc} after edit {index}: got {value!r}, reference {want[rr][rc]!r}")
            pending = next(reads, None)
    rr, rc, extra, value, _seconds = log.rebuild
    rebuilt = RefSheet(size.rows, size.cols)
    for (sr, sc), source in sources.items():
        rebuilt.set(sr, sc, source)
    rebuilt.set(rr, rc, extra)
    if value != rebuilt.values()[rr][rc]:
        result.fail(f"session {seed}: rebuilt sheet R{rr}C{rc} got {value!r}")
    want = ref.values()
    if corrupt:
        want[0][0] += 1
    grid_mismatches(f"session {seed}: final grid", final, want, result)


def rebuild(size: Size, sources: dict, ops: SheetOps) -> Tuple[int, int, Any, Any, float]:
    """One ``failover_s`` sample for a library user: the runtime is lost,
    so a new one is built from the current formulas and evaluated, and
    one more edit is applied and read back."""
    from repro.core import Runtime
    from repro.spreadsheet import Spreadsheet

    gc.collect()
    started = time.perf_counter()
    rt = Runtime()
    with rt.active():
        sheet = Spreadsheet(size.rows, size.cols)
        for (r, c), formula in sources.items():
            sheet.set_formula(r, c, formula)
        sheet.values()
        r, c, formula, _vr, _vc = ops.edit()
        sheet.set_formula(r, c, formula)
        value = sheet.value(r, c)
    elapsed = time.perf_counter() - started
    rt.close()
    return r, c, formula, value, elapsed


def run(seed: int, seconds: float, size: Size, corrupt: bool = False) -> Result:
    """Editing sessions on fresh builds until ``seconds`` are used up;
    session ``k`` of the seed draws its edits from ``"<seed>:<k>"``."""
    result = Result()
    setups: List[float] = []
    sessions: List[Tuple[str, Log, List[List[Any]]]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        key = f"{seed}:{len(sessions)}"
        gc.collect()
        started = time.perf_counter()
        rt, sheet = build(key, size)
        setups.append(time.perf_counter() - started)
        ops = SheetOps(key, size.rows, size.cols)
        log = Log()
        with rt.active():
            drive(sheet, ops, log, deadline=deadline, edits=size.session_edits)
            final = sheet.values()
        rt.close()
        del rt, sheet
        sources = {(r, c): formula for r, c, formula in ops.initial}
        for r, c, formula, *_ in log.edits:
            sources[(r, c)] = formula
        log.rebuild = rebuild(size, sources, SheetOps(f"{key}/rebuild", size.rows, size.cols))
        sessions.append((key, log, final))

    logs = [log for _key, log, _final in sessions]
    result.attempted += sum(log.ops + 1 for log in logs)
    writes = [t * 1000.0 for log in logs for t in log.write_s]
    reads = [t * 1000.0 for log in logs for t in log.read_s]
    result.put("setup_s", statistics.median(setups), "s")
    result.put("peak_rss_mb", own_peak_rss_mb(), "MiB")
    latency_metrics(result, writes, reads)
    result.put("ops_per_s", (len(writes) + len(reads)) / (sum(writes) + sum(reads)) * 1000.0, "ops/s")
    result.put("failover_s", statistics.median(log.rebuild[-1] for log in logs), "s")
    result.notes["sessions"] = len(sessions)
    for key, log, final in sessions:
        check(key, size, log, final, result, corrupt)
    result.put("ok_frac", 1.0 - result.failed / max(1, result.attempted), "ratio")
    return result


# -- traced run -------------------------------------------------------------


def count_pass(seed: int, size: Size) -> dict:
    """Deterministic per-write core counts over a fixed edit stream."""
    from layers import CoreTally

    rt, sheet = build(seed, size)
    ops = SheetOps(seed, size.rows, size.cols)
    tally = CoreTally()
    tally.watch(rt)
    with rt.active():
        for _ in range(size.count_edits):
            r, c, formula, vr, vc = ops.edit()
            sheet.set_formula(r, c, formula)
            for i in range(SheetOps.VIEWPORT):
                for j in range(SheetOps.VIEWPORT):
                    sheet.value(vr + i, vc + j)
            for _ in range(READS_PER_EDIT):
                sheet.value(*ops.read())
    tally.harvest(rt)
    rt.close()
    edits = size.count_edits
    return tally.metrics(writes=edits, ops=edits * (1 + READS_PER_EDIT))


def pycalls_pass(seed: int, size: Size) -> Tuple[float, float]:
    """cProfile ``total_calls`` per write (edit + viewport) and per read."""
    rt, sheet = build(seed, size)
    ops = SheetOps(seed, size.rows, size.cols)
    on_write, on_read = cProfile.Profile(), cProfile.Profile()
    view = SheetOps.VIEWPORT
    with rt.active():
        for _ in range(size.count_edits):
            r, c, formula, vr, vc = ops.edit()
            on_write.enable()
            sheet.set_formula(r, c, formula)
            for i in range(view):
                for j in range(view):
                    sheet.value(vr + i, vc + j)
            on_write.disable()
            for _ in range(READS_PER_EDIT):
                rr, rc = ops.read()
                on_read.enable()
                sheet.value(rr, rc)
                on_read.disable()
    rt.close()
    writes = pstats.Stats(on_write).total_calls / size.count_edits
    reads = pstats.Stats(on_read).total_calls / (size.count_edits * READS_PER_EDIT)
    return writes, reads


def run_traced(seed: int, seconds: float, size: Size) -> Result:
    from tracing import Tracer
    from layers import install_core

    result = Result()
    for name, value in count_pass(seed, size).items():
        result.put(name, value, "ratio" if name.endswith("ratio") else "count")
    writes, reads = pycalls_pass(seed, size)
    result.put("core.pycalls_per_write", writes, "count")
    result.put("core.pycalls_per_read", reads, "count")

    # The same op stream from the same start, untraced then traced.
    rates = []
    tracer = Tracer()
    for traced in (False, True):
        rt, sheet = build(seed, size)
        ops = SheetOps(seed, size.rows, size.cols)
        log = Log()
        if traced:
            install_core(tracer)
        try:
            with rt.active():
                drive(sheet, ops, log, deadline=time.perf_counter() + seconds / 2, tracer=tracer if traced else None)
        finally:
            tracer.unpatch()
        rt.close()
        rates.append(log.ops / log.elapsed)
        result.attempted += log.ops
        if traced:
            final_log = log
    summary = tracer.analyse()
    result.put("core.exec_self_ms", summary.mean_ms("core.execute_node", own=True), "ms")
    result.put("spreadsheet.set_formula_self_ms", summary.mean_ms("spreadsheet.set_formula", own=True), "ms")
    result.put("spreadsheet.value_self_ms", summary.mean_ms("spreadsheet.value", own=True), "ms")
    trace_metrics(result, summary, rates[1] / rates[0])
    result.notes["traced_edits"] = len(final_log.edits)
    tracer.dump(os.path.join(OUT, f"spans-sheet-recalc-{seed}.jsonl"))
    return result


def trace_metrics(result: Result, summary: Any, overhead: float) -> None:
    """Tracing overhead and coverage, and the self-time consistency check."""
    result.put("trace.ops_ratio", overhead, "ratio")
    if summary.root_time > 0:
        coverage = 1.0 - summary.root_self / summary.root_time
        self_sum = summary.traced_self_sum / summary.root_time
    else:
        coverage = self_sum = 0.0
    result.put("trace.layer_coverage", coverage, "ratio")
    result.put("trace.self_sum_ratio", self_sum, "ratio")
    if abs(self_sum - 1.0) > 0.03:
        result.fail(f"span self times sum to {self_sum:.3f} of the traced end-to-end time")
