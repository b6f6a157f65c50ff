"""``serve-failover``: a primary server and its warm standby under TCP load.

The primary server and a warm standby it ships to run in processes of
their own (:mod:`serve_child`); this process generates the load over at
most ``nproc`` pipelined connections.  Each session is pinned to one
connection, and the server answers a connection's requests in order,
so every session's writes apply in the order they were sent.  That
gives an exact ledger: the served edit log must equal the acknowledged
writes, every read must equal the reference evaluated at the read's
place in that order, and every final grid must equal the reference.

Each of ``ROUNDS`` rounds boots a fresh deployment and runs a
fixed-rate open loop (latency, timed from each request's due time),
then a closed loop (``ops_per_s``), then the crash: once the standby holds every
acknowledged write, SIGKILL the primary, promote the standby over the
wire and send it one more write (``failover_s`` runs from the kill to
that write's acknowledgement).  Every round draws its own requests,
and the metrics pool the samples of all rounds, less each phase's
warm-up.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from common import (
    OUT,
    WORK,
    Result,
    grid_mismatches,
    latency_metrics,
    percentile,
)
from gen import SessionPicker, open_loop_schedule, serve_request, serve_formula
from refsheet import RefSheet
from serve_child import REPLICATION_MODE

#: The open loop is invalid when its generator sent later than this at p99.
LATENESS_BOUND_MS = 50.0
#: Share of ``--seconds`` spent in the open loop; the closed loop gets the rest.
OPEN_SHARE = 0.8
#: Rounds per run (each boots one deployment and crashes it once).
ROUNDS = 6
#: Share of each phase at its start that is sent and checked but not
#: measured: the first requests after a boot or a phase change pay for
#: cold caches.
WARMUP_SHARE = 0.1
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_child.py")


@dataclass
class Shape:
    """The serve workload's sizes."""

    name: str
    sessions: int
    max_live: int
    #: Zipf exponent of session popularity (0 = uniform).
    skew: float
    #: Open-loop offered rate, requests per second.
    rate: float
    rows: int = 8
    cols: int = 8
    workers: int = 2
    #: Outstanding requests per connection in the closed loop.
    window: int = 4

    @property
    def sids(self) -> List[str]:
        return [f"s{i}" for i in range(self.sessions)]


def shape_for(workload: str, tiny: bool = False) -> Shape:
    if tiny:
        return Shape(workload, sessions=4, max_live=2, skew=1.5, rate=40.0, rows=4, cols=4)
    return Shape(workload, sessions=12, max_live=6, skew=1.5, rate=50.0)


def connections() -> int:
    return max(1, min(4, len(os.sched_getaffinity(0))))


# -- client ------------------------------------------------------------------


class Entry:
    """One request on the wire."""

    __slots__ = ("request", "sid", "due", "sent", "done", "response", "k", "slot", "future", "trace")

    def __init__(self, request: Dict[str, Any], due: float) -> None:
        self.request = request
        self.sid = request.get("session")
        self.due = due
        self.sent = self.done = 0.0
        self.response: Optional[Dict[str, Any]] = None
        self.k = 0  # writes sent to this session before this request
        self.slot: Optional[asyncio.Semaphore] = None
        self.future: Optional[asyncio.Future] = None
        self.trace = 0

    @property
    def ok(self) -> bool:
        return bool(self.response and self.response.get("ok"))

    @property
    def is_write(self) -> bool:
        return self.request.get("op") in ("write", "batch")


class Ledger:
    """Every write and read sent to each session, in send order."""

    def __init__(self, sids: List[str]) -> None:
        self.writes: Dict[str, List[Entry]] = {sid: [] for sid in sids}
        self.reads: Dict[str, List[Entry]] = {sid: [] for sid in sids}

    def record(self, entry: Entry) -> None:
        op = entry.request.get("op")
        if op in ("write", "batch"):
            self.writes[entry.sid].append(entry)
        elif op == "read":
            entry.k = len(self.writes[entry.sid])
            self.reads[entry.sid].append(entry)


class Client:
    """Pipelined newline-JSON connections; session ``i`` rides
    connection ``i % n``."""

    def __init__(self, port: int, shape: Shape, ledger: Ledger, nconn: int, tracer: Any = None, roots: Any = None) -> None:
        self.port = port
        self.shape = shape
        self.ledger = ledger
        self.nconn = nconn
        self.tracer = tracer
        self.roots = roots
        self._pin = {sid: i % nconn for i, sid in enumerate(shape.sids)}
        self._conns: List[Any] = []
        self._tasks: List[asyncio.Task] = []
        self._pending: List[deque] = []

    async def open(self) -> "Client":
        for _ in range(self.nconn):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port, limit=1 << 22)
            pending: deque = deque()
            self._conns.append(writer)
            self._pending.append(pending)
            self._tasks.append(asyncio.get_running_loop().create_task(self._read(reader, pending)))
        return self

    def send(self, request: Dict[str, Any], due: float, slot: Optional[asyncio.Semaphore] = None) -> Entry:
        entry = Entry(request, due)
        entry.slot = slot
        index = self._pin.get(entry.sid, 0)
        if self.tracer is not None:
            entry.trace = self.tracer.new_id()
            self.roots[entry.trace] = entry.trace
            request = dict(request, id=entry.trace)
        line = json.dumps(request, separators=(",", ":")).encode() + b"\n"
        self.ledger.record(entry)
        self._pending[index].append(entry)
        entry.sent = time.perf_counter()
        self._conns[index].write(line)
        return entry

    async def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry = self.send(request, time.perf_counter())
        entry.future = asyncio.get_running_loop().create_future()
        return await entry.future

    async def _read(self, reader: asyncio.StreamReader, pending: deque) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            entry = pending.popleft()
            entry.done = time.perf_counter()
            entry.response = json.loads(line)
            if entry.trace:
                self.tracer.add_root("bench.request", entry.trace, entry.sent, entry.done)
                self.roots.pop(entry.trace, None)
            if entry.slot is not None:
                entry.slot.release()
            if entry.future is not None:
                entry.future.set_result(entry.response)

    async def drain(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while any(self._pending) and time.perf_counter() < deadline:
            if any(t.done() for t in self._tasks):
                break
            await asyncio.sleep(0.005)

    @property
    def outstanding(self) -> int:
        return sum(len(p) for p in self._pending)

    async def close(self) -> None:
        for writer in self._conns:
            writer.close()
        for writer in self._conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)


# -- load phases -------------------------------------------------------------


async def open_loop(client: Client, schedule: List[Any], seconds: float) -> Dict[str, Any]:
    """Send each request at its due time regardless of replies."""
    start = time.perf_counter() + 0.02
    entries = []
    for offset, request in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        entries.append(client.send(request, due))
    end = start + seconds
    while time.perf_counter() < end:
        await asyncio.sleep(end - time.perf_counter())
    backlog = client.outstanding
    await client.drain()
    late = [(e.sent - e.due) * 1000.0 for e in entries]
    return {
        "entries": entries,
        "late_p99_ms": percentile(late, 99),
        "late_max_ms": max(late, default=0.0),
        "backlog_at_end": backlog,
        "still_pending": client.outstanding,
    }


async def closed_loop(client: Client, shape: Shape, seed: Any, seconds: float) -> Dict[str, Any]:
    """Each connection keeps ``shape.window`` requests outstanding."""
    picker = SessionPicker(shape.sids, shape.skew)
    start = time.perf_counter()
    deadline = start + seconds
    entries: List[Entry] = []

    async def pump(index: int) -> None:
        mine = [i for i in range(shape.sessions) if i % client.nconn == index]
        if not mine:
            return
        own = picker.subset(mine)
        rng = random.Random(f"closed:{seed}:{index}")
        slot = asyncio.Semaphore(shape.window)
        while True:
            await slot.acquire()
            if time.perf_counter() >= deadline:
                return
            request = serve_request(rng, own.pick(rng), shape.rows, shape.cols)
            entries.append(client.send(request, time.perf_counter(), slot))

    await asyncio.gather(*(pump(i) for i in range(client.nconn)))
    backlog = client.outstanding
    await client.drain()
    warm = start + seconds * WARMUP_SHARE
    return {
        "entries": entries,
        "completed": sum(1 for e in entries if warm < e.done <= deadline),
        "measured_s": deadline - warm,
        "rate_whole": sum(1 for e in entries if e.done and e.done <= deadline) / seconds,
        "backlog_at_end": backlog,
    }


def account(entries: List[Entry], result: Result) -> None:
    """Count attempts; every refused, failed or unanswered request fails."""
    result.attempted += len(entries)
    for entry in entries:
        if not entry.ok:
            error = (entry.response or {}).get("error", "no response")
            result.fail(f"{entry.request.get('op')} {entry.sid}: {error}")


# -- checking ----------------------------------------------------------------


def reference_for(shape: Shape, writes: List[Entry]) -> RefSheet:
    ref = RefSheet(shape.rows, shape.cols)
    for entry in writes:
        if entry.ok:
            for row, col, formula in entry.request["cells"]:
                ref.set(row, col, formula)
    return ref


def check_reads(shape: Shape, ledger: Ledger, result: Result) -> None:
    """Every read equals the reference at its place in the write order."""
    for sid in shape.sids:
        writes = ledger.writes[sid]
        ref = RefSheet(shape.rows, shape.cols)
        applied = 0
        values = ref.values()
        for entry in ledger.reads[sid]:
            if not entry.ok:
                continue
            if entry.k != applied:
                for w in writes[applied:entry.k]:
                    if w.ok:
                        for row, col, formula in w.request["cells"]:
                            ref.set(row, col, formula)
                applied = entry.k
                values = ref.values()
            got = entry.response["result"]["value"]
            want = values[entry.request["row"]][entry.request["col"]]
            if got != want:
                result.fail(f"read {sid} R{entry.request['row']}C{entry.request['col']}: got {got!r}, reference {want!r}")


async def check_sessions(client: Client, shape: Shape, ledger: Ledger, result: Result, corrupt: bool) -> None:
    """Per session: the served log equals the acknowledged writes (no
    acknowledged write lost), the grid equals the reference, and the
    invariant audit is sound."""
    for sid in shape.sids:
        acked = [cell for e in ledger.writes[sid] if e.ok for cell in e.request["cells"]]
        log = await client.call({"op": "log", "session": sid})
        served = log.get("result", {}).get("edits") if log.get("ok") else None
        if served != acked:
            lost = len(acked) - len(served or [])
            result.fail(f"{sid}: served log differs from the {len(acked)} acknowledged writes ({lost} missing)")
        dump = await client.call({"op": "dump", "session": sid})
        want = reference_for(shape, ledger.writes[sid]).values()
        if corrupt and sid == shape.sids[0]:
            want[0][0] = want[0][0] + 1
        got = dump.get("result", {}).get("values") if dump.get("ok") else None
        grid_mismatches(f"{sid} final grid", got, want, result)
        audit = await client.call({"op": "audit", "session": sid})
        if not (audit.get("ok") and audit["result"].get("sound")):
            result.fail(f"{sid}: invariant audit failed: {audit}")


# -- server processes --------------------------------------------------------


class ServerProcess:
    """A :mod:`serve_child` process."""

    def __init__(self, root: str, shape: Shape, *, standby: bool = False, replicas: str = "") -> None:
        argv = [
            sys.executable, CHILD, "--root", root,
            "--rows", str(shape.rows), "--cols", str(shape.cols),
            "--workers", str(shape.workers), "--max-live", str(shape.max_live),
        ]
        if standby:
            argv.append("--standby")
        if replicas:
            argv += ["--replicas", replicas]
        os.makedirs(root, exist_ok=True)
        self.log_path = root.rstrip("/") + ".log"
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self._log, bufsize=0)
        self.port = int(self._line("PORT", 60.0))

    def _line(self, tag: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                chunk = self.proc.stdout.read(1)
                if not chunk:
                    break
                buf += chunk
                if chunk == b"\n":
                    line = buf.decode().strip()
                    buf = b""
                    if line.startswith(tag + " "):
                        return line.split()[1]
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"server child did not report {tag}; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        self.proc.send_signal(signal.SIGUSR1)
        return int(self._line("RSS", 30.0)) / 1024.0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self._close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Deployment:
    """The processes of one set-up: primary (+ standby)."""

    def __init__(self, root: str, shape: Shape) -> None:
        self.root = root
        self.shape = shape
        self.standby: Optional[ServerProcess] = None
        self.primary: Optional[ServerProcess] = None
        self.procs: List[ServerProcess] = []

    def boot(self) -> None:
        self.standby = self._spawn("standby", standby=True)
        self.primary = self._spawn("primary", replicas=f"127.0.0.1:{self.standby.port}")

    def _spawn(self, name: str, **kwargs: Any) -> ServerProcess:
        proc = ServerProcess(os.path.join(self.root, name), self.shape, **kwargs)
        self.procs.append(proc)
        return proc

    def stop(self) -> None:
        for proc in reversed(self.procs):
            proc.stop()


async def open_sessions(client: Client, shape: Shape, result: Result) -> None:
    for sid in shape.sids:
        response = await client.call({"op": "read", "session": sid, "row": 0, "col": 0})
        if not response.get("ok") or response["result"]["value"] != 0:
            result.fail(f"opening {sid}: {response}")


async def caught_up(client: Client, result: Result, timeout: float = 30.0) -> None:
    """Wait until the primary has nothing unacknowledged by its standby."""
    deadline = time.perf_counter() + timeout
    while True:
        status = (await client.call({"op": "replication"})).get("result") or {}
        if status.get("lag_records") == 0 and all(link.get("up") for link in status.get("links", ())):
            return
        if time.perf_counter() > deadline:
            result.fail(f"standby did not catch up before the crash: {status}")
            return
        await asyncio.sleep(0.01)


# -- the untraced run --------------------------------------------------------


async def _deployment(shape: Shape, root: str, ledger: Ledger, result: Result, nconn: int) -> Tuple[Deployment, Client, float]:
    """Boot the servers and open every session once; returns the set-up time."""
    started = time.perf_counter()
    deployment = Deployment(root, shape)
    try:
        deployment.boot()
        client = await Client(deployment.primary.port, shape, ledger, nconn).open()
        await open_sessions(client, shape, result)
    except BaseException:
        deployment.stop()
        raise
    ledger.reads = {sid: [] for sid in shape.sids}  # opening reads are set-up
    return deployment, client, time.perf_counter() - started


async def _round(shape: Shape, key: str, closed_s: float, open_s: float, root: str, corrupt: bool, result: Result) -> Dict[str, Any]:
    """One deployment: the open loop, the closed loop, the crash and its
    replacement, then the checks."""
    picker = SessionPicker(shape.sids, shape.skew)
    schedule = open_loop_schedule(key, shape.rate, open_s, picker, shape.rows, shape.cols)
    ledger = Ledger(shape.sids)
    deployment, client, setup = await _deployment(shape, root, ledger, result, connections())
    out: Dict[str, Any] = {"setup": setup}
    try:
        phase = await open_loop(client, schedule, open_s)
        entries = phase.pop("entries")
        account(entries, result)
        warm = open_s * WARMUP_SHARE
        out["open"] = [e for (offset, _request), e in zip(schedule, entries) if offset >= warm]
        out["open_phase"] = phase

        phase = await closed_loop(client, shape, key, closed_s)
        account(phase.pop("entries"), result)
        out["closed_phase"] = phase
        out["rss"] = deployment.primary.peak_rss_mb()

        # The crash: nothing is in flight, every write so far was
        # acknowledged and received by the standby.
        await caught_up(client, result)
        await client.close()
        killed = time.perf_counter()
        deployment.primary.kill()
        client = await Client(deployment.standby.port, shape, ledger, 1).open()
        promoted = await client.call({"op": "promote"})
        report = promoted.get("result") or {}
        if not (promoted.get("ok") and report.get("ok")):
            result.fail(f"promotion failed: {promoted}")
        out["promotion"] = {k: report.get(k) for k in ("sessions", "replayed_records")}
        row, col, formula = serve_formula(random.Random(f"failover:{key}"), shape.rows, shape.cols)
        final = await client.call({"op": "write", "session": shape.sids[0], "cells": [[row, col, formula]]})
        out["failover"] = time.perf_counter() - killed
        if not final.get("ok"):
            result.fail(f"first write after the crash: {final}")
        result.attempted += 1

        check_reads(shape, ledger, result)
        await check_sessions(client, shape, ledger, result, corrupt)
    finally:
        await client.close()
        deployment.stop()
        shutil.rmtree(root, ignore_errors=True)
    return out


async def _run(shape: Shape, seed: int, seconds: float, corrupt: bool, result: Result, work: str) -> None:
    open_s = seconds * OPEN_SHARE / ROUNDS
    closed_s = seconds * (1 - OPEN_SHARE) / ROUNDS
    rounds = []
    for index in range(ROUNDS):
        root = os.path.join(work, f"round{index}")
        rounds.append(await _round(shape, f"{seed}:{index}", closed_s, open_s, root, corrupt, result))

    result.put("setup_s", statistics.median(r["setup"] for r in rounds), "s")
    writes, reads = [], []
    for entry in (e for r in rounds for e in r["open"] if e.ok):
        (writes if entry.is_write else reads).append((entry.done - entry.due) * 1000.0)
    latency_metrics(result, writes, reads)
    closed = [r["closed_phase"] for r in rounds]
    result.put("ops_per_s", sum(c["completed"] for c in closed) / sum(c["measured_s"] for c in closed), "ops/s")
    result.put("peak_rss_mb", statistics.median(r["rss"] for r in rounds), "MiB")
    result.put("failover_s", statistics.median(r["failover"] for r in rounds), "s")
    result.notes.update(
        offered_rate=shape.rate,
        connections=connections(),
        open_phase=[r["open_phase"] for r in rounds],
        closed_phase=[{k: v for k, v in c.items() if k != "measured_s"} for c in closed],
        setups=[r["setup"] for r in rounds],
        failover=[r["failover"] for r in rounds],
        promotion=[r["promotion"] for r in rounds],
    )
    for phase in result.notes["open_phase"]:
        if phase["late_p99_ms"] > LATENESS_BOUND_MS:
            result.fail(
                f"invalid run: open-loop generator ran {phase['late_p99_ms']:.1f} ms late at p99 "
                f"(bound {LATENESS_BOUND_MS} ms)"
            )


def run(shape: Shape, seed: int, seconds: float, corrupt: bool = False) -> Result:
    result = Result()
    work = os.path.join(WORK, f"{shape.name}-{seed}-{os.getpid()}")
    try:
        asyncio.run(_run(shape, seed, seconds, corrupt, result, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.put("ok_frac", 1.0 - result.failed / max(1, result.attempted), "ratio")
    return result


# -- the traced run ----------------------------------------------------------


def _editlog_bytes(root: str, shape: Shape) -> int:
    total = 0
    for sid in shape.sids:
        path = os.path.join(root, sid, "sheet.editlog")
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


async def _boot_inprocess(shape: Shape, root: str) -> tuple:
    """Primary and standby (behind an in-process link) on this loop."""
    from repro.replicate.shipper import InprocLink
    from repro.serve import ServeConfig, Server

    def config(name: str, **extra: Any) -> Any:
        return ServeConfig(
            root=os.path.join(root, name), rows=shape.rows, cols=shape.cols,
            workers=shape.workers, max_live_sessions=shape.max_live, port=0, **extra,
        )

    standby = await Server(config("standby", standby=True)).start()
    applier = standby.applier
    # Looked up per frame, so the traced run's wrapper sees each one.
    links = (InprocLink(lambda frame: applier.apply(frame)),)
    primary = await Server(config("primary", replica_links=links, replication_mode=REPLICATION_MODE)).start()
    return primary, standby


async def _run_traced(shape: Shape, seed: int, seconds: float, result: Result, work: str) -> None:
    from layers import CoreTally, install_serve
    from sheet_recalc import trace_metrics
    from tracing import Tracer

    nconn = connections()
    tracer, tally, roots = Tracer(), CoreTally(), {}
    rates = []
    servers: List[Any] = []
    client: Optional[Client] = None
    try:
        # The same load from the same start, untraced then traced.
        for traced in (False, True):
            root = os.path.join(work, "traced" if traced else "untraced")
            primary, standby = await _boot_inprocess(shape, root)
            servers = [primary, standby]
            ledger = Ledger(shape.sids)
            client = await Client(primary.port, shape, ledger, nconn).open()
            await open_sessions(client, shape, result)
            ledger.reads = {sid: [] for sid in shape.sids}
            if traced:
                install_serve(tracer, tally, roots)
                for session in primary.sessions.live_sessions().values():
                    tally.watch(session.runtime)
                client.tracer, client.roots = tracer, roots
                counters = primary.metrics.counters()
                editlog = _editlog_bytes(primary.config.root, shape)
            phase = await closed_loop(client, shape, seed, seconds / 2)
            entries = phase["entries"]
            account(entries, result)
            rates.append(phase["rate_whole"])
            if not traced:
                await client.close()
                client = None
                for server in servers:
                    await server.shutdown()
        client.tracer = None
        tally.harvest_all()
        summary = tracer.analyse()
        requests = len(entries)
        writes = sum(1 for e in entries if e.is_write)
        after = primary.metrics.counters()
        layer_metrics(result, tracer, summary, tally, writes, requests, counters, after)
        result.put(
            "persist.editlog_bytes_per_write",
            (_editlog_bytes(primary.config.root, shape) - editlog) / max(1, writes), "bytes",
        )
        trace_metrics(result, summary, rates[1] / rates[0])

        # The crash: abandon the primary once the standby holds every
        # acknowledged write, and promote the standby.
        await caught_up(client, result)
        await client.close()
        client = None
        primary.pool.close()
        servers = [standby]
        promoted = await standby.promote()
        result.put("replicate.replayed_records", promoted.get("replayed_records", 0), "count")
        if not promoted.get("ok"):
            result.fail(f"promotion failed: {promoted}")
        client = await Client(standby.port, shape, ledger, 1).open()
        final = await client.call(
            {"op": "write", "session": shape.sids[0], "cells": [list(serve_formula(random.Random(seed), shape.rows, shape.cols))]}
        )
        if not final.get("ok"):
            result.fail(f"write after promotion: {final}")
        promote = tracer.analyse()
        result.put("replicate.promote_ms", promote.mean_ms("replicate.promote"), "ms")
        tracer.unpatch()
        result.notes["traced_requests"] = requests
        result.notes["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(OUT, f"spans-{shape.name}-{seed}.jsonl"))
        check_reads(shape, ledger, result)
        await check_sessions(client, shape, ledger, result, corrupt=False)
    finally:
        tracer.unpatch()
        if client is not None:
            await client.close()
        for server in servers:
            await server.shutdown()


def layer_metrics(result: Result, tracer: Any, summary: Any, tally: Any, writes: int, requests: int, before: Dict[str, float], after: Dict[str, float]) -> None:
    """The per-layer metrics of one traced serve segment."""
    counts = tracer.counts
    per_write = lambda n: n / max(1, writes)  # noqa: E731
    for name, value in tally.metrics(writes=writes, ops=requests).items():
        result.put(name, value, "ratio" if name.endswith("ratio") else "count")
    result.put("core.pycalls_per_write", 0, "count")
    result.put("core.pycalls_per_read", 0, "count")
    result.put("core.exec_self_ms", summary.mean_ms("core.execute_node", own=True), "ms")
    result.put("spreadsheet.set_formula_self_ms", summary.mean_ms("spreadsheet.set_formula", own=True), "ms")
    result.put("spreadsheet.value_self_ms", summary.mean_ms("spreadsheet.value", own=True), "ms")

    result.put("persist.wal_appends_per_write", per_write(summary.calls.get("persist.wal_append", 0)), "count")
    result.put("persist.wal_bytes_per_write", per_write(counts["wal_bytes"]), "bytes")
    result.put("persist.wal_append_ms", summary.mean_ms("persist.wal_append"), "ms")
    result.put("persist.fsyncs_per_write", per_write(counts["fsyncs"]), "count")
    checkpoints = summary.calls.get("persist.checkpoint", 0)
    result.put("persist.checkpoints", checkpoints, "count")
    result.put("persist.checkpoint_ms", summary.mean_ms("persist.checkpoint"), "ms")
    result.put("persist.checkpoint_bytes", counts["checkpoint_bytes"] / max(1, checkpoints), "bytes")
    # A standby's warm refresh also loads a sheet; only the primary's
    # resurrections are recoveries of the serving path.
    names = {span[0]: span[3] for span in tracer.spans}
    loads = [
        span for span in tracer.spans
        if span[3] == "persist.recover" and names.get(span[1]) != "replicate.apply"
    ]
    result.put("persist.recoveries", len(loads), "count")
    result.put(
        "persist.recover_ms",
        sum(s[5] - s[4] for s in loads) / len(loads) * 1000.0 if loads else 0.0, "ms",
    )

    result.put("serve.handle_ms", summary.mean_ms("serve.handle"), "ms")
    result.put("serve.parse_ms", summary.mean_ms("serve.parse"), "ms")
    result.put("serve.queue_wait_ms", summary.mean_ms("serve.queue_wait"), "ms")
    result.put("serve.apply_self_ms", summary.mean_ms("serve.apply", own=True), "ms")
    result.put("serve.acquire_ms", summary.mean_ms("serve.acquire"), "ms")
    kreq = max(1, requests) / 1000.0
    result.put("serve.evictions_per_kreq", (after["evictions"] - before["evictions"]) / kreq, "count")
    result.put("serve.resurrections_per_kreq", (after["resurrections"] - before["resurrections"]) / kreq, "count")
    result.put("serve.rejections", after["rejections"] - before["rejections"], "count")

    result.put("replicate.ship_ms", summary.mean_ms("replicate.ship"), "ms")
    result.put("replicate.records_per_write", per_write(counts["shipped_records"]), "count")
    result.put("replicate.bytes_per_write", per_write(counts["shipped_bytes"]), "bytes")
    result.put("replicate.resyncs", counts["resyncs"], "count")
    result.put("replicate.resync_bytes", counts["resync_bytes"] / max(1, counts["resyncs"]), "bytes")
    result.put("replicate.apply_ms", summary.mean_ms("replicate.apply"), "ms")


def run_traced(shape: Shape, seed: int, seconds: float) -> Result:
    result = Result()
    work = os.path.join(WORK, f"{shape.name}-{seed}-{os.getpid()}-traced")
    try:
        asyncio.run(_run_traced(shape, seed, seconds, result, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result
