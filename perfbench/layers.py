"""Per-layer instrumentation for the traced run.

:func:`install` wraps the public entry points of each layer with span
recorders (see :mod:`perfbench.tracing`) and counters; :class:`CoreTally`
sums ``rt.stats`` deltas and event-bus traffic over every runtime it is
shown.  Layers are named after the package's modules: ``spreadsheet``,
``core``, ``persist``, ``serve``, ``replicate`` and ``obs``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

from tracing import Tracer, current

#: The core counters reported per write (``rt.stats`` field names).
CORE_FIELDS = (
    "executions",
    "edges_created",
    "order_shifts",
    "partition_finds",
    "cache_hits",
    "cache_misses",
)


class CoreTally:
    """``rt.stats`` deltas plus events and handler calls, summed over
    runtimes.  Events are counted with one ``subscribe_all`` handler per
    runtime; the handler calls an event costs are read from the bus's
    ``subscriber_count`` (this tally's own handler excluded)."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {name: 0 for name in CORE_FIELDS}
        self.events = 0
        self.handler_calls = 0
        self._live: Dict[int, Any] = {}

    def watch(self, rt: Any) -> None:
        if id(rt) in self._live:
            return
        bus = rt.events

        def count(kind: Any, node: Any, amount: int, data: Any) -> None:
            self.events += 1
            self.handler_calls += bus.subscriber_count(kind) - 1

        bus.subscribe_all(count)
        self._live[id(rt)] = (rt, rt.stats.snapshot(), count)

    def harvest(self, rt: Any) -> None:
        entry = self._live.pop(id(rt), None)
        if entry is None:
            return
        rt, before, count = entry
        rt.events.unsubscribe_all(count)
        delta = rt.stats.delta(before)
        for name in CORE_FIELDS:
            self.totals[name] += delta[name]

    def harvest_all(self) -> None:
        for rt, _before, _count in list(self._live.values()):
            self.harvest(rt)

    def metrics(self, writes: int, ops: int) -> Dict[str, float]:
        t = self.totals
        lookups = t["cache_hits"] + t["cache_misses"]
        return {
            "core.executions_per_write": _ratio(t["executions"], writes),
            "core.edges_created_per_write": _ratio(t["edges_created"], writes),
            "core.order_shifts_per_write": _ratio(t["order_shifts"], writes),
            "core.partition_finds_per_op": _ratio(t["partition_finds"], ops),
            "core.cache_hit_ratio": _ratio(t["cache_hits"], lookups),
            "core.events_per_write": _ratio(self.events, writes),
            "obs.handler_calls_per_write": _ratio(self.handler_calls, writes),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install_core(tracer: Tracer) -> None:
    from repro.core.runtime import Runtime
    from repro.spreadsheet.model import Spreadsheet

    tracer.wrap(Runtime, "execute_node", "core.execute_node")
    tracer.wrap(Spreadsheet, "set_formula", "spreadsheet.set_formula")
    tracer.wrap(Spreadsheet, "value", "spreadsheet.value")


def install_serve(tracer: Tracer, tally: CoreTally, roots: Dict[Any, int]) -> None:
    """Wrap persist, serve and replicate entry points (plus the core and
    spreadsheet ones).  ``roots`` holds the root span ids the benchmark's
    client opened; a request line carrying one as its ``id`` links the
    server-side spans of that request into the client's trace."""
    import repro.serve.server as server_mod
    from repro.persist.wal import PersistenceManager, WriteAheadLog
    from repro.replicate.shipper import Shipper
    from repro.replicate.standby import StandbyApplier
    from repro.serve.dispatch import WorkerPool
    from repro.serve.manager import SessionManager
    from repro.serve.session import Session
    from repro.spreadsheet.model import Spreadsheet

    install_core(tracer)
    counts = tracer.counts

    # -- persist ---------------------------------------------------------
    timed_append = tracer.sync("persist.wal_append", WriteAheadLog.__dict__["append"])

    def append(wal: Any, record: Any) -> int:
        before = os.path.getsize(wal.path)
        lsn = timed_append(wal, record)
        after = os.path.getsize(wal.path)
        if after < before:  # rotated: the record closed a sealed segment
            after += os.path.getsize(WriteAheadLog.segment_files(wal.path)[-1])
        counts["wal_bytes"] += after - before
        return lsn

    tracer.patch(WriteAheadLog, "append", append)

    timed_checkpoint = tracer.sync(
        "persist.checkpoint", PersistenceManager.__dict__["checkpoint"]
    )

    def checkpoint(manager: Any, app_state: Any = None) -> str:
        path = timed_checkpoint(manager, app_state)
        counts["checkpoint_bytes"] += os.path.getsize(path)
        return path

    tracer.patch(PersistenceManager, "checkpoint", checkpoint)
    tracer.wrap(Spreadsheet, "load", "persist.recover")
    real_fsync = os.fsync

    def fsync(fd: int) -> None:
        counts["fsyncs"] += 1
        real_fsync(fd)

    tracer.patch(os, "fsync", fsync)

    # -- serve -----------------------------------------------------------
    tracer.patch(
        server_mod, "parse_request", tracer.sync("serve.parse", server_mod.parse_request)
    )

    def link(args: Any) -> Any:
        # The benchmark's client appends its trace id as the request's
        # last key: ``...,"id":123}``.
        line = args[1] if len(args) > 1 else b""
        at = line.rfind(b'"id":')
        if at < 0:
            return None
        try:
            root = roots.get(int(line[at + 5:line.index(b"}", at)]))
        except ValueError:
            return None
        return (root, root) if root is not None else None

    tracer.patch(
        server_mod.Server, "handle_line",
        tracer.coro("serve.handle", server_mod.Server.__dict__["handle_line"], link),
    )
    tracer.wrap(SessionManager, "acquire", "serve.acquire")
    tracer.wrap(Session, "apply", "serve.apply")
    real_submit = WorkerPool.__dict__["submit"]

    def submit(pool: Any, key: str, fn: Any) -> Any:
        parent = current()
        submitted = time.perf_counter()

        def job() -> Any:
            tracer.add("serve.queue_wait", parent, submitted, time.perf_counter())
            return fn()

        return real_submit(pool, key, job)

    tracer.patch(WorkerPool, "submit", submit)

    real_open = Session.__dict__["open"].__func__

    def open_session(cls: Any, *args: Any, **kwargs: Any) -> Any:
        session = real_open(cls, *args, **kwargs)
        tally.watch(session.runtime)
        return session

    tracer.patch(Session, "open", classmethod(open_session))
    real_close = Session.__dict__["close"]

    def close_session(session: Any, *args: Any, **kwargs: Any) -> None:
        tally.harvest(session.runtime)
        real_close(session, *args, **kwargs)

    tracer.patch(Session, "close", close_session)

    # -- replicate -------------------------------------------------------
    timed_ship = tracer.sync("replicate.ship", Shipper.__dict__["ship"])

    def ship(shipper: Any, sid: str, records: List[Any], resync_fn: Any = None) -> bool:
        if records:
            counts["shipped_records"] += len(records)
            counts["shipped_bytes"] += sum(len(r["p"]) for r in records)
        return timed_ship(shipper, sid, records, resync_fn)

    tracer.patch(Shipper, "ship", ship)
    timed_apply = tracer.sync("replicate.apply", StandbyApplier.__dict__["apply"])

    def apply(applier: Any, frame: Any) -> Any:
        if isinstance(frame, dict) and frame.get("kind") == "resync":
            counts["resyncs"] += 1
            counts["resync_bytes"] += sum(
                len(frame.get(key) or "") for key in ("ckpt", "wal", "editlog")
            )
        return timed_apply(applier, frame)

    tracer.patch(StandbyApplier, "apply", apply)
    tracer.wrap(server_mod.Server, "promote", "replicate.promote")
