"""One tenant: a checkpoint+WAL-backed spreadsheet under its own runtime.

A session is the serve layer's isolation unit.  Each one owns a private
:class:`~repro.core.runtime.Runtime` — its own dependency graph, its own
watchdog budget, its own resilience policy — so a tenant that poisons
nodes, blows deadlines, or livelocks damages nobody else.  Durability
comes from :mod:`repro.persist`: the sheet is checkpointed at
``<root>/<sid>/sheet`` and every formula edit is WAL-logged, which is
what makes eviction cheap (checkpoint + close, resurrect later) and
crashes survivable.  That checkpoint + WAL pair is the session's one
durable log: the edit history served by ``{"op": "log"}`` is derived
from it (:attr:`Session.edit_log`), so history and grid recover
together or degrade together.

All session methods run on the session's pinned worker thread (see
:mod:`repro.serve.dispatch`); the internal lock is a belt-and-braces
guard for direct library use, not something the server path contends on.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

from ..core import Runtime
from ..core.errors import AlphonseError, NodeExecutionError
from ..core.events import EventKind
from ..core.integrity import audit
from ..core.watchdog import Watchdog
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry, RuntimeMetrics
from ..resil import ALLOW_STALE, FRESH, ResiliencePolicy
from ..spreadsheet import CircularReference, Spreadsheet
from .config import ServeConfig
from .protocol import ProtocolError, SessionOpError

__all__ = ["Session"]


class Session:
    """A live tenant: spreadsheet + runtime + durable state directory."""

    def __init__(
        self,
        sid: str,
        sheet: Spreadsheet,
        runtime: Runtime,
        path: str,
        *,
        resurrected: bool,
    ) -> None:
        self.sid = sid
        self.sheet = sheet
        self.runtime = runtime
        self.path = path
        self.resurrected = resurrected
        # Replication (attached by attach_replication when the server
        # has replicas configured): committed WAL lines and checkpoints
        # buffer here and are flushed to the shipper at the end of each
        # request, before the response.
        self._shipper: Any = None
        self._ship_lsn = 0
        self._ship_pending: List[Any] = []
        self.requests = 0
        self.opened_at = time.monotonic()
        self._lock = threading.Lock()
        self._closed = False
        #: The tenant's always-on flight recorder (attached to the
        #: runtime bus by :meth:`open`); session-op notes land here too.
        self.flight = runtime.obs.flight
        # Incident-triggered dumps: a watchdog trip or a circuit
        # breaker opening writes the ring to disk *at the moment of the
        # incident*, while the evidence is still in the buffer.  The
        # flight recorder subscribed first (in open()), so the trigger
        # event itself is already recorded when the dump runs.
        self._incident_kinds = (
            EventKind.WATCHDOG_TRIPPED,
            EventKind.BREAKER_STATE,
        )
        for kind in self._incident_kinds:
            runtime.events.subscribe(kind, self._on_incident)

    @property
    def edit_log(self) -> List[List[Any]]:
        """Applied formula edits in commit order — ``[row, col,
        source]`` triples, the serializable history a convergence check
        replays.  It is the sheet's WAL-derived
        :attr:`~repro.spreadsheet.Spreadsheet.history`: a rolled-back
        batch is absent from it, and after eviction, a crash or WAL
        damage it holds exactly the edits the recovered grid holds."""
        return self.sheet.history

    # -- lifecycle -----------------------------------------------------

    @staticmethod
    def state_path(root: str, sid: str) -> str:
        return os.path.join(root, sid, "sheet")

    @classmethod
    def open(
        cls,
        sid: str,
        config: ServeConfig,
        registry: Optional[MetricsRegistry] = None,
        *,
        shipper: Any = None,
    ) -> "Session":
        """Open a session: resurrect from disk if it has state, else
        create it fresh.

        Runs on a worker thread.  The tenant runtime is built with the
        config's watchdog budget and (optional) resilience deadline; its
        metrics collector is pointed at the server's shared registry so
        every tenant aggregates into one ``/metrics`` exposition.
        """
        path = cls.state_path(config.root, sid)
        policy = None
        if config.deadline_seconds is not None:
            policy = ResiliencePolicy(deadline_seconds=config.deadline_seconds)
        watchdog = None
        if config.watchdog_max_steps is not None:
            watchdog = Watchdog(max_steps=config.watchdog_max_steps)
        runtime_kwargs: Dict[str, Any] = {
            "watchdog": watchdog,
            "resilience": policy,
        }
        if config.parallel_drains is not None:
            runtime_kwargs["parallel_drains"] = config.parallel_drains
        if os.path.exists(path):
            sheet, _report = Spreadsheet.load(path, **runtime_kwargs)
            rt = sheet.runtime
            resurrected = True
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            rt = Runtime(**runtime_kwargs)
            with rt.active():
                sheet = Spreadsheet(config.rows, config.cols)
            resurrected = False
        if registry is not None:
            rt.obs.metrics = RuntimeMetrics(registry=registry)
        rt.obs.flight = FlightRecorder(config.flight_capacity)
        rt.obs.enable(
            spans=config.trace,
            metrics=True,
            explain=config.explain,
            flight=True,
        )
        with rt.active():
            # (Re)attach the WAL manager and cut a checkpoint: a fresh
            # session becomes durable before its first edit, and a
            # resurrected one folds its replayed WAL tail back into the
            # checkpoint so the log never grows across generations.
            sheet.save(path)
        if config.wal_segment_records is not None and rt._persist is not None:
            rt._persist.wal.segment_records = config.wal_segment_records
        session = cls(sid, sheet, rt, path, resurrected=resurrected)
        if shipper is not None:
            session.attach_replication(shipper)
        return session

    def close(
        self, *, checkpoint: bool = True, reason: str = "shutdown"
    ) -> None:
        """Flush, checkpoint, and release the tenant's threads.

        Idempotent.  This is both the eviction path (``reason=
        "eviction"``) and the graceful shutdown path: after it returns
        the session's entire state is on disk and every thread-backed
        resource (deadline monitor, drain pool, WAL handle) is stopped —
        :meth:`open` on the same directory resurrects an equivalent
        session.  An eviction that buries live poisoned values dumps
        the flight ring first: the tenant is leaving memory with an
        unresolved failure, and this is the last chance to keep the
        evidence.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            with self.runtime.active():
                self.runtime.flush()
                if checkpoint:
                    self.sheet.save(self.path)
            if (
                reason == "eviction"
                and getattr(self.runtime, "_poison_live", 0) > 0
            ):
                self.dump_flight(reason="eviction-with-poison")
            # The closing checkpoint (and any straggler records) must
            # reach the standbys before the hooks detach.
            self._flush_ship()
            self._detach_replication()
            for kind in self._incident_kinds:
                self.runtime.events.unsubscribe(kind, self._on_incident)
            self.runtime.obs.disable()
            self.runtime.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- flight recorder -----------------------------------------------

    def flight_path(self) -> str:
        """Where this tenant's flight dumps land (``<root>/<sid>/``)."""
        return os.path.join(os.path.dirname(self.path), "flight.jsonl")

    def dump_flight(
        self, *, reason: str = "on-demand", extra: Optional[Dict[str, Any]] = None
    ) -> str:
        """Write the flight ring as JSONL; returns the path."""
        header: Dict[str, Any] = {"sid": self.sid}
        if extra:
            header.update(extra)
        self.flight.dump(self.flight_path(), reason=reason, extra=header)
        return self.flight_path()

    def _on_incident(self, kind: EventKind, node: Any, amount: int, data: Any) -> None:
        # Breaker events fire on every transition; only *opening* is an
        # incident worth a dump (half-open/close are recovery).
        if kind is EventKind.BREAKER_STATE and not (
            isinstance(data, dict) and data.get("to") == "open"
        ):
            return
        self.dump_flight(reason=kind.value)

    # -- replication ---------------------------------------------------

    def attach_replication(self, shipper: Any) -> None:
        """Start streaming this session's durable state to ``shipper``.

        Hooks the WAL's append tap and CHECKPOINT events; everything
        buffers in request order and is flushed at the end of each
        :meth:`apply` — before the client response, so
        in semi-sync mode an acknowledged write is on every live
        standby.  Attaching always opens with a full resync frame: the
        stream LSN restarts at 0 per session generation, and the resync
        is what makes eviction/resurrection cycles self-correcting.
        """
        self._shipper = shipper
        self._ship_lsn = 0
        self._ship_pending = []
        manager = self.runtime._persist
        if manager is not None:
            manager.wal.on_append = self._tap_wal
        self.runtime.events.subscribe(EventKind.CHECKPOINT, self._on_checkpoint)
        shipper.resync(self.sid, self.build_resync_frame())

    def _detach_replication(self) -> None:
        if self._shipper is None:
            return
        manager = self.runtime._persist
        if manager is not None and manager.wal.on_append == self._tap_wal:
            manager.wal.on_append = None
        self.runtime.events.unsubscribe(EventKind.CHECKPOINT, self._on_checkpoint)
        self._shipper = None

    def _tap_wal(self, line: str, record: Dict[str, Any]) -> None:
        self._ship_pending.append(("wal", line.rstrip("\n")))

    def _on_checkpoint(self, kind: EventKind, node: Any, amount: int, data: Any) -> None:
        # Ship the whole checkpoint file: it anchors WAL truncation on
        # the standby exactly as it did here.
        try:
            with open(self.path, encoding="utf-8") as fh:
                self._ship_pending.append(("ckpt", fh.read()))
        except OSError:
            pass  # unreadable checkpoint: the standby keeps replaying WAL

    def _flush_ship(self) -> None:
        """Hand buffered stream records to the shipper (request tail)."""
        if self._shipper is None or not self._ship_pending:
            return
        from ..replicate.stream import make_record

        pending, self._ship_pending = self._ship_pending, []
        records = []
        for record_kind, payload in pending:
            self._ship_lsn += 1
            records.append(make_record(self._ship_lsn, record_kind, payload))
        self._shipper.ship(self.sid, records, self.build_resync_frame)

    def build_resync_frame(self) -> Dict[str, Any]:
        """A full-session snapshot frame at the current stream position
        (runs on the session's own worker, so the files are quiescent)."""
        from ..replicate.stream import session_resync_frame

        root = os.path.dirname(os.path.dirname(self.path))
        return session_resync_frame(root, self.sid, self._ship_lsn)

    # -- request execution ---------------------------------------------

    def apply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one protocol request against this tenant.

        Raises :class:`SessionOpError` (422) when the operation itself
        fails and :class:`ProtocolError` (400) when its arguments are
        malformed; anything returned is the JSON-safe ``result``.
        """
        with self._lock:
            if self._closed:
                raise SessionOpError(f"session {self.sid!r} is closed")
            op = request.get("op")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ProtocolError(f"unknown session op {op!r}")
            self.requests += 1
            started = time.perf_counter()
            try:
                with self.runtime.active():
                    return handler(request)
            finally:
                # Ship whatever this request made durable *before* the
                # response is written (a failed op ships its applied
                # prefix too — it is durable locally, so it must be on
                # the standbys).  Semi-sync blocks here until acked.
                self._flush_ship()
                # Runs on the pinned worker inside the dispatch shim's
                # copied context, so the note carries the request's
                # trace ids — the "session-op" lane of the stitched
                # Chrome timeline.
                self.flight.note(
                    "session-op",
                    f"{op} {self.sid}",
                    duration=time.perf_counter() - started,
                )

    # Each _op_* runs under the session lock with the runtime active.

    def _op_write(self, request: Dict[str, Any]) -> Dict[str, Any]:
        cells = _cells_arg(request)
        applied = 0
        try:
            for row, col, formula in cells:
                self.sheet.set_formula(row, col, formula)
                applied += 1
        except (AlphonseError, ValueError, IndexError, TypeError) as exc:
            raise SessionOpError(
                f"write failed after {applied} cells: {exc}"
            ) from exc
        return {"applied": applied}

    def _op_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        cells = _cells_arg(request)
        try:
            self.sheet.bulk_update(cells, rollback_on_error=True)
        except (AlphonseError, ValueError, IndexError, TypeError) as exc:
            # rollback_on_error restored every cell and its history.
            raise SessionOpError(f"batch rolled back: {exc}") from exc
        return {"applied": len(cells)}

    def _op_read(self, request: Dict[str, Any]) -> Dict[str, Any]:
        row, col = _coords_arg(request)
        staleness = request.get("staleness", FRESH)
        if staleness not in (FRESH, ALLOW_STALE):
            raise ProtocolError(f"unknown staleness {staleness!r}")
        if staleness == FRESH:
            try:
                return {"value": self.sheet.value(row, col), "stale": False}
            except (CircularReference, NodeExecutionError) as exc:
                raise SessionOpError(f"read R{row}C{col}: {exc}") from exc
        # Degraded read: last-known-good value instead of an error.
        value = self.sheet.display(row, col, allow_stale=True)
        info = self.sheet.staleness(row, col)
        result: Dict[str, Any] = {"value": value, "stale": info is not None}
        if info is not None:
            result["origin"] = info.origin
            result["error"] = str(info.error)
            result["age_seconds"] = info.age_seconds
        return result

    def _op_explain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        row, col = _coords_arg(request)
        try:
            explanation = self.runtime.explain(f"(R{row}C{col})")
        except (AlphonseError, KeyError, ValueError) as exc:
            raise SessionOpError(f"explain R{row}C{col}: {exc}") from exc
        return {"explanation": str(explanation)}

    def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.runtime.flush()
        return {"path": self.sheet.save(self.path)}

    def _op_dump(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "rows": self.sheet.rows,
            "cols": self.sheet.cols,
            "values": [
                [self.sheet.display(r, c) for c in range(self.sheet.cols)]
                for r in range(self.sheet.rows)
            ],
        }

    def _op_log(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"edits": list(self.edit_log), "count": len(self.edit_log)}

    def _op_audit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        violations = audit(self.runtime, raise_on_violation=False)
        return {"violations": violations, "sound": not violations}

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.stats()

    def _op_debug(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The flight ring on demand (optionally dumped to disk too)."""
        limit = request.get("limit")
        records = self.flight.records()
        if isinstance(limit, int) and 0 < limit < len(records):
            records = records[-limit:]
        result: Dict[str, Any] = {
            "sid": self.sid,
            "records": records,
            "recorded": self.flight.recorded,
            "dropped": self.flight.dropped,
            "tracing": self.runtime.obs.tracer._bus is not None,
            "spans": len(self.runtime.obs.tracer),
        }
        if request.get("dump"):
            result["path"] = self.dump_flight(reason="debug-op")
        return result

    def stats(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "resurrected": self.resurrected,
            "requests": self.requests,
            "edits": len(self.edit_log),
            "rows": self.sheet.rows,
            "cols": self.sheet.cols,
            "nodes": len(self.runtime.graph.nodes),
            "uptime_seconds": round(time.monotonic() - self.opened_at, 3),
        }


# ----------------------------------------------------------------------
# argument validation
# ----------------------------------------------------------------------


def _cells_arg(request: Dict[str, Any]) -> List[Any]:
    cells = request.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ProtocolError("'cells' must be a non-empty list")
    out = []
    for entry in cells:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ProtocolError(f"cell entry must be [row, col, formula]: {entry!r}")
        row, col, formula = entry
        if not isinstance(row, int) or not isinstance(col, int):
            raise ProtocolError(f"cell coordinates must be ints: {entry!r}")
        out.append((row, col, formula))
    return out


def _coords_arg(request: Dict[str, Any]) -> tuple:
    row, col = request.get("row"), request.get("col")
    if not isinstance(row, int) or not isinstance(col, int):
        raise ProtocolError("'row' and 'col' must be ints")
    return row, col
