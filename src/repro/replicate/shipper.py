"""Primary-side log shipping: links, retries, and delivery modes.

The :class:`Shipper` sits behind every session's durability hooks and
forwards stream records (see :mod:`repro.replicate.stream`) to one or
more standby links.  Two delivery modes:

* ``semi-sync`` (default) — :meth:`ship` runs on the session's pinned
  worker thread and returns only after every *live* link acknowledged,
  so a client response implies the write is on all reachable standbys.
  This is what makes "zero lost acknowledged writes" a theorem rather
  than a probability.
* ``async`` — :meth:`ship` enqueues and returns; one background thread
  per link drains its queue in order.  Acks lag the client response by
  the link round-trip; a failover can lose the unacked tail.

A link that stops answering does not take the primary down with it:
delivery retries with the resilience layer's
:class:`~repro.resil.RetryPolicy` (bounded attempts, exponential
backoff), then the link is marked **down**, every session it carries is
marked dirty, and shipping degrades to local-only until a later ship
reconnects — at which point dirty sessions are healed by resync frames
before any new records flow.  The same dirty-then-resync path answers a
standby NACK (gap or CRC failure), so there is exactly one repair
mechanism no matter how the stream was damaged.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..resil.retry import RetryPolicy
from .stream import session_resync_frame

__all__ = [
    "InprocLink",
    "LinkDown",
    "ReplicationError",
    "Shipper",
    "TcpLink",
]


class LinkDown(Exception):
    """The replica link failed at the transport level (retryable)."""


class ReplicationError(Exception):
    """The replica answered, but refused in a non-retryable way."""


# ----------------------------------------------------------------------
# links
# ----------------------------------------------------------------------


class InprocLink:
    """A link to an in-process standby applier — the deterministic
    harness used by tests and benchmarks (no sockets, no threads)."""

    def __init__(self, apply: Callable[[Dict[str, Any]], Dict[str, Any]],
                 target: str = "inproc") -> None:
        self._apply = apply
        self.target = target
        self.fail_next = 0  # test seam: raise LinkDown for the next N sends

    def send(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if self.fail_next > 0:
            self.fail_next -= 1
            raise LinkDown("injected link failure")
        return self._apply(frame)

    def close(self) -> None:
        pass


class TcpLink:
    """A blocking newline-JSON connection to a standby server's ``ship``
    op.  Connects lazily, reconnects on demand; every transport failure
    surfaces as :class:`LinkDown` for the shipper's retry loop."""

    def __init__(self, host: str, port: int, *, timeout: float = 5.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.target = f"{host}:{port}"
        self._sock: Optional[socket.socket] = None
        self._fh = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._fh = self._sock.makefile("rwb")

    def send(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        try:
            if self._fh is None:
                self._connect()
            line = json.dumps(
                {"op": "ship", "frame": frame}, separators=(",", ":")
            ).encode("utf-8")
            self._fh.write(line + b"\n")
            self._fh.flush()
            reply = self._fh.readline()
        except OSError as exc:
            self.close()
            raise LinkDown(f"{self.target}: {exc}") from exc
        if not reply:
            self.close()
            raise LinkDown(f"{self.target}: connection closed")
        try:
            response = json.loads(reply)
        except ValueError as exc:
            self.close()
            raise LinkDown(f"{self.target}: garbled reply: {exc}") from exc
        if not response.get("ok"):
            error = response.get("error") or {}
            if error.get("code") == 503:
                # Standby is draining or mid-promotion: transient.
                raise LinkDown(f"{self.target}: standby unavailable")
            raise ReplicationError(
                f"{self.target}: ship rejected: {error.get('message')}"
            )
        return response.get("result") or {}

    def close(self) -> None:
        for closer in (self._fh, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._fh = None
        self._sock = None


# ----------------------------------------------------------------------
# the shipper
# ----------------------------------------------------------------------


class _LinkState:
    """Everything the shipper tracks about one replica link."""

    __slots__ = (
        "link", "up", "failures", "consecutive", "down_until",
        "dirty", "shipped_lsn", "acked_lsn", "shipped", "resyncs",
        "queue", "thread",
    )

    def __init__(self, link: Any) -> None:
        self.link = link
        self.up = True
        self.failures = 0          # total delivery give-ups
        self.consecutive = 0       # failures since the last success
        self.down_until = 0.0      # monotonic cooldown before reconnect
        self.dirty: set = set()    # sids needing a resync before records
        self.shipped_lsn: Dict[str, int] = {}
        self.acked_lsn: Dict[str, int] = {}
        self.shipped = 0           # records delivered (post-ack)
        self.resyncs = 0
        self.queue: Optional[List[Any]] = None   # async mode only
        self.thread: Optional[threading.Thread] = None

    def lag(self) -> int:
        return sum(
            max(0, self.shipped_lsn.get(sid, 0) - self.acked_lsn.get(sid, 0))
            for sid in self.shipped_lsn
        )

    def status(self) -> Dict[str, Any]:
        return {
            "target": getattr(self.link, "target", "?"),
            "up": self.up,
            "failures": self.failures,
            "dirty_sessions": sorted(self.dirty),
            "shipped_records": self.shipped,
            "resyncs": self.resyncs,
            "lag_records": self.lag(),
            "acked_lsn": dict(self.acked_lsn),
        }


class Shipper:
    """Fan committed stream records out to every replica link."""

    def __init__(
        self,
        links: List[Any],
        *,
        mode: str = "semi-sync",
        root: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        metrics: Any = None,
        flight: Any = None,
        resync_source: Optional[Callable[[str], Dict[str, Any]]] = None,
    ) -> None:
        if mode not in ("semi-sync", "async"):
            raise ValueError(f"unknown replication mode {mode!r}")
        self.mode = mode
        self.root = root
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=0.05, max_delay=1.0,
            retry_on=LinkDown,
        )
        self.metrics = metrics
        self.flight = flight
        #: How a resync frame is produced when a NACK arrives off the
        #: session's own thread.  The server wires this to run on the
        #: session's pinned worker; the default reads the session files
        #: directly (safe when the caller already owns them).
        self.resync_source = resync_source
        self._states = [_LinkState(link) for link in links]
        self._lock = threading.Lock()
        self._closed = False
        if mode == "async":
            for state in self._states:
                state.queue = []
                state.thread = threading.Thread(
                    target=self._drain_queue,
                    args=(state,),
                    name=f"shipper-{getattr(state.link, 'target', '?')}",
                    daemon=True,
                )
                state.thread.start()

    # -- primary-side entry points -------------------------------------

    def ship(
        self,
        sid: str,
        records: List[Dict[str, Any]],
        resync_fn: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> bool:
        """Deliver ``records`` (in order) for ``sid`` to every link.

        Semi-sync: blocks until each live link acked; returns False when
        any link is down (the write is durable locally but degraded).
        Async: enqueues and returns True immediately.
        """
        if not records:
            return True
        if self.mode == "async":
            with self._lock:
                for state in self._states:
                    if state.queue is not None:
                        state.queue.append(("records", sid, records))
            return True
        delivered = True
        for state in self._states:
            if not self._deliver(state, sid, records, resync_fn):
                delivered = False
        return delivered

    def resync(self, sid: str, frame: Dict[str, Any]) -> bool:
        """Push a full-session resync (session attach, or healing)."""
        if self.mode == "async":
            with self._lock:
                for state in self._states:
                    if state.queue is not None:
                        state.queue.append(("resync", sid, frame))
            return True
        delivered = True
        for state in self._states:
            if not self._deliver_resync(state, sid, frame):
                delivered = False
        return delivered

    # -- delivery machinery --------------------------------------------

    def _resync_frame(self, sid: str) -> Dict[str, Any]:
        if self.resync_source is not None:
            frame = self.resync_source(sid)
            if frame is not None:
                return frame
        if self.root is None:
            raise ReplicationError(
                f"no resync source for session {sid!r}"
            )
        # File-based fallback: the caller owns the session files (or
        # accepts that a torn read costs one more resync round-trip).
        with self._lock:
            lsn = max(
                (s.shipped_lsn.get(sid, 0) for s in self._states), default=0
            )
        return session_resync_frame(self.root, sid, lsn)

    def _send(self, state: _LinkState, frame: Dict[str, Any]) -> Dict[str, Any]:
        """One frame over one link, with the retry policy's backoff.
        Raises LinkDown when every attempt failed."""
        attempt = 0
        while True:
            attempt += 1
            try:
                ack = state.link.send(frame)
            except LinkDown as exc:
                if attempt >= self.retry.max_attempts or not self.retry.matches(exc):
                    raise
                delay = self.retry.delay_for(attempt)
                if delay:
                    (self.retry.sleep or time.sleep)(delay)
                continue
            state.up = True
            state.consecutive = 0
            return ack

    def _mark_down(self, state: _LinkState, sid: str, exc: Exception) -> None:
        state.up = False
        state.failures += 1
        state.consecutive += 1
        state.down_until = time.monotonic() + self.retry.delay_for(
            min(state.consecutive, 10)
        )
        # Every session this link has ever carried must resync once the
        # link returns: records shipped while down are lost to it.
        state.dirty.update(state.shipped_lsn)
        state.dirty.add(sid)
        if self.metrics is not None:
            self.metrics.repl_link_failures.inc()
        if self.flight is not None:
            self.flight.note(
                "replication",
                f"link down {getattr(state.link, 'target', '?')}",
                data={"error": str(exc), "failures": state.failures},
            )

    def _deliver(
        self,
        state: _LinkState,
        sid: str,
        records: List[Dict[str, Any]],
        resync_fn: Optional[Callable[[], Dict[str, Any]]],
    ) -> bool:
        if not state.up and time.monotonic() < state.down_until:
            state.dirty.add(sid)
            return False
        try:
            if sid in state.dirty or not state.up:
                frame = resync_fn() if resync_fn else self._resync_frame(sid)
                self._apply_resync_ack(state, sid, self._send(state, frame), frame)
                # The resync snapshot already contains these records
                # (it was built after they were written locally).
                self._count_shipped(state, sid, records, acked=True)
                return True
            last = records[-1]["lsn"]
            ack = self._send(
                state, {"kind": "records", "sid": sid, "records": records}
            )
            state.shipped_lsn[sid] = last
            if ack.get("applied"):
                self._count_shipped(state, sid, records, acked=True)
                state.acked_lsn[sid] = ack.get("lsn", last)
                return True
            # NACK: the standby found a gap — heal with a resync.
            self._note_gap(state, sid, ack)
            frame = resync_fn() if resync_fn else self._resync_frame(sid)
            self._apply_resync_ack(state, sid, self._send(state, frame), frame)
            self._count_shipped(state, sid, records, acked=True)
            return True
        except LinkDown as exc:
            self._mark_down(state, sid, exc)
            return False

    def _deliver_resync(
        self, state: _LinkState, sid: str, frame: Dict[str, Any]
    ) -> bool:
        if not state.up and time.monotonic() < state.down_until:
            state.dirty.add(sid)
            return False
        try:
            self._apply_resync_ack(state, sid, self._send(state, frame), frame)
            return True
        except LinkDown as exc:
            self._mark_down(state, sid, exc)
            return False

    def _apply_resync_ack(
        self,
        state: _LinkState,
        sid: str,
        ack: Dict[str, Any],
        frame: Dict[str, Any],
    ) -> None:
        lsn = int(frame.get("lsn") or 0)
        state.shipped_lsn[sid] = lsn
        state.acked_lsn[sid] = lsn
        state.dirty.discard(sid)
        state.resyncs += 1
        if self.metrics is not None:
            self.metrics.repl_resyncs.inc()

    def _count_shipped(
        self,
        state: _LinkState,
        sid: str,
        records: List[Dict[str, Any]],
        *,
        acked: bool,
    ) -> None:
        state.shipped += len(records)
        last = records[-1]["lsn"]
        state.shipped_lsn[sid] = max(state.shipped_lsn.get(sid, 0), last)
        if acked:
            state.acked_lsn[sid] = max(state.acked_lsn.get(sid, 0), last)
        if self.metrics is not None:
            self.metrics.repl_records_shipped.inc(len(records))
            if acked:
                self.metrics.repl_records_acked.inc(len(records))

    def _note_gap(self, state: _LinkState, sid: str, ack: Dict[str, Any]) -> None:
        if self.metrics is not None:
            self.metrics.repl_gaps.inc()
        if self.flight is not None:
            self.flight.note(
                "replication",
                f"gap reported by {getattr(state.link, 'target', '?')}",
                data={
                    "sid": sid,
                    "expect": ack.get("expect"),
                    "reason": ack.get("reason"),
                },
            )

    # -- async queue drain ---------------------------------------------

    def _drain_queue(self, state: _LinkState) -> None:
        while True:
            # Peek, deliver, then pop: an item leaves the queue only once
            # delivered, so an empty queue means nothing is in flight.
            with self._lock:
                item = state.queue[0] if state.queue else None
                if item is None and self._closed:
                    return
            if item is None:
                time.sleep(0.002)
                continue
            kind, sid, payload = item
            if kind == "resync":
                self._deliver_resync(state, sid, payload)
            else:
                self._deliver(state, sid, payload, None)
            with self._lock:
                state.queue.pop(0)

    # -- observability / lifecycle -------------------------------------

    def status(self) -> Dict[str, Any]:
        with self._lock:
            queued = sum(len(s.queue or ()) for s in self._states)
        lag = sum(s.lag() for s in self._states) + queued
        if self.metrics is not None:
            self.metrics.repl_lag.set(lag)
        return {
            "role": "primary",
            "mode": self.mode,
            "links": [s.status() for s in self._states],
            "queued_records": queued,
            "lag_records": lag,
        }

    def flush(self, timeout: float = 5.0) -> bool:
        """Async mode: wait for the queues to drain (tests/shutdown)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not any(s.queue for s in self._states):
                    return True
            time.sleep(0.002)
        return False

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._closed = True
        for state in self._states:
            if state.thread is not None:
                state.thread.join(timeout=5.0)
            try:
                state.link.close()
            except Exception:  # noqa: BLE001 - closing must not raise
                pass
