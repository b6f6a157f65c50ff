"""Typed runtime events — the observability layer of the engine.

The paper's introduction promises that "the dependency information
maintained by Alphonse programs enables a host of other benefits
including eager evaluation, sophisticated debugging, and parallel
execution".  This module is the channel those benefits flow through: the
storage/graph kernel, the scheduler, and the transaction layer announce
everything they do on an :class:`EventBus`, and every consumer —
operation counters (:class:`~repro.core.stats.StatsCollector`), the
execution recorder (:func:`repro.core.debug.record`), structured trace
export (:class:`TraceExporter`) — is just a subscriber.  The engine
itself never increments a counter directly.

Design constraints:

* **Hot-path cheap.**  ``emit`` is called on every tracked read, so it
  allocates nothing: events are dispatched as four positional arguments
  ``(kind, node, amount, data)`` rather than event objects.
* **Typed.**  Event kinds are members of :class:`EventKind`; subscribers
  register per kind (or for all kinds) and are dispatched from a plain
  dict, so an unobserved kind costs one dictionary lookup.
"""

from __future__ import annotations

import enum
import json
import threading
from typing import Any, Callable, Dict, List, Optional

__all__ = ["EventKind", "EventBus", "Handler", "TraceExporter"]


class EventKind(enum.Enum):
    """Everything the engine can announce.

    The ``node`` argument of a handler is the :class:`~repro.core.node.DepNode`
    the event concerns (None where no node applies); ``amount`` batches
    homogeneous occurrences (e.g. several edges removed at once);
    ``data`` carries kind-specific payload, documented per member.
    """

    #: A dependency-graph node was created (storage or procedure).
    NODE_CREATED = "node-created"
    #: A new edge src -> dst was attached; ``node`` is src, ``data`` is
    #: dst.  A re-execution that reads src again keeps the old edge and
    #: announces nothing.
    EDGE_ADDED = "edge-added"
    #: ``amount`` in-/out-edges of ``node`` were detached: by disposal,
    #: by a re-entrant activation, or, once per activation, the old
    #: in-edges a re-execution did not read again.
    EDGE_REMOVED = "edge-removed"
    #: An edge insertion raised pseudo-heights (``amount`` is 1).
    ORDER_SHIFTED = "order-shifted"

    #: A tracked read (Algorithm 3); ``node`` may be None if the
    #: location has no graph node yet.
    ACCESS = "access"
    #: A tracked write (Algorithm 4), before change detection.
    MODIFY = "modify"
    #: A write's new value differed from the cached one (§4.4).
    CHANGE_DETECTED = "change-detected"
    #: ``node`` entered its partition's inconsistent set.
    INCONSISTENT_MARKED = "inconsistent-marked"

    #: A procedure body is about to execute (the span-open mate of
    #: :attr:`EXECUTION`; a body that raises emits no EXECUTION, so span
    #: consumers must recover from an unmatched start).
    EXECUTION_STARTED = "execution-started"
    #: A procedure body finished executing; ``data`` is True if the
    #: activation committed its result to the cache (see
    #: ``Runtime.execute_node`` on re-entrancy), False otherwise.
    EXECUTION = "execution"
    #: A call answered from a consistent cached value.
    CACHE_HIT = "cache-hit"
    #: A call found an existing but inconsistent node.
    CACHE_MISS = "cache-miss"
    #: A bounded replacement policy discarded a cache entry.
    CACHE_EVICTION = "cache-eviction"

    #: One node processed during quiescence propagation (§4.5).
    PROPAGATION_STEP = "propagation-step"
    #: An eager node re-executed during propagation.
    EAGER_REEXECUTION = "eager-reexecution"
    #: An eager re-execution reproduced the cached value, cutting
    #: propagation along that path ("quiescence", §2).
    QUIESCENCE_CUT = "quiescence-cut"
    #: An incremental call is about to flush pending changes (the
    #: span-open mate of :attr:`FORCED_EVALUATION`).
    FORCED_EVALUATION_STARTED = "forced-evaluation-started"
    #: An incremental call preempted execution to flush pending changes
    #: (Algorithm 5's Evaluate call).
    FORCED_EVALUATION = "forced-evaluation"
    #: A scheduler drain is starting; ``amount`` is the number of nodes
    #: pending in the inconsistent set(s) about to be drained (the
    #: span-open mate of :attr:`DRAIN` / :attr:`DRAIN_ABORTED`).  For a
    #: single-partition drain ``data`` is ``{"partition": pid}``; a
    #: budgeted multi-partition pass carries no partition.
    DRAIN_STARTED = "drain-started"
    #: A top-level scheduler drain completed; ``amount`` is the number
    #: of propagation steps it performed; ``data`` carries the partition
    #: id as in :attr:`DRAIN_STARTED`.
    DRAIN = "drain"
    #: A drain was torn down by an escaping exception; ``node`` is the
    #: node in flight (re-marked pending, None if selection itself
    #: failed), ``amount`` the steps completed before the abort, and
    #: ``data`` the exception class name.
    DRAIN_ABORTED = "drain-aborted"

    #: A procedure body raised a containable exception and its node now
    #: caches a :class:`~repro.core.node.Poisoned` value; ``data`` is a
    #: dict with ``error`` (exception class name) and ``origin`` (label
    #: of the root-cause node — differs from ``node`` when poison
    #: propagated from an input).
    NODE_POISONED = "node-poisoned"

    #: A read/call inside an ``unchecked()`` region skipped edge
    #: creation (§6.4).
    UNCHECKED_SUPPRESSION = "unchecked-suppression"

    #: An outermost ``with rt.batch():`` block opened (the span-open
    #: mate of :attr:`BATCH_COMMIT` / :attr:`ROLLBACK`).
    BATCH_STARTED = "batch-started"
    #: A ``with rt.batch():`` block committed; ``data`` is a dict with
    #: ``writes`` (distinct locations written) and ``coalesced``
    #: (repeated writes absorbed into their location's final value).
    BATCH_COMMIT = "batch-commit"
    #: A ``with rt.batch(rollback_on_error=True):`` block raised and
    #: restored every written location to its pre-batch value; ``data``
    #: is a dict with ``restored`` (locations rewound) and ``marked``
    #: (locations whose mid-batch value had leaked to a reader and were
    #: conservatively re-marked inconsistent).
    ROLLBACK = "rollback"

    #: A union-find union/find was performed (§6.3 bookkeeping).
    PARTITION_UNION = "partition-union"
    PARTITION_FIND = "partition-find"

    #: A :class:`~repro.core.watchdog.Watchdog` budget tripped; ``node``
    #: is the node being processed when the budget was exceeded and
    #: ``data`` a dict with ``budget`` (which budget: "steps",
    #: "wall-time", "livelock") and ``hot`` (the hot-node report).  The
    #: matching :attr:`DRAIN_ABORTED` follows as the drain unwinds.
    WATCHDOG_TRIPPED = "watchdog-tripped"

    #: A checkpoint snapshot was written (``rt.checkpoint(path)`` /
    #: ``PersistenceManager.checkpoint``); ``node`` is None, ``data`` a
    #: dict with ``path`` and ``nodes`` (graph nodes persisted).
    CHECKPOINT = "checkpoint"
    #: One record was appended to the write-ahead log; ``node`` is None,
    #: ``data`` a dict with ``kind`` ("write", "batch", or "app").
    WAL_APPEND = "wal-append"
    #: A runtime was reconstructed from durable state
    #: (``Runtime.recover``); ``node`` is None, ``data`` the
    #: :class:`~repro.persist.recover.RecoveryReport` as a dict.
    RECOVERY = "recovery"

    #: The resilience layer is re-running a failed procedure body
    #: (:mod:`repro.resil`); ``data`` is a dict with ``attempt`` (the
    #: 1-based attempt that just failed), ``error`` (exception class
    #: name), and ``delay`` (backoff seconds before the re-run).
    RETRY = "retry"
    #: A per-procedure circuit breaker changed state; ``data`` is a dict
    #: with ``procedure`` and the ``from``/``to`` states (``closed`` /
    #: ``open`` / ``half-open``).
    BREAKER_STATE = "breaker-state"
    #: A procedure body overran its configured ``deadline_seconds``;
    #: ``data`` is a dict with ``deadline_seconds`` and ``elapsed``.
    #: The containable ``DeadlineExceeded`` poisoning follows.
    DEADLINE_EXCEEDED = "deadline-exceeded"
    #: A degraded read (``rt.read(..., staleness=ALLOW_STALE)``) served
    #: a poisoned node's last-known-good value; ``node`` is None,
    #: ``data`` a dict with ``label``, ``origin``, and ``age_seconds``.
    STALE_READ = "stale-read"


#: Subscriber signature: ``handler(kind, node, amount, data)``.
Handler = Callable[[EventKind, Any, int, Any], None]


class EventBus:
    """Per-runtime synchronous publish/subscribe dispatcher.

    Handlers subscribed to a specific kind run before handlers
    subscribed to all kinds; within each group, in subscription order.
    Dispatch is synchronous and unguarded: a raising handler propagates
    to the emitting operation, exactly like the hand-written counter
    updates it replaces.

    Threading: a bus is single-threaded by default (one ``is None``
    check on the hot path).  :meth:`use_lock` — called by
    ``Runtime(parallel_drains=N)`` — serializes whole emits under a
    re-entrant lock so handlers with internal state (stats counters,
    span tracers, the WAL) see events one at a time even when disjoint
    partitions drain concurrently.  The lock is re-entrant because
    handlers may themselves emit (the WAL announces its appends).
    """

    __slots__ = ("_by_kind", "_all", "_lock")

    def __init__(self) -> None:
        self._by_kind: Dict[EventKind, List[Handler]] = {}
        self._all: List[Handler] = []
        self._lock: Optional[threading.RLock] = None

    def use_lock(self) -> None:
        """Serialize emits under an RLock (parallel-drain mode)."""
        if self._lock is None:
            self._lock = threading.RLock()

    # -- subscription ----------------------------------------------------

    def subscribe(self, kind: EventKind, handler: Handler) -> Handler:
        """Invoke ``handler`` for every event of ``kind``; returns it."""
        self._by_kind.setdefault(kind, []).append(handler)
        return handler

    def unsubscribe(self, kind: EventKind, handler: Handler) -> None:
        """Remove one prior subscription (no-op if absent)."""
        handlers = self._by_kind.get(kind)
        if handlers is not None:
            try:
                handlers.remove(handler)
            except ValueError:
                pass
            if not handlers:
                del self._by_kind[kind]

    def subscribe_all(self, handler: Handler) -> Handler:
        """Invoke ``handler`` for every event of every kind."""
        self._all.append(handler)
        return handler

    def unsubscribe_all(self, handler: Handler) -> None:
        try:
            self._all.remove(handler)
        except ValueError:
            pass

    def subscriber_count(self, kind: Optional[EventKind] = None) -> int:
        """Number of handlers that would see an event of ``kind``
        (or only the subscribe-all handlers when ``kind`` is None)."""
        if kind is None:
            return len(self._all)
        return len(self._by_kind.get(kind, ())) + len(self._all)

    # -- dispatch --------------------------------------------------------

    def emit(
        self,
        kind: EventKind,
        node: Any = None,
        amount: int = 1,
        data: Any = None,
    ) -> None:
        """Announce one event.  Mutating subscriptions for ``kind`` from
        inside a handler of that same kind is not supported."""
        lock = self._lock
        if lock is None:
            handlers = self._by_kind.get(kind)
            if handlers is not None:
                for handler in handlers:
                    handler(kind, node, amount, data)
            if self._all:
                for handler in self._all:
                    handler(kind, node, amount, data)
            return
        with lock:
            handlers = self._by_kind.get(kind)
            if handlers is not None:
                for handler in handlers:
                    handler(kind, node, amount, data)
            if self._all:
                for handler in self._all:
                    handler(kind, node, amount, data)


class TraceExporter:
    """Structured-trace subscriber: records events, exports JSON lines.

    Attach to a runtime's bus to capture a machine-readable execution
    trace — the "sophisticated debugging" artifact layered observability
    makes cheap::

        trace = TraceExporter()
        with trace.capture(rt):
            sheet.put(1, 1, "= R2C2 + 1")
            sheet.value_at(1, 1)
        trace.write("trace.jsonl")

    Each record is ``{"seq", "event", "node", "node_id", "node_kind",
    "amount", "data"}`` with graph nodes rendered by label so traces
    survive serialization.  ``limit`` bounds memory on unbounded runs:
    once reached, older records are dropped (the trace keeps the tail).
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        self.records: List[Dict[str, Any]] = []
        self.limit = limit
        self._seq = 0
        self._bus: Optional[EventBus] = None

    # -- subscription lifecycle -----------------------------------------

    def attach(self, bus: EventBus) -> "TraceExporter":
        if self._bus is not None:
            raise RuntimeError("TraceExporter is already attached")
        bus.subscribe_all(self._handle)
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe_all(self._handle)
            self._bus = None

    def capture(self, runtime_or_bus: Any):
        """Context manager: attach for the duration of the block."""
        bus = getattr(runtime_or_bus, "events", runtime_or_bus)
        exporter = self

        class _Capture:
            def __enter__(self) -> "TraceExporter":
                exporter.attach(bus)
                return exporter

            def __exit__(self, *exc_info: Any) -> None:
                exporter.detach()

        return _Capture()

    # -- recording -------------------------------------------------------

    def _handle(self, kind: EventKind, node: Any, amount: int, data: Any) -> None:
        record: Dict[str, Any] = {
            "seq": self._seq,
            "event": kind.value,
            "node": getattr(node, "label", None),
            "node_id": getattr(node, "node_id", None),
            "node_kind": getattr(getattr(node, "kind", None), "value", None),
            "amount": amount,
            "data": self._render(data),
        }
        self._seq += 1
        self.records.append(record)
        if self.limit is not None and len(self.records) > self.limit:
            del self.records[: len(self.records) - self.limit]

    @staticmethod
    def _render(data: Any) -> Any:
        if data is None or isinstance(data, (bool, int, float, str)):
            return data
        label = getattr(data, "label", None)
        if label is not None:
            return label
        if isinstance(data, dict):
            return {str(k): TraceExporter._render(v) for k, v in data.items()}
        if isinstance(data, (list, tuple)):
            return [TraceExporter._render(v) for v in data]
        return repr(data)

    # -- export ----------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Recorded occurrences per event name (amount-weighted)."""
        out: Dict[str, int] = {}
        for record in self.records:
            out[record["event"]] = out.get(record["event"], 0) + record["amount"]
        return out

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)

    def write(self, path: str) -> int:
        """Write the trace as JSON lines; returns the record count."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)
