"""Operation counters for the incremental runtime.

Section 9 of the paper analyzes Alphonse in terms of abstract operation
counts (graph nodes and edges created, procedure executions, propagation
steps) rather than machine time.  This module is the measurement
substrate the benchmark harness asserts complexity *shapes* on: counters
are machine-independent, so "repeat queries are O(1)" or "a change costs
O(height)" can be checked deterministically.

Counters are maintained by :class:`StatsCollector`, an
:class:`~repro.core.events.EventBus` subscriber — the engine itself
never touches a counter.  ``Runtime.stats`` is the collector's
:class:`RuntimeStats`, so the measurement API is unchanged from the
pre-layered engine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from .events import EventBus, EventKind
from .node import NodeKind


@dataclass
class RuntimeStats:
    """Counters incremented by the runtime as it works.

    All counters are cumulative since construction or the last
    :meth:`reset`.  :meth:`snapshot`/:meth:`delta` support measuring a
    single operation's cost.
    """

    #: Dependency-graph nodes created, by cause.
    storage_nodes_created: int = 0
    procedure_nodes_created: int = 0

    #: Edge lifecycle (Section 9.2 charges removal cost to creation).
    edges_created: int = 0
    edges_removed: int = 0

    #: Incremental procedure body executions (the expensive events that
    #: incrementality exists to avoid).
    executions: int = 0
    #: Calls satisfied from a consistent cached value (Algorithm 5's
    #: "IF consistent(n) THEN RETURN value(n)").
    cache_hits: int = 0
    #: Calls that found an existing but inconsistent node.
    cache_misses: int = 0
    #: Cache entries discarded by a bounded replacement policy.
    cache_evictions: int = 0

    #: Tracked reads/writes (the access/modify operations of Section 5).
    accesses: int = 0
    modifies: int = 0
    #: Writes whose new value differed from the cached one and therefore
    #: entered the inconsistent set (Section 4.4).
    changes_detected: int = 0

    #: Quiescence-propagation work (Section 4.5).
    propagation_steps: int = 0
    eager_reexecutions: int = 0
    #: Eager re-executions whose result equalled the cached value, halting
    #: propagation along that path ("quiescence").
    quiescent_stops: int = 0
    #: Times a call to an Alphonse procedure preempted execution to flush
    #: the inconsistent set (Algorithm 5's Evaluate call).
    forced_evaluations: int = 0

    #: Topological-order maintenance work (edge insertions that raised
    #: pseudo-heights).
    order_shifts: int = 0

    #: Union-find operations for graph partitioning (Section 6.3).
    partition_unions: int = 0
    partition_finds: int = 0

    #: Dependency edges suppressed inside unchecked() regions (§6.4).
    unchecked_suppressions: int = 0

    #: Nodes newly added to a partition's inconsistent set (a superset
    #: of changes_detected: propagation marking counts too).
    inconsistent_marks: int = 0

    #: Completed top-level scheduler drains that performed >= 1 step.
    drains: int = 0
    #: Drains torn down by an escaping exception (watchdog trip, strict
    #: cycle, KeyboardInterrupt); pending work is re-marked, not lost.
    drains_aborted: int = 0

    #: Procedure bodies whose containable failure was captured into a
    #: Poisoned cached value instead of aborting propagation.
    nodes_poisoned: int = 0

    #: ``rt.batch(rollback_on_error=True)`` blocks that raised and had
    #: their writes rewound to the pre-batch values.
    rollbacks: int = 0

    #: ``with rt.batch():`` commits, the distinct locations those
    #: commits wrote, and repeated same-location writes coalesced into a
    #: single change check.
    batch_commits: int = 0
    batch_writes: int = 0
    batch_writes_coalesced: int = 0

    #: Watchdog budgets tripped (each precedes a drain abort).
    watchdog_trips: int = 0

    #: Failed body runs re-executed by the resilience layer
    #: (:mod:`repro.resil`) before containment could poison them.
    retries: int = 0
    #: Circuit-breaker state changes (closed/open/half-open edges).
    breaker_transitions: int = 0
    #: Procedure bodies that overran their configured deadline.
    deadlines_exceeded: int = 0
    #: Degraded reads that served a poisoned node's last-known-good
    #: value (``rt.read(..., staleness=ALLOW_STALE)``).
    stale_reads: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Return a copy of all counters as a plain dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increases since ``before`` (a prior :meth:`snapshot`)."""
        return {
            name: now - before.get(name, 0)
            for name, now in self.snapshot().items()
        }

    @property
    def live_edges(self) -> int:
        """Edges currently attached to the graph."""
        return self.edges_created - self.edges_removed

    def summary(self) -> str:
        """A compact multi-line report, for examples and debugging."""
        snap = self.snapshot()
        width = max(len(name) for name in snap)
        lines = [f"{name:<{width}}  {value}" for name, value in snap.items() if value]
        return "\n".join(lines) if lines else "(no operations recorded)"


#: Event kinds that map one-to-one onto a counter; the handler adds the
#: event's ``amount`` to the named field.
_COUNTER_FOR = {
    EventKind.EDGE_ADDED: "edges_created",
    EventKind.EDGE_REMOVED: "edges_removed",
    EventKind.ORDER_SHIFTED: "order_shifts",
    EventKind.ACCESS: "accesses",
    EventKind.MODIFY: "modifies",
    EventKind.CHANGE_DETECTED: "changes_detected",
    EventKind.INCONSISTENT_MARKED: "inconsistent_marks",
    EventKind.EXECUTION: "executions",
    EventKind.CACHE_HIT: "cache_hits",
    EventKind.CACHE_MISS: "cache_misses",
    EventKind.CACHE_EVICTION: "cache_evictions",
    EventKind.PROPAGATION_STEP: "propagation_steps",
    EventKind.EAGER_REEXECUTION: "eager_reexecutions",
    EventKind.QUIESCENCE_CUT: "quiescent_stops",
    EventKind.FORCED_EVALUATION: "forced_evaluations",
    EventKind.UNCHECKED_SUPPRESSION: "unchecked_suppressions",
    EventKind.PARTITION_UNION: "partition_unions",
    EventKind.PARTITION_FIND: "partition_finds",
    EventKind.NODE_POISONED: "nodes_poisoned",
    EventKind.ROLLBACK: "rollbacks",
    EventKind.WATCHDOG_TRIPPED: "watchdog_trips",
    EventKind.RETRY: "retries",
    EventKind.BREAKER_STATE: "breaker_transitions",
    EventKind.DEADLINE_EXCEEDED: "deadlines_exceeded",
    EventKind.STALE_READ: "stale_reads",
}

#: Span-boundary kinds whose occurrences are already counted by their
#: paired end event; counting both would double-report the operation.
SPAN_OPEN_KINDS = frozenset(
    {
        EventKind.EXECUTION_STARTED,  # counted by EXECUTION
        EventKind.DRAIN_STARTED,  # counted by DRAIN / DRAIN_ABORTED
        EventKind.BATCH_STARTED,  # counted by BATCH_COMMIT / ROLLBACK
        EventKind.FORCED_EVALUATION_STARTED,  # counted by FORCED_EVALUATION
    }
)


class StatsCollector:
    """EventBus subscriber that maintains a :class:`RuntimeStats`.

    The only component allowed to increment counters.  Handlers are
    per-kind closures over the stats object (no per-event dict lookup),
    keeping the tracked-read hot path cheap.
    """

    def __init__(self, stats: Optional[RuntimeStats] = None) -> None:
        self.stats = stats if stats is not None else RuntimeStats()
        self._bus: Optional[EventBus] = None
        self._handlers: Dict[EventKind, Any] = {}

    def attach(self, bus: EventBus) -> "StatsCollector":
        """Subscribe every counter handler to ``bus``."""
        if self._bus is not None:
            raise RuntimeError("StatsCollector is already attached")
        stats = self.stats
        for kind, name in _COUNTER_FOR.items():
            self._handlers[kind] = bus.subscribe(kind, _adder(stats, name))
        self._handlers[EventKind.NODE_CREATED] = bus.subscribe(
            EventKind.NODE_CREATED, self._on_node_created
        )
        self._handlers[EventKind.BATCH_COMMIT] = bus.subscribe(
            EventKind.BATCH_COMMIT, self._on_batch_commit
        )
        self._handlers[EventKind.DRAIN] = bus.subscribe(
            EventKind.DRAIN, self._on_drain
        )
        self._handlers[EventKind.DRAIN_ABORTED] = bus.subscribe(
            EventKind.DRAIN_ABORTED, self._on_drain_aborted
        )
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is None:
            return
        for kind, handler in self._handlers.items():
            self._bus.unsubscribe(kind, handler)
        self._handlers.clear()
        self._bus = None

    # -- structured handlers --------------------------------------------

    def _on_node_created(
        self, kind: EventKind, node: Any, amount: int, data: Any
    ) -> None:
        if node is not None and node.kind is NodeKind.STORAGE:
            self.stats.storage_nodes_created += amount
        else:
            self.stats.procedure_nodes_created += amount

    def _on_batch_commit(
        self, kind: EventKind, node: Any, amount: int, data: Any
    ) -> None:
        self.stats.batch_commits += amount
        if data:
            self.stats.batch_writes += data.get("writes", 0)
            self.stats.batch_writes_coalesced += data.get("coalesced", 0)

    def _on_drain(
        self, kind: EventKind, node: Any, amount: int, data: Any
    ) -> None:
        # DRAIN's ``amount`` is the step count; the counter tracks passes.
        self.stats.drains += 1

    def _on_drain_aborted(
        self, kind: EventKind, node: Any, amount: int, data: Any
    ) -> None:
        # DRAIN_ABORTED's ``amount`` is the steps completed pre-abort.
        self.stats.drains_aborted += 1


def _adder(stats: RuntimeStats, name: str):
    def handle(kind: EventKind, node: Any, amount: int, data: Any) -> None:
        setattr(stats, name, getattr(stats, name) + amount)

    return handle
