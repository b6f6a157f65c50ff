"""Dependency-graph partitioning (paper Section 6.3).

"To avoid waiting in this case, we maintain the dependency graph as a set
of unconnected components, each representing a separate instance of
quiescence propagation. ... For each of the above dependency graph
partitions, we keep disjoint sets of unconnected nodes using the
union/find algorithm.  New dependency graph nodes are placed in their own
unique set.  Upon adding an edge from x to y, we perform a union between
the sets that contain x and y."

The partition is the engine's unit of *scheduling*, not just of set
membership: each union-find root owns a :class:`PartitionScheduler` — a
worklist (the inconsistent set) plus drain-ownership state — so a call
to an Alphonse procedure only forces evaluation of inconsistencies in
*its own* component, and disjoint components can drain concurrently
(see :mod:`repro.core.parallel`).  The benchmark
``bench_e9_partitioning`` measures exactly this effect.

Concurrency model: the manager is lock-free in the (default) serial
configuration.  ``Runtime(parallel_drains=N)`` calls
:meth:`PartitionManager.enable_locking`, after which every mutating
operation takes the manager's re-entrant lock; drain loops additionally
serialize their pops through :meth:`guard`.  Ownership rule: at most one
thread drains a given partition at a time (:meth:`begin_drain` /
:meth:`end_drain`), and a union that absorbs a partition *another*
thread is draining marks the absorbed scheduler ``superseded`` so its
drain loop stops — the surviving scheduler inherits the remaining work.

The union-find uses path compression and union by rank, giving the
paper's quoted O(T x G(M)) bound (G = inverse Ackermann, Section 9.2).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from contextlib import nullcontext
from typing import Dict, Iterable, Iterator, List, Optional

from .events import EventBus, EventKind
from .node import DepNode

__all__ = ["InconsistentSet", "PartitionManager", "PartitionScheduler"]

#: Shared no-op guard for the serial path (entering it costs one
#: attribute load and no allocation).
_NULL_GUARD = nullcontext()


class _Item:
    """One union-find element, attached to a DepNode via partition_item."""

    __slots__ = ("parent", "rank", "node", "payload")

    def __init__(self, node: DepNode, payload: "PartitionScheduler") -> None:
        self.parent: "_Item" = self
        self.rank = 0
        self.node = node
        #: Root-only payload: this partition's scheduler (worklist +
        #: drain ownership).  Non-root items carry None after a merge.
        self.payload: Optional["PartitionScheduler"] = payload


class InconsistentSet:
    """A partition's pending-change worklist, drained in topological order.

    Implemented as a binary min-heap keyed by the node's topological
    order at insertion time, with lazy deletion (the node's
    ``in_inconsistent_set`` flag is the source of truth for membership).
    Order keys may go stale when a later edge raises a pending node's
    pseudo-height; that only degrades scheduling quality, never
    correctness, because quiescence propagation re-checks values.

    The tie-break sequence keeps heap entries from ever comparing on the
    DepNode itself (which would raise).  Sets created by a
    :class:`PartitionManager` share the manager's counter so entries
    stay comparable across :meth:`merge_from`; a standalone set (tests,
    tooling) gets a private counter.
    """

    __slots__ = ("_heap", "_size", "_tiebreak")

    def __init__(self, tiebreak: Optional[Iterator[int]] = None) -> None:
        self._heap: List[tuple] = []
        self._size = 0
        self._tiebreak = tiebreak if tiebreak is not None else itertools.count()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def add(self, node: DepNode) -> bool:
        """Insert ``node``; returns False if it was already a member."""
        if node.in_inconsistent_set:
            return False
        node.in_inconsistent_set = True
        self._push((node.order, next(self._tiebreak), node))
        self._size += 1
        return True

    def pop(self) -> Optional[DepNode]:
        """Remove and return the lowest-order member, or None if empty."""
        while self._heap:
            _, _, node = self._pop_heap()
            if node.in_inconsistent_set:
                node.in_inconsistent_set = False
                self._size -= 1
                return node
        return None

    def discard(self, node: DepNode) -> None:
        """Lazily remove ``node`` (heap entry skipped at pop time)."""
        if node.in_inconsistent_set:
            node.in_inconsistent_set = False
            self._size -= 1

    def members(self) -> List[DepNode]:
        """The distinct nodes currently in this set (diagnostics/audit).

        Walks the heap, skipping lazily-deleted entries and duplicates;
        does not disturb membership.
        """
        seen: set = set()
        out: List[DepNode] = []
        for entry in self._heap:
            node = entry[2]
            if node.in_inconsistent_set and id(node) not in seen:
                seen.add(id(node))
                out.append(node)
        return out

    def merge_from(self, other: "InconsistentSet") -> None:
        """Absorb all members of ``other`` (used when partitions union).

        Entries are re-keyed with this set's tie-break sequence: the
        two sets' counters are only guaranteed distinct when both came
        from one manager, and a heap must never fall through to
        comparing DepNodes.
        """
        for entry in other._heap:
            node = entry[2]
            if node.in_inconsistent_set:
                self._push((entry[0], next(self._tiebreak), node))
        self._size += other._size
        other._heap.clear()
        other._size = 0

    def _push(self, entry: tuple) -> None:
        heapq.heappush(self._heap, entry)

    def _pop_heap(self) -> tuple:
        return heapq.heappop(self._heap)


class PartitionScheduler:
    """One partition's unit of scheduling: worklist + drain ownership.

    Lives as the payload of its partition's union-find root.  The
    drain loop (``Scheduler.drain``) acquires exclusive ownership via
    ``PartitionManager.begin_drain`` before popping, so two threads
    never process the same partition concurrently.

    ``superseded`` flips when a union absorbs this scheduler *while a
    thread is draining it*: the remaining worklist has already been
    spliced into the surviving scheduler, so the draining thread must
    stop its loop (the survivor — or the next flush — picks the work
    up).  This is the merge protocol that makes concurrent drains safe
    against re-execution creating cross-partition edges.
    """

    __slots__ = ("pid", "incset", "active", "superseded")

    def __init__(self, pid: int, incset: InconsistentSet) -> None:
        #: Stable partition id (allocation order within the manager);
        #: tagged onto drain events so spans/metrics/WAL stay
        #: attributable per-partition.
        self.pid = pid
        self.incset = incset
        #: True while some thread owns this partition's drain.
        self.active = False
        #: True once a union absorbed this scheduler mid-drain.
        self.superseded = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "idle"
        return f"<partition p{self.pid} {state} pending={len(self.incset)}>"


class PartitionManager:
    """Union-find over dependency-graph nodes with per-root schedulers.

    With ``enabled=False`` (the ablation baseline, and the paper's default
    before Section 6.3), every node maps to a single global partition, so
    any pending inconsistency anywhere forces evaluation at every
    incremental call.
    """

    def __init__(self, events: EventBus, enabled: bool = True) -> None:
        self._events = events
        self.enabled = enabled
        #: Per-manager sequences (never module-global: two Runtimes must
        #: not share mutable scheduling state).
        self._tiebreak = itertools.count()
        self._pids = itertools.count()
        self._global = PartitionScheduler(
            next(self._pids), InconsistentSet(self._tiebreak)
        )
        #: Registry of partitions whose worklists hold members, so a
        #: global flush can find every pending partition without
        #: scanning all nodes.  Keyed by the stable partition id.
        self.dirty: Dict[int, PartitionScheduler] = {}
        #: Count of partitions currently being drained (any thread).
        self._active_drains = 0
        #: Serial runtimes never touch the lock; ``enable_locking``
        #: (parallel mode) routes every mutation through it.
        self._lock = threading.RLock()
        self.locking = False

    # -- concurrency plumbing --------------------------------------------

    def enable_locking(self) -> None:
        """Switch every mutating operation to run under the manager lock
        (called once by ``Runtime(parallel_drains=N)``)."""
        self.locking = True

    def guard(self):
        """Context manager serializing worklist access in parallel mode.

        Serial mode returns a shared no-op so the hot path stays free of
        lock traffic.
        """
        return self._lock if self.locking else _NULL_GUARD

    def begin_drain(self, part: PartitionScheduler) -> bool:
        """Claim exclusive drain ownership of ``part``; False if taken."""
        with self.guard():
            if part.active:
                return False
            part.active = True
            part.superseded = False
            self._active_drains += 1
            return True

    def end_drain(self, part: PartitionScheduler) -> None:
        """Release drain ownership and refresh the dirty registry."""
        with self.guard():
            part.active = False
            self._active_drains -= 1
            if part.superseded or not part.incset:
                self.dirty.pop(part.pid, None)
            else:
                self.dirty[part.pid] = part

    def any_active(self) -> bool:
        """True while any thread is draining any partition."""
        return self._active_drains > 0

    # -- membership ------------------------------------------------------

    def register(self, node: DepNode) -> None:
        """Place a new node in its own singleton partition (§6.3)."""
        if self.enabled:
            part = PartitionScheduler(
                next(self._pids), InconsistentSet(self._tiebreak)
            )
            node.partition_item = _Item(node, part)

    def _find(self, item: _Item) -> _Item:
        self._events.emit(EventKind.PARTITION_FIND, item.node)
        root = item
        while root.parent is not root:
            root = root.parent
        # Path compression.
        while item.parent is not root:
            item.parent, item = root, item.parent
        return root

    def _sched(self, node: DepNode) -> PartitionScheduler:
        root = self._find(node.partition_item)
        assert root.payload is not None
        return root.payload

    def sched_of(self, node: DepNode) -> PartitionScheduler:
        """The scheduler governing ``node``'s partition."""
        if not self.enabled:
            return self._global
        if self.locking:
            with self._lock:
                return self._sched(node)
        return self._sched(node)

    def set_of(self, node: DepNode) -> InconsistentSet:
        """The inconsistent set governing ``node``'s partition."""
        return self.sched_of(node).incset

    def partition_id(self, node: DepNode) -> int:
        """Stable id of ``node``'s current partition (diagnostics)."""
        return self.sched_of(node).pid

    def union(self, a: DepNode, b: DepNode) -> None:
        """Merge the partitions of ``a`` and ``b`` (on edge creation)."""
        if not self.enabled:
            return
        if self.locking:
            with self._lock:
                self._union(a, b)
        else:
            self._union(a, b)

    def _union(self, a: DepNode, b: DepNode) -> None:
        ra = self._find(a.partition_item)
        rb = self._find(b.partition_item)
        if ra is rb:
            return
        self._events.emit(EventKind.PARTITION_UNION, a, data=b)
        if ra.rank < rb.rank:
            ra, rb = rb, ra
        rb.parent = ra
        if ra.rank == rb.rank:
            ra.rank += 1
        keeper = ra.payload
        loser = rb.payload
        assert keeper is not None and loser is not None
        # Merge protocol: a live drain keeps draining its own worklist,
        # so the active side's scheduler survives the merge regardless
        # of union-by-rank's choice of root.  With both sides active
        # (two threads, the parallel-only case) the rank winner survives
        # and the other drain observes ``superseded`` and stops.
        if loser.active and not keeper.active:
            keeper, loser = loser, keeper
        keeper.incset.merge_from(loser.incset)
        if loser.active:
            loser.superseded = True
        self.dirty.pop(loser.pid, None)
        if keeper.incset:
            self.dirty[keeper.pid] = keeper
        ra.payload = keeper
        rb.payload = None

    def mark(self, node: DepNode) -> bool:
        """Add ``node`` to its partition's worklist.

        Returns True if it was newly added.  Keeps the dirty registry
        up to date so :meth:`pending_parts` sees this partition.
        """
        if self.locking:
            with self._lock:
                return self._mark(node)
        return self._mark(node)

    def _mark(self, node: DepNode) -> bool:
        part = self._global if not self.enabled else self._sched(node)
        if part.incset.add(node):
            self.dirty[part.pid] = part
            self._events.emit(EventKind.INCONSISTENT_MARKED, node)
            return True
        return False

    def discard(self, node: DepNode) -> None:
        """Drop ``node`` from its partition's worklist (disposal path)."""
        if self.locking:
            with self._lock:
                self.set_of(node).discard(node)
        else:
            self.set_of(node).discard(node)

    def note_drained(self, drained: PartitionScheduler) -> None:
        """Drop an emptied partition from the dirty registry."""
        if not drained.incset:
            self.dirty.pop(drained.pid, None)

    def pending_parts(self) -> List[PartitionScheduler]:
        """Every partition that may hold pending work, for a full flush."""
        with self.guard():
            return [p for p in list(self.dirty.values()) if p.incset]

    def has_pending(self) -> bool:
        return any(p.incset for p in self.dirty.values())

    def same_partition(self, a: DepNode, b: DepNode) -> bool:
        if not self.enabled:
            return True
        return self._find(a.partition_item) is self._find(b.partition_item)

    def all_parts(
        self, nodes: Iterable[DepNode]
    ) -> List[PartitionScheduler]:
        """Distinct partitions among ``nodes`` (diagnostics)."""
        if not self.enabled:
            return [self._global]
        seen: Dict[int, PartitionScheduler] = {}
        for node in nodes:
            root = self._find(node.partition_item)
            assert root.payload is not None
            seen[id(root)] = root.payload
        return list(seen.values())
