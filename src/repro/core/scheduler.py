"""Propagation scheduling (paper Section 4.5) behind one interface.

The evaluation routine drains an inconsistent set:

* "If u represents a storage location, all elements of succ(u) are added
  to the inconsistent set."
* "If u represents a demand incremental procedure instance, if
  consistent(u) is true, then we set it to false and add all elements of
  succ(u) to the inconsistent set."
* "If u represents an eager incremental procedure instance p, p is
  re-executed.  If the result value is different from value(u), all
  elements of succ(u) are added to the inconsistent set."

The third rule is the quiescence cut: propagation stops along paths
where recomputation reproduced the cached value (Section 2).

*What* happens per node is fixed by the paper; *which pending node goes
next* is a policy.  The paper itself observes that "the amount of
computation is minimized when done in a topological order with respect
to the graph, and much research has been directed at algorithms to
compute this order" — i.e. the order is a pluggable heuristic, not a
correctness requirement.  :class:`Scheduler` fixes the processing rules
and the drain lifecycles (full drain, budgeted drain, global flush) and
leaves node selection to subclasses:

* :class:`TopologicalScheduler` — the default and the pre-refactor
  ``Evaluator``: pops the inconsistent set's min-heap, which is keyed by
  the maintained pseudo-height of :mod:`repro.core.order` — Hoover's
  priority evaluation [Hoo86/87].
* :class:`HeightOrderedScheduler` — processes pending nodes in
  ascending *dependency height* (longest path from storage), the
  priority used by Hoover's earlier aggregate-update work and by
  Incremental-style engines.  Heights are computed exactly per refill,
  so it trades scheduling bookkeeping for immunity to heap keys that
  went stale after insertion and to pseudo-heights that are never
  lowered when edges go away.

The unit of draining is a partition (:class:`PartitionScheduler`), not
the runtime: :meth:`Scheduler.drain` claims one partition, processes it
to empty, and releases it.  Policy state (e.g. the height policy's
refill buffer) is allocated per drain, never on the scheduler instance,
so disjoint partitions can drain concurrently on a thread pool (see
:mod:`repro.core.parallel`) through one shared Scheduler.

Schedulers announce their work on the runtime's event bus
(``PROPAGATION_STEP``, ``EAGER_REEXECUTION``, ``QUIESCENCE_CUT``,
``DRAIN``) and never touch counters directly; drain boundary events
carry their partition id in ``data``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Type, Union

from .errors import EvaluationLimitError, NodeExecutionError
from .events import EventKind
from .node import DepNode, NodeKind, Poisoned, values_equal
from .partition import PartitionScheduler

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

__all__ = [
    "Scheduler",
    "TopologicalScheduler",
    "HeightOrderedScheduler",
    "SCHEDULERS",
    "make_scheduler",
]


class Scheduler:
    """Drains partitions' inconsistent sets for one runtime.

    Re-entrancy: eager re-execution can itself call incremental
    procedures, which per Algorithm 5 would try to force evaluation
    again.  We suppress nested forcing per *thread* (the runtime's
    execution context tracks a drain depth) — the outer drain loop will
    reach any newly marked nodes anyway (they land in the same or a
    merged partition's set).  Cross-thread exclusion is per *partition*:
    ``begin_drain`` claims ownership, so two threads drain a partition
    never, and disjoint partitions freely in parallel.

    Subclasses override :meth:`_next` (node selection) and optionally
    :meth:`_begin_drain` / :meth:`_abort_drain` (per-drain state — a
    fresh state object per drain keeps concurrent drains independent).
    """

    #: Registry key; subclasses set a unique one.
    name = "abstract"

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime

    @property
    def active(self) -> bool:
        """True while *this thread* is inside a drain."""
        return self.runtime._context.drain_depth > 0

    # -- selection policy (subclass interface) ---------------------------

    def _begin_drain(self):
        """Allocate per-drain selection state (None for stateless)."""
        return None

    def _next(
        self, part: PartitionScheduler, state
    ) -> Optional[DepNode]:
        """Choose and remove the next pending node, or None when done."""
        raise NotImplementedError

    def _abort_drain(self, part: PartitionScheduler, state) -> None:
        """Return privately buffered nodes to the partition's worklist."""

    # -- drain lifecycles ------------------------------------------------

    def drain(self, part: PartitionScheduler) -> int:
        """Process one partition to empty; returns the number of steps.

        Returns 0 without draining when this thread is already inside a
        drain (nested forcing suppressed) or another thread owns this
        partition.

        Abort safety: if anything escapes — a watchdog trip, a strict-
        mode cycle, a KeyboardInterrupt — the node in flight is returned
        to its partition's inconsistent set along with any privately
        buffered nodes (:meth:`_abort_drain`), so no pending work is
        stranded and the next flush resumes exactly where this drain
        stopped.
        """
        rt = self.runtime
        ctx = rt._context
        if ctx.drain_depth:
            return 0
        partitions = rt.partitions
        if not partitions.begin_drain(part):
            return 0
        emit = rt.events.emit
        limit = rt.eval_limit
        watchdog = rt.watchdog
        budget = None
        if watchdog is not None and watchdog.enabled:
            budget = watchdog.begin()
        steps = 0
        current: Optional[DepNode] = None
        state = self._begin_drain()
        guard = partitions.guard()
        ctx.drain_depth += 1
        if len(part.incset):
            # A non-empty set always yields >= 1 step, so the paired
            # DRAIN / DRAIN_ABORTED end event is guaranteed to follow.
            emit(
                EventKind.DRAIN_STARTED,
                None,
                amount=len(part.incset),
                data={"partition": part.pid},
            )
        try:
            while not part.superseded:
                with guard:
                    current = self._next(part, state)
                if current is None:
                    break
                steps += 1
                emit(EventKind.PROPAGATION_STEP, current)
                if limit is not None and steps > limit:
                    raise EvaluationLimitError(limit)
                if budget is not None:
                    budget.step(current)
                self._process(current)
                current = None
        except BaseException as exc:
            if current is not None:
                partitions.mark(current)
            self._abort_drain(part, state)
            emit(
                EventKind.DRAIN_ABORTED,
                current,
                amount=steps,
                data=type(exc).__name__,
            )
            raise
        finally:
            ctx.drain_depth -= 1
            partitions.end_drain(part)
            if steps:
                emit(
                    EventKind.DRAIN,
                    None,
                    amount=steps,
                    data={"partition": part.pid},
                )
        return steps

    def drain_budget(self, max_steps: int) -> int:
        """Spend up to ``max_steps`` of propagation work, then stop.

        The paper's idle-cycles mode: "the evaluation routine should be
        called whenever cycles are available (input/output, etc) and can
        be preempted when necessary."  Unlike :meth:`drain`, running out
        of budget is not an error — remaining work stays pending and the
        next call (or the next forced evaluation) continues it.
        """
        rt = self.runtime
        ctx = rt._context
        if ctx.drain_depth or max_steps <= 0:
            return 0
        partitions = rt.partitions
        emit = rt.events.emit
        watchdog = rt.watchdog
        budget = None
        if watchdog is not None and watchdog.enabled:
            budget = watchdog.begin()
        done = 0
        pending_size = sum(len(p.incset) for p in partitions.pending_parts())
        if pending_size:
            emit(EventKind.DRAIN_STARTED, None, amount=pending_size)
        guard = partitions.guard()
        ctx.drain_depth += 1
        try:
            while done < max_steps:
                pending = partitions.pending_parts()
                if not pending:
                    break
                for part in pending:
                    if not partitions.begin_drain(part):
                        continue
                    state = self._begin_drain()
                    node: Optional[DepNode] = None
                    try:
                        while done < max_steps and not part.superseded:
                            with guard:
                                node = self._next(part, state)
                            if node is None:
                                break
                            done += 1
                            emit(EventKind.PROPAGATION_STEP, node)
                            if budget is not None:
                                budget.step(node)
                            self._process(node)
                            node = None
                    except BaseException as exc:
                        if node is not None:
                            partitions.mark(node)
                        self._abort_drain(part, state)
                        emit(
                            EventKind.DRAIN_ABORTED,
                            node,
                            amount=done,
                            data=type(exc).__name__,
                        )
                        raise
                    finally:
                        # Budget exhaustion must not orphan privately
                        # buffered nodes: hand them back before moving on.
                        if node is None:
                            self._abort_drain(part, state)
                        partitions.end_drain(part)
                    if done >= max_steps:
                        break
        finally:
            ctx.drain_depth -= 1
            if done:
                emit(EventKind.DRAIN, None, amount=done)
        return done

    def drain_all(self) -> int:
        """Flush every pending partition (a global "evaluate now").

        With ``Runtime(parallel_drains=N)`` the flush fans pending
        partitions out to the parallel executor; otherwise each drains
        in turn on the calling thread.
        """
        rt = self.runtime
        if rt._context.drain_depth:
            return 0
        executor = rt._parallel
        if executor is not None:
            return executor.drain_pending()
        total = 0
        # Draining one set can dirty another (via cross-partition unions
        # created by re-execution), so loop to a fixpoint.
        while True:
            pending = rt.partitions.pending_parts()
            if not pending:
                break
            progressed = False
            for part in pending:
                steps = self.drain(part)
                total += steps
                if steps or not part.incset:
                    # Emptied by draining, a merge, or lazy discard.
                    progressed = True
            if not progressed:
                break  # every remaining partition is owned elsewhere
        return total

    # -- the paper's per-node processing rules (fixed) -------------------

    def _process(self, node: DepNode) -> None:
        rt = self.runtime
        if node.kind is NodeKind.STORAGE:
            # The storage's node.value was already refreshed by modify();
            # just wake the dependents.
            self._mark_successors(node)
        elif node.kind is NodeKind.DEMAND:
            if node.consistent:
                node.consistent = False
                self._mark_successors(node)
        else:  # EAGER: re-execute now, propagate only on value change
            if node.thunk is None:
                # A checkpoint-restored eager node whose procedure has
                # not been re-called yet: there is no body to run, so it
                # degrades to demand behaviour — flip the flag, wake the
                # dependents, and let the eventual adopting call
                # re-execute it.
                if node.consistent:
                    node.consistent = False
                    self._mark_successors(node)
                return
            if rt._poison_live and rt.containment:
                # Error containment: an eager node whose input is
                # currently poisoned becomes poisoned itself without
                # re-running its body — the body would only re-raise
                # through the poisoned read, and skipping it keeps the
                # drain deterministic.
                source = self._poisoned_input(node)
                if source is not None:
                    rt._poison_from_input(node, source)
                    self._mark_successors(node)
                    return
            resil = rt._resilience
            if resil is not None and rt.containment:
                # Quarantine: a procedure whose circuit breaker is open
                # is known-bad — poison without burning drain budget on
                # its body.  The next demand read half-open-probes it
                # (see Runtime.call), which is also the healing path.
                source = resil.quarantine_poison(node)
                if source is not None:
                    rt._poison_from_input(node, source)
                    self._mark_successors(node)
                    return
            old = node.value
            had_value = node.has_value()
            try:
                rt.execute_node(node)
            except NodeExecutionError:
                # Containment captured the body's failure into a
                # Poisoned value on the node; the drain continues and
                # the poison propagates as an ordinary value change.
                pass
            rt.events.emit(EventKind.EAGER_REEXECUTION, node)
            if had_value and values_equal(old, node.value):
                rt.events.emit(EventKind.QUIESCENCE_CUT, node)
            else:
                self._mark_successors(node)

    @staticmethod
    def _poisoned_input(node: DepNode) -> Optional[Poisoned]:
        for pred in node.pred.nodes():
            value = pred.value
            if type(value) is Poisoned:
                return value
        return None

    def _mark_successors(self, node: DepNode) -> None:
        partitions = self.runtime.partitions
        for succ in node.succ.nodes():
            partitions.mark(succ)


class TopologicalScheduler(Scheduler):
    """The default policy and the pre-refactor ``Evaluator``.

    The inconsistent set is a min-heap keyed by pseudo-height at
    insertion time, so popping it *is* the selection policy — O(log n)
    per step, with keys that may go stale when a later edge raises a
    height (degrading schedule quality, never correctness).
    """

    name = "topological"

    def _next(
        self, part: PartitionScheduler, state
    ) -> Optional[DepNode]:
        return part.incset.pop()


class HeightOrderedScheduler(Scheduler):
    """Processes pending nodes in ascending dependency height.

    Height of a node is the longest pred-path to a storage node (storage
    itself is height 0).  Each refill drains the whole inconsistent set
    into a private per-drain buffer, computes heights once, and serves
    the buffer smallest-height first; nodes marked *during* processing
    are picked up by the next refill.  Unlike the insertion-time heap
    keys this priority is always fresh, at the cost of an O(affected
    subgraph) height computation per refill — the classic
    throughput-vs-overhead scheduling trade the Scheduler interface
    exists to let callers make.
    """

    name = "height"

    def _begin_drain(self) -> List[DepNode]:
        return []

    def _next(
        self, part: PartitionScheduler, state: List[DepNode]
    ) -> Optional[DepNode]:
        if not state:
            batch: List[DepNode] = []
            while True:
                node = part.incset.pop()
                if node is None:
                    break
                batch.append(node)
            if not batch:
                return None
            memo: Dict[int, int] = {}
            batch.sort(key=lambda n: self._height(n, memo), reverse=True)
            state.extend(batch)  # tail = smallest height
        return state.pop()

    def _abort_drain(
        self, part: PartitionScheduler, state: List[DepNode]
    ) -> None:
        for node in state:
            self.runtime.partitions.mark(node)
        state.clear()

    @staticmethod
    def _height(node: DepNode, memo: Dict[int, int]) -> int:
        """Longest pred-path from storage, iteratively (graphs are deep).

        Nodes currently on the DFS stack (re-entrant dependency cycles)
        contribute 0, matching the paper's tolerance of cycles: the
        order is a heuristic, quiescence bounds the work.
        """
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        on_stack: Dict[int, None] = {}
        stack: List[tuple] = [(node, None)]
        while stack:
            current, pred_iter = stack.pop()
            key = id(current)
            if pred_iter is None:
                if key in memo or key in on_stack:
                    continue
                if current.kind is NodeKind.STORAGE:
                    memo[key] = 0
                    continue
                on_stack[key] = None
                pred_iter = iter(list(current.pred.nodes()))
            advanced = False
            for pred in pred_iter:
                pk = id(pred)
                if pk not in memo and pk not in on_stack:
                    stack.append((current, pred_iter))
                    stack.append((pred, None))
                    advanced = True
                    break
            if advanced:
                continue
            del on_stack[key]
            best = 0
            for pred in current.pred.nodes():
                best = max(best, memo.get(id(pred), 0))
            memo[key] = best + 1
        return memo.get(id(node), 0)


#: Scheduler registry for ``Runtime(scheduler="...")``.
SCHEDULERS: Dict[str, Type[Scheduler]] = {
    "topological": TopologicalScheduler,
    "topo": TopologicalScheduler,
    "height": HeightOrderedScheduler,
}

SchedulerSpec = Union[str, Type[Scheduler], Callable[["Runtime"], Scheduler]]


def make_scheduler(spec: SchedulerSpec, runtime: "Runtime") -> Scheduler:
    """Resolve a scheduler spec: registry name, Scheduler subclass, or a
    factory callable taking the runtime."""
    if isinstance(spec, str):
        try:
            cls: Callable[["Runtime"], Scheduler] = SCHEDULERS[spec]
        except KeyError:
            known = ", ".join(sorted(set(SCHEDULERS)))
            raise ValueError(
                f"unknown scheduler {spec!r} (known: {known})"
            ) from None
        return cls(runtime)
    if isinstance(spec, type) and issubclass(spec, Scheduler):
        return spec(runtime)
    if callable(spec):
        scheduler = spec(runtime)
        if not isinstance(scheduler, Scheduler):
            raise TypeError(
                f"scheduler factory returned {type(scheduler).__name__}, "
                "expected a Scheduler"
            )
        return scheduler
    raise TypeError(f"cannot interpret scheduler spec {spec!r}")
