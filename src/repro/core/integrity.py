"""Structural integrity auditing for the dependency graph.

Fault containment widens the set of states the engine can be left in —
drains abort, batches roll back, bodies poison — and every one of those
paths promises to leave the graph *structurally sound*.  This module is
the promise's enforcement arm: :func:`audit` (surfaced as
``Runtime.check_invariants()``) sweeps the runtime and reports any
violation of the invariants the rest of the engine assumes:

* **Edge symmetry** — every edge in a node's successor list is attached
  and appears in its destination's predecessor list, and vice versa
  (the intrusive doubly-linked representation of §9.2 makes asymmetry
  possible only through corruption).
* **Inconsistent-set/flag agreement** — a node's
  ``in_inconsistent_set`` flag is True iff its partition's set counts it
  as a member; the dirty-set registry covers every non-empty set.
* **Partition↔scheduler ownership bijection** — every union-find root
  owns exactly one live :class:`~repro.core.partition.PartitionScheduler`
  with a unique partition id, non-root items own none, and the dirty
  registry maps each pid to that partition's actual scheduler.
* **Quiescent execution state** — when no drain or body is running,
  every thread's call stack is empty and no node reports ``executing``.
* **Disposed nodes detached** — a cache-evicted node keeps no edges,
  sits in no inconsistent set, and holds no thunk.
* **Consistency/value sanity** — a consistent procedure node that is
  not mid-first-execution holds a value (possibly a Poisoned one).

The audit is read-only and O(nodes + edges).  Most checks need the node
registry (``Runtime(keep_registry=True)``, the default); with the
registry disabled, a partial audit of the execution state still runs.

The chaos harness (:mod:`repro.testing.chaos`) calls this after every
injected fault; it is also cheap enough to call from tests at will.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .errors import IntegrityError
from .node import NodeKind

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

__all__ = ["audit"]

#: Cap on reported violations: a corrupted graph tends to violate one
#: invariant thousands of times; the first few findings are what matter.
_MAX_VIOLATIONS = 25


def audit(rt: "Runtime", *, raise_on_violation: bool = True) -> List[str]:
    """Check every structural invariant; see the module docstring.

    Returns the violations found (empty list = sound).  Raises
    :class:`~repro.core.errors.IntegrityError` listing them when
    ``raise_on_violation`` is set and any were found.
    """
    violations: List[str] = []

    def report(message: str) -> bool:
        """Record one finding; returns False once the cap is hit."""
        if len(violations) < _MAX_VIOLATIONS:
            violations.append(message)
        return len(violations) < _MAX_VIOLATIONS

    _audit_execution_state(rt, report)
    nodes = rt.graph.nodes
    if nodes:
        _audit_edges(nodes, report)
        _audit_incset_membership(rt, nodes, report)
        _audit_partition_ownership(rt, nodes, report)
        _audit_disposed(nodes, report)
        _audit_values(nodes, report)

    if violations and raise_on_violation:
        raise IntegrityError(violations)
    return violations


def _audit_execution_state(rt: "Runtime", report) -> None:
    if rt.scheduler.active or rt.partitions.any_active():
        report("audit ran while a drain is active; results unreliable")
    # Every thread's context must be quiescent, not just the caller's:
    # a parallel drain leaves its workers' stacks registered here.
    for ctx in rt._contexts:
        if ctx.stack:
            labels = [frame.node.label for frame in ctx.stack]
            report(f"call stack not empty at quiescence: {labels}")


def _audit_edges(nodes, report) -> None:
    for node in nodes:
        for edge in node.succ:
            if not edge.attached:
                if not report(
                    f"detached edge lingering in succ list of {node.label!r}"
                ):
                    return
            if edge.src is not node:
                if not report(
                    f"succ list of {node.label!r} holds edge sourced at "
                    f"{edge.src.label!r}"
                ):
                    return
            if not any(e is edge for e in edge.dst.pred):
                if not report(
                    f"edge {node.label!r} -> {edge.dst.label!r} missing "
                    f"from destination's pred list"
                ):
                    return
        for edge in node.pred:
            if not edge.attached:
                if not report(
                    f"detached edge lingering in pred list of {node.label!r}"
                ):
                    return
            if edge.dst is not node:
                if not report(
                    f"pred list of {node.label!r} holds edge destined for "
                    f"{edge.dst.label!r}"
                ):
                    return
            if not any(e is edge for e in edge.src.succ):
                if not report(
                    f"edge {edge.src.label!r} -> {node.label!r} missing "
                    f"from source's succ list"
                ):
                    return


def _audit_incset_membership(rt: "Runtime", nodes, report) -> None:
    # Flag -> membership: every flagged node must be counted by the set
    # governing its partition, and that set must be registered dirty.
    for node in nodes:
        if node.executing:
            if not report(
                f"{node.label!r} reports executing={node.executing} at "
                f"quiescence"
            ):
                return
        if not node.in_inconsistent_set:
            continue
        part = rt.partitions.sched_of(node)
        members = part.incset.members()
        if not any(member is node for member in members):
            if not report(
                f"{node.label!r} is flagged in_inconsistent_set but its "
                f"partition's set does not contain it"
            ):
                return
        if rt.partitions.dirty.get(part.pid) is not part:
            if not report(
                f"partition p{part.pid} holding {node.label!r} is missing "
                f"from the dirty registry (a flush would strand it)"
            ):
                return
    # Membership -> flag: set sizes must agree with the flags (a size
    # leak makes empty sets look pending forever, or hides members).
    for part in rt.partitions.all_parts(nodes):
        incset = part.incset
        members = incset.members()
        if len(incset) != len(members):
            report(
                f"inconsistent set size {len(incset)} disagrees with its "
                f"{len(members)} flagged member(s)"
            )


def _audit_partition_ownership(rt: "Runtime", nodes, report) -> None:
    """The partition↔scheduler bijection: one live scheduler per root,
    unique pids, no scheduler shared between roots, and a truthful
    dirty registry."""
    partitions = rt.partitions
    if not partitions.enabled:
        return
    roots = {}
    for node in nodes:
        item = node.partition_item
        if item is None:
            if not report(f"{node.label!r} has no partition item"):
                return
            continue
        if item.parent is not item and item.payload is not None:
            if not report(
                f"non-root partition item of {node.label!r} still owns "
                f"scheduler p{item.payload.pid}"
            ):
                return
        root = partitions._find(item)
        roots[id(root)] = root
    owners = {}
    by_pid = {}
    for root in roots.values():
        part = root.payload
        if part is None:
            if not report(
                f"partition root via {root.node.label!r} owns no scheduler"
            ):
                return
            continue
        prior = owners.get(id(part))
        if prior is not None and prior is not root:
            if not report(
                f"scheduler p{part.pid} is owned by two partition roots"
            ):
                return
        owners[id(part)] = root
        twin = by_pid.get(part.pid)
        if twin is not None and twin is not part:
            if not report(
                f"partition id p{part.pid} is used by two schedulers"
            ):
                return
        by_pid[part.pid] = part
        registered = partitions.dirty.get(part.pid)
        if registered is not None and registered is not part:
            if not report(
                f"dirty registry maps p{part.pid} to a scheduler that is "
                f"not the partition's live one"
            ):
                return
        if part.incset and registered is None and not part.active:
            if not report(
                f"partition p{part.pid} has {len(part.incset)} pending "
                f"member(s) but is not registered dirty"
            ):
                return
    for pid, part in partitions.dirty.items():
        if part.pid != pid:
            if not report(
                f"dirty registry key p{pid} holds scheduler p{part.pid}"
            ):
                return


def _audit_disposed(nodes, report) -> None:
    for node in nodes:
        if not node.disposed:
            continue
        problems = []
        if len(node.pred) or len(node.succ):
            problems.append(
                f"{len(node.pred)} pred / {len(node.succ)} succ edges"
            )
        if node.in_inconsistent_set:
            problems.append("still in an inconsistent set")
        if node.thunk is not None:
            problems.append("still holds its thunk")
        if problems:
            if not report(
                f"disposed node {node.label!r} not torn down: "
                + "; ".join(problems)
            ):
                return


def _audit_values(nodes, report) -> None:
    for node in nodes:
        if (
            node.kind is not NodeKind.STORAGE
            and node.consistent
            and not node.has_value()
            and not node.executing
            and not node.disposed
        ):
            if not report(
                f"procedure node {node.label!r} is consistent but holds "
                f"no value outside any execution"
            ):
                return
