"""Incremental topological ordering by maintained pseudo-heights.

Section 4.5 of the paper: "The amount of computation is minimized when
done in a topological order with respect to the graph, and much research
has been directed at algorithms to compute this order in the presence of
graph changes", deferring to the priority evaluation of Hoover [Hoo86/87]
(and Hudson, Alpern et al.).  We keep Hoover's priority: every node
carries an integer ``order``, a *pseudo-height* such that edges point
from lower to higher order.  A new node starts at 0.  An edge insertion
that breaks the invariant raises the destination just above the source
and pushes the raise forward, only through successors now too low, so
the work is bounded by the nodes actually raised.  Heights are never
lowered when edges go away; a stale height only over-estimates.

Cycles: Alphonse programs may create re-entrant dependencies (the paper
tolerates them by setting ``consistent := TRUE`` before executing a body).
When an edge insertion would create a cycle we leave the ordering
untouched and report it; propagation remains correct because quiescence
(value comparison) and the evaluation step limit bound the work — the
order is a scheduling heuristic, not a correctness requirement.  Such a
tolerated edge stays out of order, and later raises do not push through
it, so they cannot chase their own tail around the cycle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .node import DepNode


class TopologicalOrder:
    """Maintains ``node.order`` under incremental edge insertion."""

    def __init__(self) -> None:
        #: Number of edge insertions that raised any height, exposed so
        #: the runtime can account for bookkeeping cost (Section 9.2's
        #: "plus the bookkeeping cost of the quiescence propagation
        #: algorithm").
        self.shifts = 0
        self.cycles_detected = 0

    def register(self, node: DepNode) -> None:
        """A new node has no predecessors yet: height 0."""
        node.order = 0

    def edge_added(self, src: DepNode, dst: DepNode) -> bool:
        """Restore the invariant after inserting edge ``src -> dst``.

        Returns True if the ordering is valid afterwards, False if the
        edge closed a cycle (ordering left unchanged).
        """
        if src.order < dst.order:
            return True  # invariant already holds; O(1) fast path
        if src is dst:
            self.cycles_detected += 1
            return False

        # Each raised node's height before this insertion: the undo log
        # for a cycle, and the test that tells an edge which held before
        # from a tolerated cycle edge that never did.
        before: Dict[int, Tuple[DepNode, int]] = {id(dst): (dst, dst.order)}
        dst.order = src.order + 1
        stack: List[DepNode] = [dst]
        while stack:
            node = stack.pop()
            height = node.order
            floor = before[id(node)][1]
            for succ in node.succ.nodes():
                if succ.order > height:
                    continue
                entry = before.get(id(succ))
                if (succ.order if entry is None else entry[1]) <= floor:
                    continue  # out of order already: a tolerated cycle
                if succ is src:
                    for raised, old in before.values():
                        raised.order = old
                    self.cycles_detected += 1
                    return False
                if entry is None:
                    before[id(succ)] = (succ, succ.order)
                succ.order = height + 1
                stack.append(succ)
        self.shifts += 1
        return True


def verify_order(nodes: List[DepNode]) -> bool:
    """Check the invariant: every attached edge goes low order -> high.

    Used by tests and the debug module; O(V + E).
    """
    for node in nodes:
        for succ in node.succ.nodes():
            if not node.order < succ.order:
                return False
    return True
