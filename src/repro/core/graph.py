"""The Alphonse dependency graph (paper Section 4.1, 4.3).

Ties together nodes, O(1)-removal edges, the incremental topological
order, and the union-find partitioning.  The runtime calls
:meth:`DependencyGraph.create_edge` when a tracked read or incremental
call (Algorithms 3 and 5) reads a source the executing node has no
in-edge from yet.  Algorithm 5 runs ``RemovePredEdges`` before every
re-execution; here a re-execution instead keeps each old in-edge whose
source it reads again and detaches the rest when it ends (the runtime's
``_Frame`` does the reconciling), so an unchanged read set costs no edge
allocation, ordering check, union or event.  :meth:`remove_pred_edges`
remains for re-entrant activations and cache disposal.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from .edges import Edge
from .events import EventBus, EventKind
from .node import DepNode, NodeKind
from .order import TopologicalOrder
from .partition import PartitionManager


class DependencyGraph:
    """Node factory plus edge bookkeeping for one runtime instance.

    Part of the storage/graph kernel: it knows nothing about scheduling
    or instrumentation — all bookkeeping is announced on the event bus.
    """

    def __init__(
        self,
        events: EventBus,
        order: TopologicalOrder,
        partitions: PartitionManager,
        keep_registry: bool = True,
    ) -> None:
        self.events = events
        self.order = order
        self.partitions = partitions
        #: All nodes ever created, for diagnostics/debugging (the paper
        #: §9.1 space analysis counts these).  Disable for unbounded runs.
        self._registry: Optional[List[DepNode]] = [] if keep_registry else None

    # -- node creation ---------------------------------------------------

    def new_storage_node(self, label: str, ref: Any = None) -> DepNode:
        """Node for an abstract storage location (first tracked read)."""
        node = DepNode(NodeKind.STORAGE, label=label, ref=ref)
        self._register(node)
        self.events.emit(EventKind.NODE_CREATED, node)
        return node

    def new_procedure_node(
        self, kind: NodeKind, label: str, ref: Any = None
    ) -> DepNode:
        """Node for an incremental procedure instance (argument-table add)."""
        if kind is NodeKind.STORAGE:
            raise ValueError("procedure node kind must be DEMAND or EAGER")
        node = DepNode(kind, label=label, ref=ref)
        self._register(node)
        self.events.emit(EventKind.NODE_CREATED, node)
        return node

    def _register(self, node: DepNode) -> None:
        self.order.register(node)
        self.partitions.register(node)
        if self._registry is not None:
            self._registry.append(node)

    @property
    def nodes(self) -> List[DepNode]:
        """All nodes created so far (empty if the registry is disabled)."""
        return list(self._registry or [])

    # -- edges -------------------------------------------------------------

    def create_edge(
        self, src: DepNode, dst: DepNode, dedupe: Optional[Set[int]] = None
    ) -> bool:
        """Record that ``dst``'s computation read ``src`` (CreateEdge).

        ``dedupe`` is a set of source node ids already edged into
        ``dst``; a source in it adds no second edge.  (The runtime's
        frames dedupe and reuse old edges themselves and pass none.)
        Returns True if an edge was added.
        """
        if dedupe is not None:
            if id(src) in dedupe:
                return False
            dedupe.add(id(src))
        Edge(src, dst).attach()
        self.events.emit(EventKind.EDGE_ADDED, src, data=dst)
        before = self.order.shifts
        self.order.edge_added(src, dst)
        shifted = self.order.shifts - before
        if shifted:
            self.events.emit(EventKind.ORDER_SHIFTED, dst, amount=shifted)
        self.partitions.union(src, dst)
        return True

    def remove_pred_edges(self, node: DepNode) -> int:
        """Detach every in-edge of ``node``.

        "If p has been executed previously, it has a set of dependent
        edges from Alphonse procedures and storage locations that were
        accessed during the previous execution.  These edges are removed
        before subsequent executions." (Section 4.3)  An ordinary
        re-execution reconciles its reads against these edges instead;
        this is the path for a re-entrant activation and for disposal.
        """
        removed = 0
        for edge in node.pred:
            edge.detach()
            removed += 1
        if removed:
            self.events.emit(EventKind.EDGE_REMOVED, node, amount=removed)
        return removed

    def remove_succ_edges(self, node: DepNode) -> int:
        """Detach every out-edge of ``node`` (used on cache eviction)."""
        removed = 0
        for edge in node.succ:
            edge.detach()
            removed += 1
        if removed:
            self.events.emit(EventKind.EDGE_REMOVED, node, amount=removed)
        return removed
