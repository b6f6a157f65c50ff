"""Intrusive doubly-linked bidirectional dependency edges.

Section 9.2 of the paper argues that dynamic dependence analysis runs in
O(T) only if "the edge removal at procedure calls in Algorithm 5 is
constant time per edge", which "is the case if we use a doubly linked list
of bidirectional edges to represent successors and predecessors in the
dependency graph".  This module implements exactly that structure.

Each :class:`Edge` participates in two circular doubly-linked lists:

* the *successor list* of its source node (all edges out of ``src``), and
* the *predecessor list* of its destination node (all edges into ``dst``).

Detaching an edge unlinks it from both lists in O(1) with no search, which
is what makes ``RemovePredEdges`` (Algorithm 5), and the sweep of unread
in-edges that replaces it on re-execution, linear in the number of edges
removed.  The lists use sentinel headers so that insertion and
removal never special-case an empty list.
"""

from __future__ import annotations

from typing import Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import DepNode


class _Link:
    """One hook of an edge into one circular doubly-linked list."""

    __slots__ = ("prev", "next", "edge")

    def __init__(self, edge: Optional["Edge"]) -> None:
        self.prev: "_Link" = self
        self.next: "_Link" = self
        self.edge = edge

    def insert_after(self, other: "_Link") -> None:
        """Insert ``self`` immediately after ``other`` in its list."""
        self.prev = other
        self.next = other.next
        other.next.prev = self
        other.next = self

    def unlink(self) -> None:
        """Remove ``self`` from whatever list it is in (O(1))."""
        self.prev.next = self.next
        self.next.prev = self.prev
        self.prev = self
        self.next = self


class EdgeList:
    """A circular doubly-linked list of edges with a sentinel header.

    One ``EdgeList`` holds either all out-edges of a node (its successor
    list) or all in-edges (its predecessor list).  Iteration yields
    :class:`Edge` objects; it is safe against removal of the *current*
    edge during iteration because the next pointer is read before the
    edge is handed out.
    """

    __slots__ = ("_head", "_size", "_slot")

    def __init__(self, slot: str) -> None:
        if slot not in ("succ", "pred"):
            raise ValueError(f"slot must be 'succ' or 'pred', got {slot!r}")
        self._head = _Link(None)
        self._size = 0
        self._slot = slot

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator["Edge"]:
        link = self._head.next
        while link is not self._head:
            nxt = link.next  # read before yielding: tolerate self-removal
            assert link.edge is not None
            yield link.edge
            link = nxt

    def _attach(self, edge: "Edge") -> None:
        link = edge._succ_link if self._slot == "succ" else edge._pred_link
        link.insert_after(self._head)
        self._size += 1

    def _detach(self, edge: "Edge") -> None:
        link = edge._succ_link if self._slot == "succ" else edge._pred_link
        link.unlink()
        self._size -= 1

    def oldest(self) -> _Link:
        """The link of the least recently attached edge.

        New edges are attached at the newest end, so walking ``.prev``
        from here visits edges in attachment order and ends at the
        sentinel (whose ``edge`` is None).
        """
        return self._head.prev

    def renew(self, edge: "Edge") -> None:
        """Move ``edge``, already in this list, to the newest end (O(1))."""
        link = edge._succ_link if self._slot == "succ" else edge._pred_link
        link.unlink()
        link.insert_after(self._head)

    def nodes(self) -> Iterator["DepNode"]:
        """Yield the node at the far end of each edge in this list."""
        for edge in self:
            yield edge.dst if self._slot == "succ" else edge.src


class Edge:
    """A dependency edge ``src -> dst``: dst's computation read src.

    Following Section 4.1: "Edges of this graph connect nodes u to v if
    the procedure instance represented by v depends on the procedure
    instance or variable represented by u."
    """

    __slots__ = ("src", "dst", "_succ_link", "_pred_link", "_attached")

    def __init__(self, src: "DepNode", dst: "DepNode") -> None:
        self.src = src
        self.dst = dst
        self._succ_link = _Link(self)
        self._pred_link = _Link(self)
        self._attached = False

    def attach(self) -> None:
        """Link this edge into src's successor and dst's predecessor lists."""
        if self._attached:
            raise RuntimeError("edge already attached")
        self.src.succ._attach(self)
        self.dst.pred._attach(self)
        self._attached = True

    def detach(self) -> None:
        """Unlink this edge from both lists in O(1)."""
        if not self._attached:
            return
        self.src.succ._detach(self)
        self.dst.pred._detach(self)
        self._attached = False

    @property
    def attached(self) -> bool:
        return self._attached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self._attached else " (detached)"
        return f"Edge({self.src!r} -> {self.dst!r}{state})"
