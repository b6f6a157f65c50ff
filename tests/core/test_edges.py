"""Unit tests for the doubly-linked bidirectional edge lists (§9.2)."""

import pytest

from repro.core.edges import Edge, EdgeList
from repro.core.node import DepNode, NodeKind


def _node(label="n"):
    return DepNode(NodeKind.STORAGE, label=label)


class TestEdgeList:
    def test_new_list_is_empty(self):
        lst = EdgeList("succ")
        assert len(lst) == 0
        assert not lst
        assert list(lst) == []

    def test_invalid_slot_rejected(self):
        with pytest.raises(ValueError):
            EdgeList("sideways")

    def test_attach_populates_both_lists(self):
        a, b = _node("a"), _node("b")
        edge = Edge(a, b)
        edge.attach()
        assert list(a.succ) == [edge]
        assert list(b.pred) == [edge]
        assert len(a.succ) == 1
        assert len(b.pred) == 1
        assert len(a.pred) == 0
        assert len(b.succ) == 0

    def test_detach_removes_from_both_lists(self):
        a, b = _node("a"), _node("b")
        edge = Edge(a, b)
        edge.attach()
        edge.detach()
        assert len(a.succ) == 0
        assert len(b.pred) == 0
        assert not edge.attached

    def test_detach_is_idempotent(self):
        a, b = _node("a"), _node("b")
        edge = Edge(a, b)
        edge.attach()
        edge.detach()
        edge.detach()  # no error, no corruption
        assert len(a.succ) == 0

    def test_double_attach_rejected(self):
        a, b = _node("a"), _node("b")
        edge = Edge(a, b)
        edge.attach()
        with pytest.raises(RuntimeError):
            edge.attach()

    def test_multiple_edges_preserved_in_order_of_insertion(self):
        hub = _node("hub")
        others = [_node(f"o{i}") for i in range(5)]
        edges = [Edge(hub, other) for other in others]
        for edge in edges:
            edge.attach()
        # Insertion is at the head of the circular list, so iteration
        # yields most-recently-added first; all must be present.
        assert set(id(e) for e in hub.succ) == set(id(e) for e in edges)
        assert len(hub.succ) == 5

    def test_oldest_walks_attachment_order_and_renew_moves_to_newest(self):
        sink = _node("sink")
        sources = [_node(f"s{i}") for i in range(4)]
        edges = [Edge(source, sink) for source in sources]
        for edge in edges:
            edge.attach()

        def walk():
            out, link = [], sink.pred.oldest()
            while link.edge is not None:
                out.append(link.edge)
                link = link.prev
            return out

        assert walk() == edges
        sink.pred.renew(edges[1])
        assert walk() == [edges[0], edges[2], edges[3], edges[1]]
        assert len(sink.pred) == 4
        # The source's successor list is untouched by a pred-side renew.
        assert list(sources[1].succ) == [edges[1]]

    def test_remove_middle_edge(self):
        hub = _node("hub")
        others = [_node(f"o{i}") for i in range(3)]
        edges = [Edge(hub, other) for other in others]
        for edge in edges:
            edge.attach()
        edges[1].detach()
        remaining = set(id(e) for e in hub.succ)
        assert remaining == {id(edges[0]), id(edges[2])}
        assert len(hub.succ) == 2

    def test_iteration_tolerates_removal_of_current(self):
        hub = _node("hub")
        others = [_node(f"o{i}") for i in range(4)]
        edges = [Edge(hub, other) for other in others]
        for edge in edges:
            edge.attach()
        seen = 0
        for edge in hub.succ:
            edge.detach()  # removing the edge being visited
            seen += 1
        assert seen == 4
        assert len(hub.succ) == 0

    def test_nodes_iterates_far_ends(self):
        a, b, c = _node("a"), _node("b"), _node("c")
        Edge(a, b).attach()
        Edge(a, c).attach()
        assert {n.label for n in a.succ.nodes()} == {"b", "c"}
        assert [n.label for n in b.pred.nodes()] == ["a"]

    def test_self_edge_supported(self):
        a = _node("a")
        edge = Edge(a, a)
        edge.attach()
        assert len(a.succ) == 1
        assert len(a.pred) == 1
        edge.detach()
        assert len(a.succ) == 0
        assert len(a.pred) == 0

    def test_many_edges_detach_all(self):
        # O(1) removal at scale: no quadratic list scans, no corruption.
        hub = _node("hub")
        edges = [Edge(_node(f"s{i}"), hub) for i in range(1000)]
        for edge in edges:
            edge.attach()
        assert len(hub.pred) == 1000
        for edge in edges:
            edge.detach()
        assert len(hub.pred) == 0
