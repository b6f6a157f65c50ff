"""Tests for the incremental topological ordering by pseudo-heights."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edges import Edge
from repro.core.node import DepNode, NodeKind
from repro.core.order import TopologicalOrder, verify_order


def _make(order_mgr, n):
    nodes = [DepNode(NodeKind.STORAGE, label=f"n{i}") for i in range(n)]
    for node in nodes:
        order_mgr.register(node)
    return nodes


def _add_edge(order_mgr, src, dst):
    Edge(src, dst).attach()
    return order_mgr.edge_added(src, dst)


class TestTopologicalOrder:
    def test_registration_starts_nodes_level(self):
        mgr = TopologicalOrder()
        nodes = _make(mgr, 5)
        assert {n.order for n in nodes} == {0}

    def test_forward_edge_is_fast_path(self):
        mgr = TopologicalOrder()
        a, b, c = _make(mgr, 3)
        assert _add_edge(mgr, a, b) and _add_edge(mgr, b, c)
        shifts, orders = mgr.shifts, (a.order, b.order, c.order)
        assert a.order < c.order
        assert _add_edge(mgr, a, c) is True
        assert mgr.shifts == shifts
        assert (a.order, b.order, c.order) == orders
        assert verify_order([a, b, c])

    def test_equal_heights_raise_only_destination_side(self):
        mgr = TopologicalOrder()
        a, b, c, d, e = _make(mgr, 5)
        for src, dst in [(a, c), (b, d), (d, e)]:
            assert _add_edge(mgr, src, dst)
        assert (c.order, d.order) == (1, 1)
        shifts = mgr.shifts
        assert _add_edge(mgr, c, d) is True
        assert mgr.shifts == shifts + 1
        # d and its successor rise; the source side and d's other
        # predecessor keep their heights.
        assert (a.order, b.order, c.order) == (0, 0, 1)
        assert (d.order, e.order) == (2, 3)
        assert verify_order([a, b, c, d, e])

    def test_backward_edge_triggers_reorder(self):
        mgr = TopologicalOrder()
        a, b = _make(mgr, 2)
        assert _add_edge(mgr, b, a) is True  # b was registered after a
        assert mgr.shifts == 1
        assert verify_order([a, b])

    def test_chain_built_backwards(self):
        mgr = TopologicalOrder()
        nodes = _make(mgr, 10)
        # Connect n9 -> n8 -> ... -> n0: every edge is "backward".
        for i in range(9, 0, -1):
            assert _add_edge(mgr, nodes[i], nodes[i - 1])
        assert verify_order(nodes)

    def test_diamond(self):
        mgr = TopologicalOrder()
        a, b, c, d = _make(mgr, 4)
        for src, dst in [(a, b), (a, c), (b, d), (c, d)]:
            assert _add_edge(mgr, src, dst)
        assert verify_order([a, b, c, d])
        assert a.order < b.order < d.order
        assert a.order < c.order < d.order

    def test_cycle_detected_and_order_untouched(self):
        mgr = TopologicalOrder()
        a, b, c = _make(mgr, 3)
        assert _add_edge(mgr, a, b)
        assert _add_edge(mgr, b, c)
        before = (a.order, b.order, c.order)
        assert _add_edge(mgr, c, a) is False  # closes a cycle
        assert mgr.cycles_detected == 1
        assert (a.order, b.order, c.order) == before

    def test_self_loop_is_a_cycle(self):
        mgr = TopologicalOrder()
        (a,) = _make(mgr, 1)
        assert _add_edge(mgr, a, a) is False
        assert mgr.cycles_detected == 1

    def test_raise_does_not_chase_tolerated_cycle(self):
        """Cyclic edges the runtime keeps attached stay out of order, and
        a later raise through the cycle stops at them."""
        mgr = TopologicalOrder()
        x, a, b = _make(mgr, 3)
        assert _add_edge(mgr, a, b)
        assert _add_edge(mgr, b, a) is False
        assert _add_edge(mgr, a, a) is False
        assert _add_edge(mgr, x, a) is True
        assert (x.order, a.order, b.order) == (0, 1, 2)
        assert mgr.cycles_detected == 2

    def test_random_dag_insertions_seeded(self):
        rng = random.Random(7)
        mgr = TopologicalOrder()
        nodes = _make(mgr, 60)
        # Build random DAG edges on a hidden total order; insert shuffled.
        hidden = list(range(60))
        rng.shuffle(hidden)
        rank = {i: r for r, i in enumerate(hidden)}
        candidate_edges = [
            (i, j)
            for i in range(60)
            for j in range(60)
            if rank[i] < rank[j]
        ]
        rng.shuffle(candidate_edges)
        for i, j in candidate_edges[:400]:
            assert _add_edge(mgr, nodes[i], nodes[j]) is True
            assert nodes[i].order < nodes[j].order
        assert verify_order(nodes)


@given(
    n=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_property_invariant_after_random_dag_insertions(n, seed):
    """After any sequence of acyclic insertions, every edge goes
    low-order -> high-order (the PK invariant)."""
    rng = random.Random(seed)
    mgr = TopologicalOrder()
    nodes = _make(mgr, n)
    hidden = list(range(n))
    rng.shuffle(hidden)
    rank = {i: r for r, i in enumerate(hidden)}
    pairs = [(i, j) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    rng.shuffle(pairs)
    for i, j in pairs[: 3 * n]:
        assert _add_edge(mgr, nodes[i], nodes[j]) is True
    assert verify_order(nodes)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_property_cycle_reported_not_crashed(seed):
    """Random insertions including cyclic ones never corrupt the order
    of the acyclic subset."""
    rng = random.Random(seed)
    mgr = TopologicalOrder()
    nodes = _make(mgr, 12)
    for _ in range(80):
        i, j = rng.randrange(12), rng.randrange(12)
        if i == j:
            continue
        edge = Edge(nodes[i], nodes[j])
        edge.attach()
        ok = mgr.edge_added(nodes[i], nodes[j])
        if not ok:
            edge.detach()  # caller declines cyclic edges in this model
    assert verify_order(nodes)
