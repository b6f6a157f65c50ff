"""Tests for union-find partitioning and per-partition worklists (§6.3)."""

from repro.core.events import EventBus
from repro.core.node import DepNode, NodeKind
from repro.core.partition import InconsistentSet, PartitionManager


def _node(label="n", kind=NodeKind.STORAGE):
    return DepNode(kind, label=label)


def _mgr(enabled=True):
    return PartitionManager(EventBus(), enabled=enabled)


class TestInconsistentSet:
    def test_add_and_pop(self):
        s = InconsistentSet()
        a = _node("a")
        assert s.add(a) is True
        assert len(s) == 1
        assert s.pop() is a
        assert len(s) == 0
        assert s.pop() is None

    def test_duplicate_add_refused(self):
        s = InconsistentSet()
        a = _node("a")
        assert s.add(a)
        assert s.add(a) is False
        assert len(s) == 1

    def test_pop_in_topological_order(self):
        s = InconsistentSet()
        nodes = [_node(f"n{i}") for i in range(5)]
        for i, node in enumerate(nodes):
            node.order = 100 - i  # descending orders
        for node in nodes:
            s.add(node)
        popped = [s.pop() for _ in range(5)]
        assert [n.order for n in popped] == sorted(n.order for n in nodes)

    def test_discard_is_lazy_but_effective(self):
        s = InconsistentSet()
        a, b = _node("a"), _node("b")
        a.order, b.order = 1, 2
        s.add(a)
        s.add(b)
        s.discard(a)
        assert len(s) == 1
        assert s.pop() is b
        assert s.pop() is None

    def test_readd_after_pop(self):
        s = InconsistentSet()
        a = _node("a")
        s.add(a)
        assert s.pop() is a
        assert s.add(a) is True
        assert s.pop() is a

    def test_merge_from_moves_members(self):
        s1, s2 = InconsistentSet(), InconsistentSet()
        a, b = _node("a"), _node("b")
        s1.add(a)
        s2.add(b)
        s1.merge_from(s2)
        assert len(s1) == 2
        assert len(s2) == 0
        labels = {s1.pop().label, s1.pop().label}
        assert labels == {"a", "b"}

    def test_merge_skips_already_discarded(self):
        s1, s2 = InconsistentSet(), InconsistentSet()
        a, b = _node("a"), _node("b")
        s2.add(a)
        s2.add(b)
        s2.discard(a)
        s1.merge_from(s2)
        assert len(s1) == 1
        assert s1.pop() is b


class TestPartitionManager:
    def test_new_nodes_in_singleton_partitions(self):
        mgr = _mgr()
        a, b = _node("a"), _node("b")
        mgr.register(a)
        mgr.register(b)
        assert not mgr.same_partition(a, b)
        assert mgr.set_of(a) is not mgr.set_of(b)

    def test_union_merges_partitions(self):
        mgr = _mgr()
        a, b, c = _node("a"), _node("b"), _node("c")
        for n in (a, b, c):
            mgr.register(n)
        mgr.union(a, b)
        assert mgr.same_partition(a, b)
        assert not mgr.same_partition(a, c)
        assert mgr.set_of(a) is mgr.set_of(b)

    def test_union_is_idempotent(self):
        from repro.core.events import EventKind

        events = EventBus()
        unions = []
        events.subscribe(
            EventKind.PARTITION_UNION,
            lambda kind, node, amount, data: unions.append(node),
        )
        mgr = PartitionManager(events, enabled=True)
        a, b = _node("a"), _node("b")
        mgr.register(a)
        mgr.register(b)
        mgr.union(a, b)
        assert len(unions) == 1
        mgr.union(a, b)
        assert len(unions) == 1  # merged roots: no second union event

    def test_union_merges_pending_members(self):
        mgr = _mgr()
        a, b = _node("a"), _node("b")
        mgr.register(a)
        mgr.register(b)
        mgr.mark(a)
        mgr.mark(b)
        mgr.union(a, b)
        merged = mgr.set_of(a)
        assert len(merged) == 2

    def test_mark_registers_dirty_set(self):
        mgr = _mgr()
        a = _node("a")
        mgr.register(a)
        assert not mgr.has_pending()
        assert mgr.mark(a) is True
        assert mgr.has_pending()
        assert mgr.mark(a) is False  # already pending
        parts = mgr.pending_parts()
        assert len(parts) == 1
        assert parts[0].incset.pop() is a
        mgr.note_drained(parts[0])
        assert not mgr.has_pending()

    def test_disabled_manager_uses_single_global_set(self):
        mgr = _mgr(enabled=False)
        a, b = _node("a"), _node("b")
        mgr.register(a)  # no-op
        mgr.register(b)
        assert mgr.same_partition(a, b)
        assert mgr.set_of(a) is mgr.set_of(b)
        mgr.mark(a)
        assert len(mgr.set_of(b)) == 1

    def test_transitive_union_chain(self):
        mgr = _mgr()
        nodes = [_node(f"n{i}") for i in range(10)]
        for n in nodes:
            mgr.register(n)
        for i in range(9):
            mgr.union(nodes[i], nodes[i + 1])
        assert all(mgr.same_partition(nodes[0], n) for n in nodes)
        assert len(mgr.all_parts(nodes)) == 1

    def test_all_parts_counts_distinct_partitions(self):
        mgr = _mgr()
        nodes = [_node(f"n{i}") for i in range(6)]
        for n in nodes:
            mgr.register(n)
        mgr.union(nodes[0], nodes[1])
        mgr.union(nodes[2], nodes[3])
        assert len(mgr.all_parts(nodes)) == 4  # {0,1}, {2,3}, {4}, {5}

    def test_union_transfers_dirty_registration(self):
        mgr = _mgr()
        a, b = _node("a"), _node("b")
        mgr.register(a)
        mgr.register(b)
        mgr.mark(b)
        mgr.union(a, b)  # b's payload absorbed somewhere
        assert mgr.has_pending()
        pending = mgr.pending_parts()
        assert sum(len(p.incset) for p in pending) == 1
