"""§6.2 static graph construction: statically declared dependency
subgraphs are built once and reused across re-executions."""

from repro import Cell, cached, maintained
from repro.core import TrackedObject


class TestStaticDeps:
    def test_correct_values_under_change(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached(static_deps=True)
        def total():
            return a.get() + b.get()

        assert total() == 3
        a.set(10)
        assert total() == 12
        b.set(20)
        assert total() == 30

    def test_edges_not_rebuilt_on_reexecution(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached(static_deps=True)
        def total():
            return a.get() + b.get()

        total()
        created_first = rt.stats.edges_created
        a.set(5)
        total()  # re-executes, but the subgraph is frozen
        assert rt.stats.edges_created == created_first
        assert rt.stats.edges_removed == 0

    def test_dynamic_variant_reuses_unchanged_edges(self, rt):
        """Without the static promise, a re-execution that reads the
        same sources keeps their edges: nothing created or removed."""
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached
        def total():
            return a.get() + b.get()

        total()
        before = rt.stats.snapshot()
        a.set(5)
        assert total() == 7
        delta = rt.stats.delta(before)
        assert delta["executions"] == 1
        assert delta["edges_created"] == 0
        assert delta["edges_removed"] == 0

    def test_changed_read_set_rewires_only_the_difference(self, rt):
        flag = Cell(True, label="flag")
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached
        def pick():
            return a.get() if flag.get() else b.get()

        assert pick() == 1
        before = rt.stats.snapshot()
        flag.set(False)
        assert pick() == 2
        delta = rt.stats.delta(before)
        assert delta["edges_created"] == 1  # b -> pick
        assert delta["edges_removed"] == 1  # a -> pick
        node = rt.node_for(pick, ())
        assert sorted(n.label for n in node.pred.nodes()) == ["b", "flag"]
        executions = rt.stats.executions
        a.set(99)
        assert pick() == 2
        assert rt.stats.executions == executions

    def test_static_maintained_method(self, rt):
        class Pair(TrackedObject):
            _fields_ = ("x", "y")

            @maintained(static_deps=True)
            def total(self):
                return self.x + self.y

        p = Pair(x=1, y=2)
        assert p.total() == 3
        edges_after_first = rt.stats.edges_created
        p.x = 10
        assert p.total() == 12
        assert rt.stats.edges_created == edges_after_first

    def test_static_deps_wrong_declaration_goes_stale(self, rt):
        """If the programmer lies (the read set actually varies), the
        frozen subgraph misses the new dependency — the §6.2 analogue of
        UNCHECKED's risk.  Documented behaviour, not a bug."""
        flag = Cell(True, label="flag")
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached(static_deps=True)
        def pick():
            return a.get() if flag.get() else b.get()

        assert pick() == 1
        flag.set(False)
        assert pick() == 2  # flag WAS in the first read set: tracked
        b.set(99)
        # b was not in the FIRST execution's read set; the frozen graph
        # never learned about it, so the change is missed.
        assert pick() == 2

    def test_nested_static_calls(self, rt):
        base = Cell(1, label="base")

        @cached(static_deps=True)
        def inner():
            return base.get() * 2

        @cached(static_deps=True)
        def outer():
            return inner() + 1

        assert outer() == 3
        base.set(5)
        assert outer() == 11
        # second change: still correct through the frozen chain
        base.set(7)
        assert outer() == 15
