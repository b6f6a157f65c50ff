"""Dependency reuse on re-execution.

A re-execution reconciles its reads against the node's existing
in-edges: an edge whose source is read again is kept, a new source gets
a new edge, and edges the activation never touched are swept when it
ends.  The edge set left behind must be exactly the one Algorithm 5's
remove-and-rebuild leaves: one in-edge per distinct source the
committed activation read.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import EAGER, Cell, NodeExecutionError, Runtime, cached
from repro.persist.ids import fresh_id_space


def _sources(rt, proc, *args):
    node = rt.node_for(proc, args)
    return sorted(n.label for n in node.pred.nodes())


def _walked_edges(rt):
    return sum(len(node.pred) for node in rt.graph.nodes)


class TestReconcile:
    def test_raise_mid_body_keeps_edges_read_before_it(self, rt):
        a, boom = Cell(1, label="a"), Cell(False, label="boom")
        b, c = Cell(2, label="b"), Cell(3, label="c")

        @cached
        def body():
            total = a.get()
            if boom.get():
                raise ValueError("boom")
            return total + b.get() + c.get()

        assert body() == 6
        before = rt.stats.snapshot()
        boom.set(True)
        with pytest.raises(NodeExecutionError):
            body()
        delta = rt.stats.delta(before)
        assert _sources(rt, body) == ["a", "boom"]
        assert delta["edges_created"] == 0
        assert delta["edges_removed"] == 2
        # b was not read by the failing activation: writing it cannot
        # heal the node, writing a source it did read does.
        b.set(20)
        with pytest.raises(NodeExecutionError):
            body()
        boom.set(False)
        assert body() == 24
        assert _sources(rt, body) == ["a", "b", "boom", "c"]
        assert rt.stats.live_edges == _walked_edges(rt)
        assert rt.check_invariants() == []

    def test_unchecked_read_adds_no_edge_and_drops_the_old_one(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")
        quiet = Cell(False, label="quiet")

        @cached
        def body():
            if quiet.get():
                with rt.unchecked():
                    return a.get() + b.get()
            return a.get() + b.get()

        assert body() == 3
        quiet.set(True)
        assert body() == 3
        assert _sources(rt, body) == ["quiet"]
        executions = rt.stats.executions
        b.set(50)  # read unchecked: the programmer's promise, no re-run
        assert body() == 3
        assert rt.stats.executions == executions
        assert rt.stats.live_edges == _walked_edges(rt)
        assert rt.check_invariants() == []

    def test_repeated_and_reordered_reads_churn_nothing(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")
        flip = Cell(False, label="flip")

        @cached
        def body():
            first, second = (b, a) if flip.get() else (a, b)
            return first.get() + first.get() + second.get() + first.get()

        assert body() == 5
        assert len(rt.node_for(body, ()).pred) == 3
        before = rt.stats.snapshot()
        flip.set(True)
        assert body() == 7
        a.set(10)
        assert body() == 16
        delta = rt.stats.delta(before)
        assert delta["executions"] == 2
        assert delta["edges_created"] == 0
        assert delta["edges_removed"] == 0
        assert _sources(rt, body) == ["a", "b", "flip"]

    def test_procedure_sources_are_reused_like_storage(self, rt):
        a = Cell(1, label="a")
        k = Cell(0, label="k")

        @cached
        def leaf(i):
            return a.get() + i

        @cached
        def root():
            return leaf(0) + leaf(1) + k.get()

        assert root() == 3
        before = rt.stats.snapshot()
        k.set(5)
        assert root() == 8
        a.set(2)
        assert root() == 10
        delta = rt.stats.delta(before)
        assert delta["edges_created"] == 0
        assert delta["edges_removed"] == 0

    def test_tolerated_cycle_edge_counted_once(self, rt):
        """A kept edge skips the height check, so a cycle edge the order
        tolerates is counted when created, not on every re-execution."""
        flag, x = Cell(False, label="flag"), Cell(1, label="x")

        @cached
        def p():
            return q() + 1 if flag.get() else 0

        @cached
        def q():
            return p() * 0 + x.get()

        assert (p(), q()) == (0, 1)
        flag.set(True)  # p now calls q, closing q -> p -> q
        assert (p(), q()) == (2, 1)
        assert rt.order.cycles_detected == 1
        for value in range(10, 13):
            x.set(value)
            assert (p(), q()) == (value + 1, value)
        assert rt.order.cycles_detected == 1
        assert rt.check_invariants() == []

    def test_reentry_leaves_one_edge_per_source(self, rt):
        """A re-entrant activation removes every in-edge and the outer
        one re-creates what it reads afterwards, which can leave two
        edges from one source; the next execution reconciles them, also
        when it reads in a different order."""
        flip = Cell(False, label="flip")
        cell, other = Cell(0, label="x"), Cell(7, label="y")
        limit, tail = Cell(0, label="limit"), Cell(100, label="tail")

        @cached
        def settle():
            if flip.get():
                other.get()
                value = cell.get()
            else:
                value = cell.get()
                other.get()
            if value < limit.get():
                cell.set(value + 1)
                settle()  # re-entrant: cell changed, so it re-runs
            return cell.get() + tail.get()

        def check(expected, reentered=False):
            assert settle() == expected
            labels = [n.label for n in rt.node_for(settle, ()).pred.nodes()]
            assert set(labels) == {"flip", "limit", "tail", "x", "y"}
            if not reentered:
                assert len(labels) == len(set(labels))
            assert rt.stats.live_edges == _walked_edges(rt)
            assert rt.check_invariants() == []

        check(100)
        # Re-executes with old edges still unmatched when it re-enters;
        # the outer activations' late reads add second edges, as with
        # remove-and-rebuild.
        limit.set(2)
        check(102, reentered=True)
        # Reads in another order: the cursor misses before the extra
        # edges the re-entry left.
        flip.set(True)
        check(102)
        tail.set(200)
        check(202)

    def test_recovered_node_reuses_checkpointed_edges(self, tmp_path):
        def program():
            cells = [Cell(v, label="cell") for v in (1, 2, 3)]

            @cached
            def total():
                return sum(c.get() for c in cells)

            return cells, total

        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            _cells, total = program()
            assert total() == 6
            rt.checkpoint(path)

        fresh_id_space()
        rt2 = Runtime.recover(path)
        with rt2.active():
            cells, total = program()
            created = rt2.stats.edges_created
            cells[0].set(10)
            assert total() == 15
            assert rt2.stats.executions == 1
            assert rt2.stats.edges_created == created
            assert rt2.stats.live_edges == _walked_edges(rt2)
        assert rt2.check_invariants() == []


@pytest.mark.parallel
def test_parallel_drains_reuse_edges():
    rt = Runtime(parallel_drains=4)
    try:
        with rt.active():
            groups = [[Cell(g * 10 + i, label=f"c{g}.{i}") for i in range(4)]
                      for g in range(8)]

            @cached(strategy=EAGER)
            def group_sum(g):
                return sum(c.get() for c in groups[g])

            @cached(strategy=EAGER)
            def group_max(g):
                return max(c.get() for c in groups[g])

            for g in range(8):
                group_sum(g)
                group_max(g)
            created = rt.stats.edges_created
            for rnd in range(5):
                for g in range(8):
                    groups[g][rnd % 4].set(1000 + rnd * 10 + g)
                rt.flush()
                for g in range(8):
                    values = [c.peek() for c in groups[g]]
                    assert group_sum(g) == sum(values)
                    assert group_max(g) == max(values)
            assert rt.stats.executions >= 5 * 8 * 2
            assert rt.stats.edges_created == created
            assert rt.stats.edges_removed == 0
        assert rt.check_invariants() == []
    finally:
        rt.close()


# -- random programs whose read sets depend on data --------------------------

N_CELLS = 6
N_PROCS = 5


def _plan(seed):
    """Procedure i reads a selector cell, then one of two cell lists
    and some lower-numbered procedures, chosen by the selector's value."""
    rng = random.Random(seed)
    plans = []
    for i in range(N_PROCS):
        selector = rng.randrange(N_CELLS)
        branches = []
        for _ in range(2):
            cells = [rng.randrange(N_CELLS) for _ in range(rng.randint(0, 3))]
            calls = [rng.randrange(i) for _ in range(rng.randint(0, 2))] if i else []
            branches.append((cells, calls))
        plans.append((selector, branches))
    return plans


def _reads(plans, i, load, call):
    """Run procedure i's body against ``load`` (cell index -> value) and
    ``call`` (procedure index -> value); returns (value, read order)."""
    selector, branches = plans[i]
    order = [("cell", selector)]
    cells, calls = branches[load(selector) % 2]
    total = i
    for c in cells:
        order.append(("cell", c))
        total += load(c)
    for p in calls:
        order.append(("proc", p))
        total += 2 * call(p)
    return total, order


def _exhaustive(plans, values, i):
    return _reads(
        plans, i, lambda c: values[c], lambda p: _exhaustive(plans, values, p)
    )[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    writes=st.lists(
        st.tuples(st.integers(0, N_CELLS - 1), st.integers(0, 5)),
        max_size=25,
    ),
    demand_every=st.integers(1, 5),
)
def test_reuse_matches_the_read_set_of_a_fresh_run(seed, writes, demand_every):
    plans = _plan(seed)
    rt = Runtime()
    with rt.active():
        cells = [Cell(v % 3, label=f"c{v}") for v in range(N_CELLS)]
        procs = []

        def make(i):
            @cached
            def proc():
                return _reads(
                    plans,
                    i,
                    lambda c: cells[c].get(),
                    lambda p: procs[p](),
                )[0]

            return proc

        procs.extend(make(i) for i in range(N_PROCS))
        for step, (index, value) in enumerate(writes):
            cells[index].set(value)
            if step % demand_every == 0:
                procs[(index + step) % N_PROCS]()
        values = [c.peek() for c in cells]
        for i, proc in enumerate(procs):
            assert proc() == _exhaustive(plans, values, i)
        for i, proc in enumerate(procs):
            node = rt.node_for(proc, ())
            _, order = _reads(
                plans, i, lambda c: values[c], lambda p: _exhaustive(plans, values, p)
            )
            expected = set()
            for kind, k in order:
                if kind == "cell":
                    expected.add(id(cells[k]._node))
                else:
                    expected.add(id(rt.node_for(procs[k], ())))
            got = [id(n) for n in node.pred.nodes()]
            assert len(got) == len(set(got))
            assert set(got) == expected
        assert rt.stats.live_edges == _walked_edges(rt)
        assert rt.check_invariants() == []
