"""The Scheduler abstraction: pluggable drain policies and golden-stats
parity between implementations."""

import math

import pytest

from repro import EAGER, HeightOrderedScheduler, Runtime, TopologicalScheduler
from repro.trees import Tree, TreeNil


def _leftmost_interior(root):
    node = root
    while True:
        left = node.field_cell("left").peek()
        if isinstance(left, TreeNil):
            return node
        node = left


class EagerTree(Tree):
    """The E2 tree with eagerly maintained heights: a pointer change
    propagates immediately, and equal recomputed heights cut it."""

    from repro.core import maintained as _maintained

    @_maintained(strategy=EAGER)
    def height(self):
        return max(self.left.height(), self.right.height()) + 1


class EagerNil(TreeNil):
    from repro.core import maintained as _maintained

    @_maintained(strategy=EAGER)
    def height(self):
        return 0


def _build_eager(n, leaf):
    keys = list(range(n))

    def build(lo, hi):
        if lo >= hi:
            return leaf
        mid = (lo + hi) // 2
        return EagerTree(
            key=keys[mid], left=build(lo, mid), right=build(mid + 1, hi)
        )

    return build(0, n)


def _e2_eager_workload(scheduler_spec, n=2**8 - 1):
    """E2 with eager heights: one leaf relink, fully propagated.

    Returns the stats delta for the change + propagation, plus the final
    root height (the semantic answer both schedulers must agree on).
    """
    rt = Runtime(keep_registry=False, scheduler=scheduler_spec)
    with rt.active():
        leaf = EagerNil()
        root = _build_eager(n, leaf)
        initial = root.height()
        node = _leftmost_interior(root)
        before = rt.stats.snapshot()
        node.left = EagerTree(key=-1, left=leaf, right=leaf)
        rt.flush()
        delta = rt.stats.delta(before)
        final = root.height()
    return initial, final, delta


GOLDEN_KEYS = [
    "executions",
    "eager_reexecutions",
    "quiescent_stops",
    "changes_detected",
    "inconsistent_marks",
]


class TestSchedulerParity:
    def test_eager_e2_golden_stats_match_old_evaluator(self):
        """The height scheduler must reproduce the topological scheduler's
        quiescence behavior exactly on the E2 workload: same cuts, same
        re-executions, same answer."""
        n = 2**8 - 1
        height = int(math.log2(n + 1))
        init_topo, final_topo, topo = _e2_eager_workload(TopologicalScheduler, n)
        init_h, final_h, by_height = _e2_eager_workload("height", n)

        assert init_topo == init_h == height
        # the relink hangs a height-1 subtree under the deepest interior
        # node on the leftmost path, lengthening it by one
        assert final_topo == final_h == height + 1
        for key in GOLDEN_KEYS:
            assert topo[key] == by_height[key], key
        # every ancestor's height grew by one: the wave reaches the root
        # with no quiescence cut, but still costs only the path
        assert topo["eager_reexecutions"] <= height + 4
        assert topo["quiescent_stops"] == 0

    def test_eager_quiescent_change_cuts_everywhere(self):
        """Replacing a leaf with an equal-height subtree is pure
        quiescence: re-execution stops at the first unchanged height."""
        _, _, delta = _e2_eager_workload("topological")
        n = 2**8 - 1
        rt = Runtime(keep_registry=False)
        with rt.active():
            leaf = EagerNil()
            root = _build_eager(n, leaf)
            root.height()
            node = _leftmost_interior(root)
            before = rt.stats.snapshot()
            # height-1 subtree replacing a height-1 subtree: no change
            # visible above the relinked node's own recomputation
            node.left = EagerNil()
            rt.flush()
            cut_delta = rt.stats.delta(before)
        assert cut_delta["eager_reexecutions"] < delta["eager_reexecutions"]
        assert cut_delta["quiescent_stops"] >= 1


class TestSchedulerPlumbing:
    def test_default_scheduler_is_topological(self):
        rt = Runtime()
        assert isinstance(rt.scheduler, TopologicalScheduler)
        assert rt.scheduler.name == "topological"

    def test_scheduler_by_name(self):
        rt = Runtime(scheduler="height")
        assert isinstance(rt.scheduler, HeightOrderedScheduler)

    def test_scheduler_by_class_and_factory(self):
        assert isinstance(
            Runtime(scheduler=HeightOrderedScheduler).scheduler,
            HeightOrderedScheduler,
        )
        rt = Runtime(scheduler=lambda r: TopologicalScheduler(r))
        assert isinstance(rt.scheduler, TopologicalScheduler)
        assert rt.scheduler.runtime is rt

    def test_unknown_scheduler_name_rejected(self):
        with pytest.raises(ValueError, match="height"):
            Runtime(scheduler="bogus")

    def test_bad_factory_result_rejected(self):
        with pytest.raises(TypeError):
            Runtime(scheduler=lambda r: object())

    def test_height_scheduler_orders_low_before_high(self):
        """On a linear eager chain the height scheduler must process the
        lowest node first — one pass, no wasted re-executions."""
        from repro import Cell, cached

        rt = Runtime(scheduler="height")
        with rt.active():
            base = Cell(1, label="base")

            @cached(strategy=EAGER)
            def lvl1():
                return base.get() + 1

            @cached(strategy=EAGER)
            def lvl2():
                return lvl1() + 1

            @cached(strategy=EAGER)
            def lvl3():
                return lvl2() + 1

            assert lvl3() == 4
            before = rt.stats.snapshot()
            base.set(10)
            rt.flush()
            delta = rt.stats.delta(before)
            assert lvl3() == 13
        # exactly one re-execution per level: perfect schedule
        assert delta["eager_reexecutions"] == 3
