"""Spreadsheet model tests (paper Algorithm 10)."""

import pytest

from repro.spreadsheet import CircularReference, Spreadsheet


class TestBasics:
    def test_empty_cells_are_zero(self, rt):
        sheet = Spreadsheet(2, 2)
        assert sheet.value(0, 0) == 0
        assert sheet.values() == [[0, 0], [0, 0]]

    def test_constant(self, rt):
        sheet = Spreadsheet(2, 2)
        sheet.set_formula(0, 0, 5)
        assert sheet.value(0, 0) == 5

    def test_formula_text(self, rt):
        sheet = Spreadsheet(2, 2)
        sheet.set_formula(0, 0, "1 + 2 + 3")
        assert sheet.value(0, 0) == 6

    def test_cross_cell_reference(self, rt):
        sheet = Spreadsheet(2, 2)
        sheet.set_formula(0, 0, 10)
        sheet.set_formula(0, 1, "R0C0 + 1")
        assert sheet.value(0, 1) == 11

    def test_let_in_formula(self, rt):
        sheet = Spreadsheet(1, 2)
        sheet.set_formula(0, 0, 7)
        sheet.set_formula(0, 1, "let v = R0C0 in v + v ni")
        assert sheet.value(0, 1) == 14

    def test_clear_cell(self, rt):
        sheet = Spreadsheet(1, 2)
        sheet.set_formula(0, 0, 9)
        sheet.set_formula(0, 1, "R0C0")
        assert sheet.value(0, 1) == 9
        sheet.clear(0, 0)
        assert sheet.value(0, 1) == 0

    def test_out_of_range_rejected(self, rt):
        sheet = Spreadsheet(2, 2)
        with pytest.raises(IndexError):
            sheet.value(2, 0)
        with pytest.raises(IndexError):
            sheet.set_formula(0, 5, 1)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Spreadsheet(0, 3)

    def test_unsupported_formula_type(self, rt):
        sheet = Spreadsheet(1, 1)
        with pytest.raises(TypeError):
            sheet.set_formula(0, 0, 3.14)

    def test_prebuilt_expression(self, rt):
        from repro.ag.expr import num, plus

        sheet = Spreadsheet(1, 1)
        sheet.set_formula(0, 0, plus(num(2), num(3)))
        assert sheet.value(0, 0) == 5


class TestPropagation:
    def test_edit_ripples_through_chain(self, rt):
        sheet = Spreadsheet(1, 5)
        sheet.set_formula(0, 0, 1)
        for col in range(1, 5):
            sheet.set_formula(0, col, f"R0C{col - 1} + 1")
        assert sheet.value(0, 4) == 5
        sheet.set_formula(0, 0, 10)
        assert sheet.value(0, 4) == 14

    def test_fanout_all_dependents_update(self, rt):
        sheet = Spreadsheet(3, 3)
        sheet.set_formula(0, 0, 2)
        for row in range(1, 3):
            for col in range(3):
                sheet.set_formula(row, col, f"R0C0 + {row}{col}")
        sheet.values()
        sheet.set_formula(0, 0, 100)
        assert sheet.value(1, 0) == 110
        assert sheet.value(2, 2) == 122

    def test_unaffected_cells_stay_cached(self, rt):
        sheet = Spreadsheet(2, 2)
        sheet.set_formula(0, 0, 1)
        sheet.set_formula(0, 1, "R0C0 + 1")
        sheet.set_formula(1, 0, 5)
        sheet.set_formula(1, 1, "R1C0 + 1")
        assert sheet.values() == [[1, 2], [5, 6]]
        sheet.set_formula(0, 0, 50)
        before = rt.stats.snapshot()
        assert sheet.value(1, 1) == 6  # row 1 untouched
        assert rt.stats.delta(before)["executions"] == 0

    def test_formula_replacement_detaches_old_dependencies(self, rt):
        sheet = Spreadsheet(1, 3)
        sheet.set_formula(0, 0, 1)
        sheet.set_formula(0, 1, 100)
        sheet.set_formula(0, 2, "R0C0")
        assert sheet.value(0, 2) == 1
        sheet.set_formula(0, 2, "R0C1")  # now depends on C1 instead
        assert sheet.value(0, 2) == 100
        # editing C0 must no longer disturb C2
        sheet.set_formula(0, 0, 999)
        before = rt.stats.snapshot()
        assert sheet.value(0, 2) == 100
        assert rt.stats.delta(before)["executions"] == 0

    def test_edit_reference_coordinates(self, rt):
        sheet = Spreadsheet(1, 3)
        sheet.set_formula(0, 0, 10)
        sheet.set_formula(0, 1, 20)
        ref = sheet.ref(0, 0)
        from repro.ag.expr import root

        wrapped = root(ref)
        sheet.cell_at(0, 2).func = wrapped
        assert sheet.value(0, 2) == 10
        ref.y = 1  # retarget the reference itself (tracked terminal)
        assert sheet.value(0, 2) == 20

    def test_diamond_dependency(self, rt):
        sheet = Spreadsheet(1, 4)
        sheet.set_formula(0, 0, 1)
        sheet.set_formula(0, 1, "R0C0 + 1")
        sheet.set_formula(0, 2, "R0C0 + 2")
        sheet.set_formula(0, 3, "R0C1 + R0C2")
        assert sheet.value(0, 3) == 5
        sheet.set_formula(0, 0, 10)
        assert sheet.value(0, 3) == 23


class TestCircularReferences:
    def test_direct_self_reference(self, rt):
        sheet = Spreadsheet(1, 1)
        sheet.set_formula(0, 0, "R0C0")
        with pytest.raises(CircularReference):
            sheet.value(0, 0)

    def test_mutual_cycle(self, rt):
        sheet = Spreadsheet(1, 2)
        sheet.set_formula(0, 0, "R0C1")
        sheet.set_formula(0, 1, "R0C0")
        with pytest.raises(CircularReference):
            sheet.value(0, 0)

    def test_cycle_through_three_cells(self, rt):
        sheet = Spreadsheet(1, 3)
        sheet.set_formula(0, 0, "R0C1")
        sheet.set_formula(0, 1, "R0C2")
        sheet.set_formula(0, 2, "R0C0 + 1")
        with pytest.raises(CircularReference):
            sheet.value(0, 1)

    def test_cycle_broken_by_edit_recovers(self, rt):
        sheet = Spreadsheet(1, 2)
        sheet.set_formula(0, 0, "R0C1")
        sheet.set_formula(0, 1, "R0C0")
        with pytest.raises(CircularReference):
            sheet.value(0, 0)
        sheet.set_formula(0, 1, 7)  # break the cycle
        assert sheet.value(0, 0) == 7
        assert sheet.value(0, 1) == 7


class TestOrderMaintenance:
    def test_same_shape_edit_keeps_existing_heights(self, rt):
        """Rewriting the head of a 200-row chain with a formula of the
        same shape raises only the fresh formula tree: no node that
        existed before the edit changes its order."""
        rows = 200
        sheet = Spreadsheet(rows, 1)
        sheet.set_formula(0, 0, "1 + 2")
        for row in range(1, rows):
            sheet.set_formula(row, 0, f"R{row - 1}C0 + 1")
        assert sheet.value(rows - 1, 0) == 3 + rows - 1
        before = [(node, node.order) for node in rt.graph.nodes]
        sheet.set_formula(0, 0, "2 + 2")
        assert sheet.value(rows - 1, 0) == 4 + rows - 1
        moved = [node.label for node, order in before if node.order != order]
        assert moved == []


class TestEdgeReuse:
    def test_same_references_edit_creates_only_the_new_tree(self, rt):
        """Rewriting a cell's constant while keeping its references
        re-executes every dependent, but each reads the same sources as
        before: only the fresh formula tree gets new edges."""
        rows = 100
        sheet = Spreadsheet(rows, 2)
        sheet.set_formula(0, 0, 1)
        sheet.set_formula(0, 1, 2)
        for row in range(1, rows):
            sheet.set_formula(row, 0, f"R{row - 1}C0 + R{row - 1}C1")
            sheet.set_formula(row, 1, f"R{row - 1}C1 + 1")
        assert sheet.value(rows - 1, 0) == 1 + sum(2 + r for r in range(rows - 1))
        before = rt.stats.snapshot()
        sheet.set_formula(50, 1, "R49C1 + 5")
        assert sheet.value(rows - 1, 0) == (
            1 + sum(2 + r for r in range(rows - 1)) + 4 * (rows - 51)
        )
        delta = rt.stats.delta(before)
        assert delta["executions"] > 2 * (rows - 51)
        assert delta["edges_created"] <= 20
