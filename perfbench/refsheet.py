"""Independent from-scratch reference for the generated formula grammar.

This is the benchmark's correctness oracle: every cell is evaluated
from its formula text alone, with no caching across states and no
import of ``repro``.  The incremental result must equal it (Liu's
"incremental equals from-scratch" condition; the paper's Theorem 5.1).

Grammar: ``term { "+" term }`` with ``term := INT | RnCm |
SUM(RaCb:RcCd)``; an empty cell is 0.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple

_TERM = re.compile(
    r"\s*(?:SUM\(R(\d+)C(\d+):R(\d+)C(\d+)\)|R(\d+)C(\d+)|(\d+))\s*(\+|$)"
)

# A parsed term: ("i", n) | ("r", row, col) | ("s", r1, c1, r2, c2)
Term = Tuple[Any, ...]


class GrammarError(Exception):
    """The formula is outside the generated grammar, or cycles."""


def parse(source: Any) -> List[Term]:
    if isinstance(source, int):
        return [("i", source)]
    terms: List[Term] = []
    pos = 0
    text = str(source)
    while True:
        m = _TERM.match(text, pos)
        if m is None:
            raise GrammarError(f"unparsable formula {text!r} at {pos}")
        g = m.groups()
        if g[0] is not None:
            terms.append(("s", int(g[0]), int(g[1]), int(g[2]), int(g[3])))
        elif g[4] is not None:
            terms.append(("r", int(g[4]), int(g[5])))
        else:
            terms.append(("i", int(g[6])))
        pos = m.end()
        if g[7] == "":
            return terms


class RefSheet:
    """A grid of formula sources evaluated from scratch on demand."""

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self._terms: Dict[Tuple[int, int], List[Term]] = {}
        self._parsed: Dict[Any, List[Term]] = {}

    def set(self, row: int, col: int, source: Any) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise GrammarError(f"R{row}C{col} outside the grid")
        key = (type(source), source)
        terms = self._parsed.get(key)
        if terms is None:
            terms = self._parsed[key] = parse(source)
        self._terms[(row, col)] = terms

    def values(self) -> List[List[int]]:
        """Every cell's value, computed from the formulas alone."""
        memo: Dict[Tuple[int, int], int] = {}
        active: set = set()

        def cell(r: int, c: int) -> int:
            key = (r, c)
            if key in memo:
                return memo[key]
            if key in active:
                raise GrammarError(f"circular reference at R{r}C{c}")
            active.add(key)
            total = 0
            for term in self._terms.get(key, ()):
                kind = term[0]
                if kind == "i":
                    total += term[1]
                elif kind == "r":
                    total += cell(term[1], term[2])
                else:
                    _, r1, c1, r2, c2 = term
                    for rr in range(min(r1, r2), max(r1, r2) + 1):
                        for cc in range(min(c1, c2), max(c1, c2) + 1):
                            total += cell(rr, cc)
            active.discard(key)
            memo[key] = total
            return total

        return [[cell(r, c) for c in range(self.cols)] for r in range(self.rows)]
