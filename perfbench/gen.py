"""Seeded input generation for every workload.

Everything the program under test sees is produced here from the run's
seed: the ``sheet-recalc`` grid and its edit/read stream, and the serve
request mix.  Nothing in this module imports ``repro``.

Formula grammar (a subset of the spreadsheet's): ``term { " + " term }``
with ``term := INT | "R" INT "C" INT | "SUM(" ref ":" ref ")"``.  A plain
constant is sent as a JSON/Python ``int``, like the serve load harness
does.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

# -- sheet-recalc --------------------------------------------------------

#: Fraction of sheet-recalc formulas that also add a 3-cell ``SUM``.
SUM_FRACTION = 0.15
#: The sheet-recalc document is the same for every seed: an edit's cost
#: depends steeply on the sheet's wiring, so a sheet per seed would make
#: runs differ by seed more than by the program.  The seed drives the
#: editing session (cells, constants, viewport and reads).
DOCUMENT = "document"


def sheet_refs(rng: random.Random, row: int, col: int, rows: int, cols: int) -> List[str]:
    """The reference terms of a formula for ``(row, col)``: 1-2 cells in
    the three rows above, within +-2 columns, and in ~15% of formulas a
    3-cell horizontal SUM.  Row 0 has none.  Every reference points to a
    higher row, so the sheet is acyclic by construction."""
    if row == 0:
        return []

    def above() -> Tuple[int, int]:
        r = row - rng.randrange(1, min(3, row) + 1)
        c = min(cols - 1, max(0, col + rng.randrange(-2, 3)))
        return r, c

    terms = []
    for _ in range(rng.randrange(1, 3)):
        r, c = above()
        terms.append(f"R{r}C{c}")
    if rng.random() < SUM_FRACTION:
        r, c = above()
        c = min(cols - 3, max(0, c - 1))
        terms.append(f"SUM(R{r}C{c}:R{r}C{c + 2})")
    return terms


def sheet_formula(refs: List[str], constant: int) -> Any:
    """Row 0 holds plain constants; other cells sum their references and
    a constant."""
    return " + ".join(refs + [str(constant)]) if refs else constant


def _constant(rng: random.Random, refs: List[str], avoid: int = -1) -> int:
    """A constant (0-99 alone, 0-9 after references) other than ``avoid``."""
    top = 10 if refs else 100
    if avoid < 0:
        return rng.randrange(top)
    value = rng.randrange(top - 1)
    return value + 1 if value >= avoid else value


class _Shuffled:
    """Values ``0..n-1`` in random order, reshuffled every ``n`` draws:
    random, but every value equally often over a run."""

    def __init__(self, rng: random.Random, n: int) -> None:
        self._rng = rng
        self._n = n
        self._left: List[int] = []

    def next(self) -> int:
        if not self._left:
            self._left = list(range(self._n))
            self._rng.shuffle(self._left)
        return self._left.pop()


class SheetOps:
    """The document and the endless sheet-recalc session for one seed.

    :attr:`initial` is the document, one formula per cell, row-major.
    :meth:`edit` rewrites one random cell, keeping its references and
    drawing a new constant (so every edit changes a value), and picks
    the 6x6 viewport refreshed after it; :meth:`read` picks one point
    read.  Edited cells, viewport corners and read cells are drawn
    stratified: each cycle of draws visits every cell (or corner) once,
    in a seeded order.  An edit's cost grows steeply toward the top
    rows, and what a refresh drains depends on where it looks, so plain
    sampling would make a run's cost hinge on its draws.  The stream
    depends only on the seed and the call order.
    """

    VIEWPORT = 6

    def __init__(self, seed: Any, rows: int, cols: int) -> None:
        doc = random.Random(f"sheet-doc:{DOCUMENT}")
        self._refs = {}
        self._const = {}
        for r in range(rows):
            for c in range(cols):
                refs = sheet_refs(doc, r, c, rows, cols)
                self._refs[(r, c)] = refs
                self._const[(r, c)] = _constant(doc, refs)
        self.initial = [
            (r, c, sheet_formula(self._refs[(r, c)], self._const[(r, c)]))
            for r in range(rows)
            for c in range(cols)
        ]
        rng = self._rng = random.Random(f"sheet-ops:{seed}")
        self._cols = cols
        self._view_cols = cols - (self.VIEWPORT - 1)
        self._edit = _Shuffled(rng, rows * cols)
        self._view = _Shuffled(rng, (rows - (self.VIEWPORT - 1)) * self._view_cols)
        self._read = _Shuffled(rng, rows * cols)

    def edit(self) -> Tuple[int, int, Any, int, int]:
        r, c = divmod(self._edit.next(), self._cols)
        refs = self._refs[(r, c)]
        constant = self._const[(r, c)] = _constant(self._rng, refs, self._const[(r, c)])
        vr, vc = divmod(self._view.next(), self._view_cols)
        return r, c, sheet_formula(refs, constant), vr, vc

    def read(self) -> Tuple[int, int]:
        return divmod(self._read.next(), self._cols)


# -- serve mix -----------------------------------------------------------

READ_FRACTION = 0.3
BATCH_FRACTION = 0.25


def serve_formula(rng: random.Random, rows: int, cols: int) -> Tuple[int, int, Any]:
    """A random edit whose formula references only lower-index cells
    (the serve load harness's generator: 35% constants, else 1-2
    references plus a constant)."""
    index = rng.randrange(rows * cols)
    row, col = divmod(index, cols)
    if rng.random() < 0.35 or index == 0:
        return row, col, rng.randrange(100)
    refs = []
    for _ in range(rng.randrange(1, 3)):
        ref = rng.randrange(index)
        refs.append(f"R{ref // cols}C{ref % cols}")
    return row, col, " + ".join(refs + [str(rng.randrange(10))])


def serve_request(rng: random.Random, sid: str, rows: int, cols: int) -> Dict[str, Any]:
    """One request of the mix: 30% fresh point reads; of the writes, a
    quarter are 2-4-cell batches and the rest single-cell writes."""
    if rng.random() < READ_FRACTION:
        index = rng.randrange(rows * cols)
        return {"op": "read", "session": sid, "row": index // cols, "col": index % cols}
    if rng.random() < BATCH_FRACTION:
        cells = [list(serve_formula(rng, rows, cols)) for _ in range(rng.randrange(2, 5))]
        return {"op": "batch", "session": sid, "cells": cells}
    return {"op": "write", "session": sid, "cells": [list(serve_formula(rng, rows, cols))]}


class SessionPicker:
    """Session popularity: weight ``1 / rank**skew`` (0 is uniform)."""

    def __init__(self, sessions: List[str], skew: float = 0.0) -> None:
        self.sessions = list(sessions)
        self.weights = [1.0 / (i + 1) ** skew for i in range(len(sessions))]

    def subset(self, indices: List[int]) -> "SessionPicker":
        """The same popularity restricted to some sessions."""
        picker = SessionPicker([])
        picker.sessions = [self.sessions[i] for i in indices]
        picker.weights = [self.weights[i] for i in indices]
        return picker

    def pick(self, rng: random.Random) -> str:
        return rng.choices(self.sessions, self.weights)[0]


def open_loop_schedule(
    seed: Any, rate: float, seconds: float, picker: SessionPicker, rows: int, cols: int
) -> List[Tuple[float, Dict[str, Any]]]:
    """A fixed-rate open loop: one request every ``1/rate`` seconds for
    ``seconds``, as a list of ``(due offset in seconds, request)``.
    Arrivals are evenly spaced, so a run's tail latency comes from the
    program, not from how bursty the seed's arrivals happened to be."""
    rng = random.Random(f"open:{seed}")
    return [
        (i / rate, serve_request(rng, picker.pick(rng), rows, cols))
        for i in range(int(seconds * rate))
    ]
