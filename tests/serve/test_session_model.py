"""Model-based test: one Session against a plain list of committed edits.

A Hypothesis state machine drives a single session through writes,
batches (committed and rolled back), eviction and resurrection, crash
and reopen, and byte flips inside the live WAL.  The model is just the
list of edits a client saw committed.  After every step:

* ``{"op": "log"}`` equals the model — except that a reopen after WAL
  damage may recover only a prefix of it, and never an edit the model
  lacks (the model then adopts that prefix: it is the new truth);
* the ``dump`` grid equals a serial replay of the log on a fresh sheet
  (the paper's incremental = from-scratch claim, per session);
* the invariant audit is sound.

``Session.open`` must never raise along the way: WAL damage degrades.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.serve import ServeConfig, Session, SessionOpError
from repro.serve.loadgen import _replay_serially
from repro.testing import CrashPoint, SimulatedCrash

ROWS = COLS = 3


@st.composite
def edits(draw):
    """One ``[row, col, formula]`` edit.  A formula reads only cells in
    earlier rows, so no edit sequence can build a cycle."""
    row = draw(st.integers(0, ROWS - 1))
    col = draw(st.integers(0, COLS - 1))
    constant = str(draw(st.integers(0, 9)))
    if row == 0:
        return [row, col, constant]
    ref = f"R{draw(st.integers(0, row - 1))}C{draw(st.integers(0, COLS - 1))}"
    formula = draw(
        st.sampled_from(
            [constant, f"{ref} + {constant}", f"SUM(R0C0:{ref})"]
        )
    )
    return [row, col, formula]


BAD_FORMULAS = st.sampled_from(["= R0C0 +", ")(", "R0C0 +"])


class SessionModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="session-model-")
        self.config = ServeConfig(
            root=self.root,
            rows=ROWS,
            cols=COLS,
            watchdog_max_steps=None,
            explain=False,
        )
        self.session = Session.open("m", self.config)
        self.model = []
        #: A byte of the live WAL was flipped since the last checkpoint.
        self.wal_damaged = False

    def teardown(self):
        self.session.close(checkpoint=False)
        shutil.rmtree(self.root, ignore_errors=True)

    def reopen(self):
        """Open the session from disk, reconciling the model with
        whatever prefix WAL damage let recovery keep."""
        self.session = Session.open("m", self.config)
        log = self.session.edit_log
        if self.wal_damaged:
            assert log == self.model[: len(log)]
            self.model = [list(edit) for edit in log]
            self.wal_damaged = False

    # -- rules -----------------------------------------------------------

    @rule(cells=st.lists(edits(), min_size=1, max_size=3))
    def write(self, cells):
        self.session.apply({"op": "write", "cells": cells})
        self.model.extend(cells)

    @rule(cells=st.lists(edits(), min_size=2, max_size=3))
    def batch(self, cells):
        self.session.apply({"op": "batch", "cells": cells})
        self.model.extend(cells)

    @rule(
        cells=st.lists(edits(), min_size=1, max_size=2),
        bad=BAD_FORMULAS,
        data=st.data(),
    )
    def failing_batch(self, cells, bad, data):
        row = data.draw(st.integers(0, ROWS - 1))
        col = data.draw(st.integers(0, COLS - 1))
        with pytest.raises(SessionOpError, match="rolled back"):
            self.session.apply(
                {"op": "batch", "cells": cells + [[row, col, bad]]}
            )

    @rule()
    def evict_and_resurrect(self):
        self.session.close(reason="eviction")
        # The closing checkpoint subsumed (and truncated) the WAL.
        self.wal_damaged = False
        self.reopen()
        assert self.session.resurrected

    @rule()
    def crash_without_checkpoint(self):
        self.session.close(checkpoint=False)
        self.reopen()

    @rule(cell=edits())
    def crash_mid_wal_append(self, cell):
        crash = CrashPoint("wal-append", nth=1)
        with crash.applied(self.session.runtime):
            with pytest.raises(SimulatedCrash):
                self.session.apply({"op": "write", "cells": [cell]})
        # The process is gone: release its handles without writing.
        self.session.runtime.close()
        self.reopen()

    @rule(data=st.data())
    def flip_wal_byte(self, data):
        path = self.session.path + ".wal"
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        if not raw:
            return  # nothing since the last checkpoint to damage
        offset = data.draw(st.integers(0, len(raw) - 1))
        raw[offset] ^= data.draw(st.integers(1, 255))
        with open(path, "r+b") as fh:
            fh.write(raw)
        self.wal_damaged = True

    # -- invariants --------------------------------------------------------

    @invariant()
    def history_matches_model_and_grid(self):
        log = self.session.apply({"op": "log"})["edits"]
        assert log == self.model
        dump = self.session.apply({"op": "dump"})["values"]
        assert dump == _replay_serially(log, ROWS, COLS)
        assert self.session.apply({"op": "audit"})["sound"] is True


SessionModel.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=15,
    deadline=None,
    derandomize=True,
)
TestSessionModel = SessionModel.TestCase
