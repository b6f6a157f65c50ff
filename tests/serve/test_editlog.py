"""Edit history durability: one log per session, derived from the WAL.

A session's edit history (``Session.edit_log`` / ``{"op": "log"}``) is
the sheet's WAL-derived history: carried in each checkpoint and
extended by the WAL tail's application records on recovery.  These
tests pin the crash and damage contracts that follow from having one
durable log: an unacknowledged edit is absent while acknowledged ones
survive, a torn WAL tail loses only the torn edit, mid-file WAL damage
opens on the surviving prefix with history and grid agreeing, and no
second history file is ever written.
"""

import os

import pytest

from repro.serve import ServeConfig
from repro.serve.loadgen import _replay_serially
from repro.serve.session import Session
from repro.testing import CrashPoint, SimulatedCrash


def make_config(tmp_path, **kw):
    kw.setdefault("root", str(tmp_path / "state"))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("watchdog_max_steps", None)
    kw.setdefault("explain", False)
    return ServeConfig(**kw)


def write_uncheckpointed(config, edits):
    """Apply ``edits`` one write each, then close without a checkpoint,
    so every edit lives only in the WAL tail; returns the WAL path."""
    session = Session.open("a", config)
    for edit in edits:
        session.apply({"op": "write", "cells": [edit]})
    session.close(checkpoint=False)
    return session.path + ".wal"


def assert_history_matches_grid(session, config):
    """The served grid equals a serial replay of the served log."""
    dump = session.apply({"op": "dump"})
    log = session.apply({"op": "log"})["edits"]
    assert dump["values"] == _replay_serially(log, config.rows, config.cols)
    assert session.apply({"op": "audit"})["sound"] is True


class TestCrashDurability:
    def test_unacked_edit_is_absent_acked_edits_survive(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("a", config)
        session.apply({"op": "write", "cells": [[0, 0, "5"]]})  # acked

        # Power loss at the next WAL append: set_formula dies before
        # the doomed cell's redo record is complete, so the history
        # never gains an edit the WAL does not have.
        crash = CrashPoint("wal-append", nth=1)
        with crash.applied(session.runtime):
            with pytest.raises(SimulatedCrash):
                session.apply({"op": "write", "cells": [[0, 1, "7"]]})
        assert crash.fired
        session.runtime.close()  # the process is gone: drop its handles

        # The resurrected session agrees with the durable history.
        revived = Session.open("a", config)
        assert revived.edit_log == [[0, 0, "5"]]
        assert revived.apply({"op": "read", "row": 0, "col": 0})["value"] == 5
        assert revived.apply({"op": "read", "row": 0, "col": 1})["value"] == 0
        assert revived.apply({"op": "audit"})["sound"] is True
        revived.close()
        # The checkpoint + WAL pair is the only history on disk.
        leftovers = [
            name
            for _dir, _subdirs, files in os.walk(config.root)
            for name in files
            if name.endswith(".editlog")
        ]
        assert leftovers == []

    def test_torn_final_wal_record_is_dropped_on_load(self, tmp_path):
        config = make_config(tmp_path)
        wal = write_uncheckpointed(config, [[0, 0, "5"], [0, 1, "7"]])
        raw = open(wal, "rb").read()
        with open(wal, "wb") as fh:
            fh.write(raw[:-9])  # crash mid-append of the last record
        revived = Session.open("a", config)
        try:
            assert revived.runtime.last_recovery.dropped_tail
            assert revived.edit_log == [[0, 0, "5"]]
            assert revived.apply({"op": "read", "row": 0, "col": 1})["value"] == 0
            assert_history_matches_grid(revived, config)
        finally:
            revived.close()

    def test_mid_file_wal_damage_opens_on_agreeing_prefix(self, tmp_path):
        config = make_config(tmp_path)
        edits = [[0, 0, "5"], [0, 1, "6"], [0, 2, "R0C0 + R0C1"]]
        wal = write_uncheckpointed(config, edits)
        lines = open(wal, "rb").read().split(b"\n")
        damaged = next(i for i, line in enumerate(lines) if b'"col":1' in line)
        line = bytearray(lines[damaged])
        line[len(line) // 2] ^= 0x01
        lines[damaged] = bytes(line)
        with open(wal, "wb") as fh:
            fh.write(b"\n".join(lines))
        revived = Session.open("a", config)  # degraded, never raises
        try:
            assert revived.runtime.last_recovery.mode == "degraded"
            assert revived.edit_log == edits[:1]
            assert revived.apply({"op": "read", "row": 0, "col": 2})["value"] == 0
            assert_history_matches_grid(revived, config)
        finally:
            revived.close()

    def test_byte_flip_in_any_non_checkpoint_file_never_breaks_open(self, tmp_path):
        # Every file a session persists besides the checkpoint itself
        # (whose damage is SpreadsheetLoadError by contract) must
        # degrade, not raise, when a byte of its first line flips.
        config = make_config(tmp_path)
        edits = [[0, 0, "1"], [0, 1, "2"], [0, 2, "3"]]
        write_uncheckpointed(config, edits)
        directory = os.path.join(config.root, "a")
        side_files = sorted(
            name for name in os.listdir(directory) if name != "sheet"
        )
        assert side_files
        for name in side_files:
            path = os.path.join(directory, name)
            raw = bytearray(open(path, "rb").read())
            raw[1] ^= 0x20
            with open(path, "wb") as fh:
                fh.write(raw)
        revived = Session.open("a", config)
        try:
            log = revived.edit_log
            assert log == edits[: len(log)]
            assert_history_matches_grid(revived, config)
        finally:
            revived.close()
