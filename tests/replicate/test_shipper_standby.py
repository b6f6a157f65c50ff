"""Shipper delivery, gap detection, and standby application
(repro.replicate.shipper + repro.replicate.standby)."""

import os

from repro.persist.wal import WriteAheadLog
from repro.replicate.shipper import InprocLink, LinkDown, Shipper
from repro.replicate.standby import StandbyApplier
from repro.replicate.stream import (
    make_record,
    record_crc,
    session_resync_frame,
)
from repro.resil import RetryPolicy


def _wal_line(n):
    """A real, CRC-stamped WAL line (standbys re-verify embedded CRCs)."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.wal")
        wal = WriteAheadLog(path)
        wal.append({"t": "a", "d": {"n": n}})
        wal.close()
        with open(path, encoding="utf-8") as fh:
            return fh.read().rstrip("\n")


def _records(*lsns):
    return [make_record(lsn, "wal", _wal_line(lsn)) for lsn in lsns]


def _resync(lsn=0):
    return {"kind": "resync", "sid": "s", "lsn": lsn, "ckpt": None, "wal": ""}


class TestStandbyApplier:
    def test_applies_in_order_and_persists_position(self, tmp_path):
        applier = StandbyApplier(str(tmp_path), warm_every=0)
        result = applier.apply(
            {"kind": "records", "sid": "s", "records": _records(1, 2, 3)}
        )
        assert result["applied"] is True and result["lsn"] == 3
        applier.close()
        # A restarted applier resumes gap detection from the sidecar.
        again = StandbyApplier(str(tmp_path), warm_every=0)
        refusal = again.apply(
            {"kind": "records", "sid": "s", "records": _records(5)}
        )
        assert refusal["applied"] is False and refusal["expect"] == 4
        again.close()

    def test_lsn_gap_keeps_good_prefix_and_nacks(self, tmp_path):
        applier = StandbyApplier(str(tmp_path), warm_every=0)
        result = applier.apply(
            {
                "kind": "records",
                "sid": "s",
                "records": _records(1) + _records(3),  # 2 is missing
            }
        )
        assert result["applied"] is False
        assert result["expect"] == 2
        assert applier.gaps == 1
        # The good prefix landed in the WAL.
        wal_text = (tmp_path / "s" / "sheet.wal").read_text()
        assert wal_text.count("\n") == 1
        applier.close()

    def test_crc_tamper_is_refused(self, tmp_path):
        applier = StandbyApplier(str(tmp_path), warm_every=0)
        bad = _records(1)
        bad[0]["p"] = bad[0]["p"] + "!"
        result = applier.apply({"kind": "records", "sid": "s", "records": bad})
        assert result["applied"] is False and "CRC" in result["reason"]
        applier.close()

    def test_retired_edit_record_kind_is_refused(self, tmp_path):
        # Edit history rides in the WAL: a stand-alone "edit" record
        # from the wire is an unknown kind, answered with a nack.
        applier = StandbyApplier(str(tmp_path), warm_every=0)
        payload = '[0, 0, "5"]'
        record = {"lsn": 1, "k": "edit", "p": payload, "crc": record_crc(payload)}
        result = applier.apply(
            {"kind": "records", "sid": "s", "records": [record]}
        )
        assert result["applied"] is False and result["expect"] == 1
        assert "unknown record kind 'edit'" in result["reason"]
        assert not (tmp_path / "s" / "sheet.wal").exists()
        applier.close()

    def test_wal_record_with_broken_embedded_crc_is_refused(self, tmp_path):
        applier = StandbyApplier(str(tmp_path), warm_every=0)
        line = _wal_line(1)
        broken = "0" * 8 + line[8:]  # valid frame CRC, broken WAL CRC
        record = make_record(1, "wal", broken)
        result = applier.apply(
            {"kind": "records", "sid": "s", "records": [record]}
        )
        assert result["applied"] is False
        assert "embedded" in result["reason"]
        applier.close()

    def test_ckpt_record_replaces_checkpoint_and_truncates_wal(self, tmp_path):
        applier = StandbyApplier(str(tmp_path), warm_every=0)
        records = [
            make_record(1, "wal", _wal_line(1)),
            make_record(2, "ckpt", "CKPT-BYTES"),
            make_record(3, "wal", _wal_line(2)),
        ]
        result = applier.apply(
            {"kind": "records", "sid": "s", "records": records}
        )
        assert result["applied"] is True
        assert (tmp_path / "s" / "sheet").read_text() == "CKPT-BYTES"
        # Only the post-checkpoint WAL line survives the truncation.
        wal_text = (tmp_path / "s" / "sheet.wal").read_text()
        assert wal_text.count("\n") == 1
        applier.close()

    def test_resync_rewrites_everything_and_resets_position(self, tmp_path):
        applier = StandbyApplier(str(tmp_path), warm_every=0)
        applier.apply({"kind": "records", "sid": "s", "records": _records(1)})
        frame = {
            "kind": "resync", "sid": "s", "lsn": 9,
            "ckpt": "NEW", "wal": "walline\n",
        }
        result = applier.apply(frame)
        assert result["applied"] is True and result["lsn"] == 9
        assert (tmp_path / "s" / "sheet").read_text() == "NEW"
        assert (tmp_path / "s" / "sheet.wal").read_text() == "walline\n"
        assert sorted(os.listdir(tmp_path / "s")) == [
            "sheet", "sheet.pos", "sheet.wal",
        ]
        # Next record must continue from the resync position.
        ok = applier.apply(
            {"kind": "records", "sid": "s", "records": _records(10)}
        )
        assert ok["applied"] is True
        applier.close()

    def test_invalid_frames_raise_value_error(self, tmp_path):
        applier = StandbyApplier(str(tmp_path), warm_every=0)
        for frame in (
            "nope",
            {"kind": "records"},
            {"kind": "zap", "sid": "s"},
            {"kind": "records", "sid": "s", "records": []},
            {"kind": "records", "sid": "../evil", "records": _records(1)},
        ):
            try:
                applier.apply(frame)
            except ValueError:
                continue
            raise AssertionError(f"frame accepted: {frame!r}")
        applier.close()


class TestShipper:
    def _pair(self, tmp_path, **kw):
        applier = StandbyApplier(str(tmp_path / "standby"), warm_every=0)
        link = InprocLink(applier.apply)
        retry = RetryPolicy(
            max_attempts=3, base_delay=0.0, retry_on=LinkDown, sleep=lambda s: None
        )
        shipper = Shipper([link], retry=retry, **kw)
        return applier, link, shipper

    def test_semi_sync_ships_and_acks(self, tmp_path):
        applier, _link, shipper = self._pair(tmp_path)
        shipper.resync("s", _resync(0))
        assert shipper.ship("s", _records(1, 2), lambda: _resync(2)) is True
        status = shipper.status()
        assert status["lag_records"] == 0
        assert status["links"][0]["acked_lsn"]["s"] == 2
        shipper.close()
        applier.close()

    def test_nack_heals_with_resync(self, tmp_path):
        applier, _link, shipper = self._pair(tmp_path)
        shipper.resync("s", _resync(0))
        # Skip lsn 1: the standby nacks, the shipper answers with the
        # caller's resync frame, and delivery still succeeds.
        assert shipper.ship("s", _records(2), lambda: _resync(2)) is True
        assert applier.gaps == 1
        assert applier.resyncs == 2  # attach + healing
        status = shipper.status()
        assert status["links"][0]["acked_lsn"]["s"] == 2
        shipper.close()
        applier.close()

    def test_link_failure_marks_down_then_heals(self, tmp_path):
        applier, link, shipper = self._pair(tmp_path)
        shipper.resync("s", _resync(0))
        link.fail_next = 10  # outlasts every retry attempt
        assert shipper.ship("s", _records(1), lambda: _resync(1)) is False
        status = shipper.status()
        assert status["links"][0]["up"] is False
        assert "s" in status["links"][0]["dirty_sessions"]
        # Link recovers; the cooldown has not expired yet, so force it.
        link.fail_next = 0
        shipper._states[0].down_until = 0.0
        assert shipper.ship("s", _records(2), lambda: _resync(2)) is True
        assert shipper.status()["links"][0]["up"] is True
        # Healing went through a resync, not a blind record append.
        assert applier.resyncs == 2
        shipper.close()
        applier.close()

    def test_async_mode_drains_in_order(self, tmp_path):
        applier, _link, shipper = self._pair(
            tmp_path, mode="async", root=str(tmp_path / "primary")
        )
        shipper.resync("s", _resync(0))
        shipper.ship("s", _records(1, 2, 3))
        assert shipper.flush(timeout=5.0) is True
        assert applier.status()["sessions"]["s"]["lsn"] == 3
        assert applier.gaps == 0
        shipper.close()
        applier.close()

    def test_file_based_resync_fallback(self, tmp_path):
        # No resync_fn and no resync_source: the shipper reads the
        # session files under its root.
        primary = tmp_path / "primary" / "s"
        primary.mkdir(parents=True)
        (primary / "sheet").write_text("CKPT")
        (primary / "sheet.wal").write_text("")
        applier, _link, shipper = self._pair(
            tmp_path, root=str(tmp_path / "primary")
        )
        # Skip lsn 1 with no resync_fn: healing falls back to files.
        assert shipper.ship("s", _records(2)) is True
        assert (tmp_path / "standby" / "s" / "sheet").read_text() == "CKPT"
        shipper.close()
        applier.close()

    def test_frame_helper_matches_fallback(self, tmp_path):
        primary = tmp_path / "primary" / "s"
        primary.mkdir(parents=True)
        (primary / "sheet").write_text("CKPT")
        frame = session_resync_frame(str(tmp_path / "primary"), "s", 3)
        assert frame["ckpt"] == "CKPT" and frame["lsn"] == 3
