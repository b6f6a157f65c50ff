"""Stream records, CRCs, and persisted positions (repro.replicate.stream)."""

from repro.replicate.stream import (
    StreamPosition,
    ack,
    concat_wal,
    make_record,
    nack,
    record_crc,
    session_resync_frame,
    verify_record,
)


class TestRecords:
    def test_roundtrip_verifies(self):
        record = make_record(1, "ckpt", '{"nodes": []}')
        assert verify_record(record) is None

    def test_payload_tamper_fails_crc(self):
        record = make_record(1, "wal", "deadbeef {}")
        record["p"] = record["p"] + "x"
        assert "CRC" in verify_record(record)

    def test_bad_lsn_kind_and_shape_are_rejected(self):
        assert verify_record("nope") is not None
        assert verify_record({"lsn": 0, "k": "wal", "p": "", "crc": record_crc("")}) is not None
        assert verify_record({"lsn": 1, "k": "zap", "p": "", "crc": record_crc("")}) is not None
        assert verify_record({"lsn": 1, "k": "wal", "p": 7, "crc": "0"}) is not None

    def test_unknown_kind_refused_at_construction(self):
        # "edit" was the retired edit-log sidecar's kind.
        for kind in ("zap", "edit"):
            try:
                make_record(1, kind, "x")
            except ValueError:
                pass
            else:
                raise AssertionError(f"expected ValueError for {kind!r}")

    def test_ack_and_nack_shapes(self):
        assert ack("s", 4) == {"sid": "s", "applied": True, "lsn": 4}
        refusal = nack("s", 5, "gap")
        assert refusal["resync"] is True and refusal["expect"] == 5


class TestStreamPosition:
    def test_persists_across_reload(self, tmp_path):
        path = str(tmp_path / "sheet.pos")
        pos = StreamPosition(path)
        assert pos.expect() == 1
        pos.advance(3, applied=3)
        pos.reset(10)
        again = StreamPosition(path)
        assert again.lsn == 10
        assert again.applied == 3
        assert again.resyncs == 1

    def test_garbled_position_file_starts_at_zero(self, tmp_path):
        path = str(tmp_path / "sheet.pos")
        with open(path, "w") as fh:
            fh.write("not json")
        pos = StreamPosition(path)
        assert pos.lsn == 0  # costs a resync, never correctness


class TestResyncFrame:
    def test_frame_carries_all_three_files(self, tmp_path):
        # Checkpoint, sealed WAL segments, active WAL — and nothing else.
        base = tmp_path / "sid1"
        base.mkdir()
        (base / "sheet").write_text("CKPT")
        (base / "sheet.wal").write_text("active\n")
        (base / "sheet.wal.seg000001").write_text("sealed1\n")
        (base / "sheet.wal.seg000002").write_text("sealed2\n")
        frame = session_resync_frame(str(tmp_path), "sid1", 7)
        assert frame["kind"] == "resync" and frame["lsn"] == 7
        assert frame["ckpt"] == "CKPT"
        # Sealed segments oldest-first, then the active file.
        assert frame["wal"] == "sealed1\nsealed2\nactive\n"
        assert set(frame) == {"kind", "sid", "lsn", "ckpt", "wal"}

    def test_missing_files_become_null_and_empty(self, tmp_path):
        frame = session_resync_frame(str(tmp_path), "ghost", 0)
        assert frame["ckpt"] is None
        assert frame["wal"] == ""

    def test_concat_wal_of_absent_log_is_empty(self, tmp_path):
        assert concat_wal(str(tmp_path / "none.wal")) == ""
