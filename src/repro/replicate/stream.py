"""The replication stream: record framing, CRCs, and positions.

One session's durable state is a checkpoint plus its WAL (whose
application records also carry the session's edit history);
replication keeps a warm copy of both on a standby by shipping
*records* — one appended WAL line or one whole checkpoint — stamped
with a per-session, monotonically increasing **stream LSN**.  The
stream is the serialized history of everything the primary made
durable for that session, in the order it became durable, and the LSN
is its position vocabulary:

* the primary assigns LSN ``n+1`` to each record it ships after ``n``;
* the standby acknowledges the highest LSN it has applied;
* a record arriving with ``lsn != applied + 1`` (or failing its CRC)
  is a **gap** — the standby refuses it and answers with the LSN it
  expected, and the primary heals by sending a ``resync`` frame: the
  session's current checkpoint plus the WAL segments since it,
  wholesale (see ``docs/replication.md``).

Two frame kinds travel the wire (inside a serve-protocol ``ship`` op):

``records`` — an ordered batch of stream records::

    {"kind": "records", "sid": ..., "records": [
        {"lsn": 7, "k": "wal",  "p": "<one WAL line>",     "crc": "..."},
        {"lsn": 8, "k": "ckpt", "p": "<checkpoint bytes>", "crc": "..."}]}

``resync`` — a full session snapshot that resets the replica::

    {"kind": "resync", "sid": ..., "lsn": <position after applying>,
     "ckpt": <checkpoint bytes|null>, "wal": <WAL segments + active>}

Every record payload is CRC-guarded independently of the transport
(WAL lines additionally carry their own embedded CRC, which the
standby re-verifies before appending).  The LSN restarts at 0 whenever
the primary (re)opens a session — the standby notices the mismatch and
is healed by the resync the primary sends on attach, so eviction /
resurrection cycles are self-correcting rather than special-cased.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional

__all__ = [
    "RECORD_KINDS",
    "StreamPosition",
    "ack",
    "make_record",
    "nack",
    "record_crc",
    "verify_record",
]

#: What one stream record can carry: a WAL line or a whole checkpoint
#: file.
RECORD_KINDS = ("wal", "ckpt")


def record_crc(payload: str) -> str:
    """CRC32 of a record payload, rendered the WAL's way."""
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"


def make_record(lsn: int, kind: str, payload: str) -> Dict[str, Any]:
    """One stream record, CRC-stamped."""
    if kind not in RECORD_KINDS:
        raise ValueError(f"unknown stream record kind {kind!r}")
    return {"lsn": lsn, "k": kind, "p": payload, "crc": record_crc(payload)}


def verify_record(record: Any) -> Optional[str]:
    """Why ``record`` is unacceptable (None when it is well-formed)."""
    if not isinstance(record, dict):
        return "record is not an object"
    lsn = record.get("lsn")
    if not isinstance(lsn, int) or lsn < 1:
        return f"bad lsn {lsn!r}"
    if record.get("k") not in RECORD_KINDS:
        return f"unknown record kind {record.get('k')!r}"
    payload = record.get("p")
    if not isinstance(payload, str):
        return "payload is not a string"
    if record.get("crc") != record_crc(payload):
        return f"payload fails CRC at lsn {lsn}"
    return None


def ack(sid: str, lsn: int) -> Dict[str, Any]:
    """The standby's answer for an applied frame."""
    return {"sid": sid, "applied": True, "lsn": lsn}


def nack(sid: str, expect: int, reason: str) -> Dict[str, Any]:
    """The standby's refusal: a gap or damage was detected; the
    primary must resync from ``expect``."""
    return {
        "sid": sid,
        "applied": False,
        "resync": True,
        "expect": expect,
        "reason": reason,
    }


class StreamPosition:
    """One session's applied-position ledger on the standby.

    Persisted as a tiny JSON sidecar (``<path>.pos``) next to the
    replica files, so a restarted standby resumes gap detection where
    it left off instead of silently accepting whatever arrives next.
    Positions are bookkeeping, not truth — losing one costs a resync,
    never correctness.  Because staleness is that cheap, :meth:`advance`
    only rewrites the sidecar every ``save_every`` frames (resyncs and
    :meth:`flush` always write): a standby restarted from a stale
    sidecar nacks the next frame and the primary heals it with one
    resync, so the steady-state apply path never pays a rename per
    shipped record.
    """

    def __init__(self, path: str, *, save_every: int = 32) -> None:
        self.path = path
        self.save_every = max(1, int(save_every))
        self.lsn = 0
        self.applied = 0
        self.resyncs = 0
        self._unsaved = 0
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            self.lsn = int(data.get("lsn", 0))
            self.applied = int(data.get("applied", 0))
            self.resyncs = int(data.get("resyncs", 0))
        except (OSError, ValueError, TypeError):
            pass  # missing/garbled position: starts at 0, heals by resync

    def expect(self) -> int:
        """The LSN the next shipped record must carry."""
        return self.lsn + 1

    def advance(self, lsn: int, *, applied: int = 1) -> None:
        self.lsn = lsn
        self.applied += applied
        self._unsaved += 1
        if self._unsaved >= self.save_every:
            self._save()

    def reset(self, lsn: int) -> None:
        """A resync rewrote the replica files; adopt its position."""
        self.lsn = lsn
        self.resyncs += 1
        self._save()

    def flush(self) -> None:
        """Persist any advances the lazy policy is still holding."""
        if self._unsaved:
            self._save()

    def _save(self) -> None:
        self._unsaved = 0
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "lsn": self.lsn,
                    "applied": self.applied,
                    "resyncs": self.resyncs,
                },
                fh,
            )
        os.replace(tmp, self.path)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lsn": self.lsn,
            "applied": self.applied,
            "resyncs": self.resyncs,
        }


def read_file(path: str) -> Optional[str]:
    """The file's text, or None when absent (replication ships text —
    every replicated artifact is a newline-framed UTF-8 file)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def concat_wal(path: str) -> str:
    """The session WAL as one text blob: sealed segments (oldest
    first) plus the active file — the ``checkpoint + segments since``
    payload a standby joins mid-life from."""
    from ..persist.wal import WriteAheadLog

    parts: List[str] = []
    for file in [*WriteAheadLog.segment_files(path), path]:
        text = read_file(file)
        if text:
            parts.append(text)
    return "".join(parts)


def session_resync_frame(root: str, sid: str, lsn: int) -> Dict[str, Any]:
    """A full-session snapshot frame built from the session's files:
    checkpoint + every WAL segment since it.  ``lsn`` is the stream
    position the standby adopts after applying it."""
    base = os.path.join(root, sid, "sheet")
    return {
        "kind": "resync",
        "sid": sid,
        "lsn": int(lsn),
        "ckpt": read_file(base),
        "wal": concat_wal(base + ".wal"),
    }
