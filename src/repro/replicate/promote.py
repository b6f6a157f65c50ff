"""Standby promotion: replay the tail, audit, open for writes.

Promotion is deliberately boring.  The standby's replica root is, by
construction, a valid serve-state directory — the same checkpoint +
WAL pair a crashed primary leaves behind — so promoting is just
opening every session through the ordinary resurrection path
(:meth:`repro.serve.session.Session.open`), which replays the WAL tail
via lazy-adoption recovery (the session's edit history comes back from
the same two files), then auditing the recovered graph with
:func:`repro.core.integrity.audit` before declaring the session
writable.  No bespoke promotion-time state machine exists to be subtly
wrong; failover exercises exactly the crash-recovery path the chaos
suite already hammers.

:func:`promote_root` is the library entry point (the bench and drill
use it directly on a bare directory); :meth:`repro.serve.server.Server
.promote` wraps it for a live standby server, adopting the opened
sessions into its residency table and flipping session ops on.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["PromotionReport", "promote_root", "session_ids"]


@dataclasses.dataclass
class PromotionReport:
    """What a promotion did, session by session."""

    root: str = ""
    sessions: int = 0
    #: Session id -> recovery mode ("clean" / "replayed" / "degraded").
    modes: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Session id -> WAL-tail records replayed during open.
    replayed: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Session id -> invariant violations found by the post-replay audit.
    violations: Dict[str, List[str]] = dataclasses.field(default_factory=dict)
    #: Session id -> why it could not be opened at all.
    errors: Dict[str, str] = dataclasses.field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def replayed_records(self) -> int:
        return sum(self.replayed.values())

    @property
    def ok(self) -> bool:
        return not self.errors and not any(self.violations.values())

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["replayed_records"] = self.replayed_records
        data["ok"] = self.ok
        return data


def session_ids(root: str) -> List[str]:
    """Session directories under a serve-state root (sorted)."""
    try:
        entries = sorted(os.listdir(root))
    except FileNotFoundError:
        return []
    out = []
    for entry in entries:
        base = os.path.join(root, entry, "sheet")
        if os.path.exists(base) or os.path.exists(base + ".wal"):
            out.append(entry)
    return out


def promote_root(
    root: str,
    config: Optional[Any] = None,
    *,
    registry: Optional[Any] = None,
    keep_open: bool = False,
) -> Tuple[PromotionReport, Dict[str, Any]]:
    """Promote every session under ``root``: open (replaying the WAL
    tail), audit invariants, checkpoint.

    Returns ``(report, sessions)``; ``sessions`` is populated only with
    ``keep_open=True`` (the caller then owns closing them) — otherwise
    each session is closed with a fresh checkpoint, leaving the root
    ready for a new server to serve from.
    """
    from ..core.integrity import audit
    from ..serve.config import ServeConfig
    from ..serve.session import Session

    if config is None:
        config = ServeConfig(root=root)
    report = PromotionReport(root=root)
    sessions: Dict[str, Any] = {}
    started = time.perf_counter()
    for sid in session_ids(root):
        report.sessions += 1
        try:
            session = Session.open(sid, config, registry)
        except Exception as exc:  # noqa: BLE001 - report, promote the rest
            report.errors[sid] = f"{type(exc).__name__}: {exc}"
            continue
        recovery = getattr(session.runtime, "last_recovery", None)
        if recovery is not None:
            # Graph-write records land in ``recovery.replayed``; the
            # spreadsheet's semantic redo records ride ``app_records``
            # and are replayed by ``Spreadsheet.load`` — both are WAL
            # tail that the standby carried past the last checkpoint.
            tail = recovery.replayed + len(recovery.app_records)
            report.modes[sid] = (
                "replayed" if tail and recovery.mode == "clean"
                else recovery.mode
            )
            report.replayed[sid] = tail
        else:
            report.modes[sid] = "fresh"
            report.replayed[sid] = 0
        with session.runtime.active():
            report.violations[sid] = audit(
                session.runtime, raise_on_violation=False
            )
        if keep_open:
            sessions[sid] = session
        else:
            session.close(reason="promotion")
    report.elapsed_seconds = time.perf_counter() - started
    return report, sessions
