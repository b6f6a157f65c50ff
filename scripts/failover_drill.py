"""CI failover drill: SIGKILL the primary, promote a warm standby.

The ``failover-drill`` CI job's entry point.  The parent process boots
two real server processes — a primary shipping its checkpoint + WAL
stream semi-synchronously and a warm standby applying it — then:

1. drives a seeded TCP load against the primary, keeping a per-session
   ledger of every **acknowledged** edit, in order;
2. ``SIGKILL``s the primary mid-load (no drain, no checkpoint — the
   real failure mode, not a polite shutdown);
3. sends ``{"op": "promote"}`` to the standby and asserts the failover
   contract: the promotion report is clean, every acknowledged write is
   present in the promoted edit logs (zero lost acked writes), promoted
   grids equal a serial replay of those logs, and the invariant audit
   is sound for every session;
4. redirects the load to the promoted server and keeps writing,
   re-verifying convergence afterwards.

Writes a machine-readable drill report (for the CI artifact) to
``failover_drill_report.json`` (or the path given as argv[1]) and
copies the standby's promotion flight dump next to it.  Exit status 0
means every assertion held.

Child mode (used internally to host one server per process)::

    python scripts/failover_drill.py --serve standby --root DIR
    python scripts/failover_drill.py --serve primary --root DIR \
        --replicas 127.0.0.1:PORT

Each child prints ``PORT <n>`` once its listener is up, then serves
until killed.

Usage::

    PYTHONPATH=src python scripts/failover_drill.py [report.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.serve.loadgen import _gen_formula, _replay_serially  # noqa: E402

ROWS = COLS = 6
SESSIONS = ("alice", "bob", "carol")
SEED = 2026
EDITS_BEFORE_KILL = 30  # acked writes across all sessions, then SIGKILL
EDITS_AFTER_PROMOTE = 12


# ----------------------------------------------------------------------
# child mode: host one server in this process
# ----------------------------------------------------------------------


def serve_child(role: str, root: str, replicas: tuple) -> int:
    from repro.serve import ServeConfig, Server

    config = ServeConfig(
        root=root,
        rows=ROWS,
        cols=COLS,
        workers=2,
        port=0,
        standby=(role == "standby"),
        replicas=replicas,
        wal_segment_records=8,
        watchdog_max_steps=None,
        explain=False,
    )

    async def main() -> None:
        server = await Server(config).start()
        print(f"PORT {server.port}", flush=True)
        # Serve until the parent kills us; SIGTERM exits the loop so a
        # *standby* child can die politely after the drill (the primary
        # gets SIGKILL — that is the point of the exercise).
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, stop.set
        )
        await stop.wait()
        await server.shutdown()

    asyncio.run(main())
    return 0


# ----------------------------------------------------------------------
# parent mode: the drill itself
# ----------------------------------------------------------------------


class Client:
    """Blocking newline-JSON client; one connection per server."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self._fh = self._sock.makefile("rwb")

    def call(self, request: dict) -> dict:
        self._fh.write(json.dumps(request).encode("utf-8") + b"\n")
        self._fh.flush()
        line = self._fh.readline()
        if not line:
            raise ConnectionError("server hung up")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._fh.close()
            self._sock.close()
        except OSError:
            pass


def spawn(role: str, root: str, replicas: tuple = ()) -> tuple:
    argv = [
        sys.executable, os.path.abspath(__file__),
        "--serve", role, "--root", root,
    ]
    if replicas:
        argv += ["--replicas", ",".join(replicas)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"
    )
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
    )
    deadline = time.monotonic() + 30
    while True:
        line = proc.stdout.readline().decode("utf-8", "replace").strip()
        if line.startswith("PORT "):
            return proc, int(line.split()[1])
        if proc.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(f"{role} child never reported a port")


def drive_load(
    client: Client,
    ledger: dict,
    rng: random.Random,
    budget: int,
    failures: list,
) -> int:
    """Issue ``budget`` seeded edits, recording each acked edit."""
    acked = 0
    for seq in range(budget):
        sid = SESSIONS[seq % len(SESSIONS)]
        row, col, formula = _gen_formula(rng, ROWS, COLS)
        response = client.call(
            {"op": "write", "session": sid,
             "cells": [[row, col, formula]], "id": f"drill.{seq}"}
        )
        if response.get("ok"):
            ledger[sid].append([row, col, formula])
            acked += 1
        else:
            failures.append(f"load edit {seq} refused: {response}")
    return acked


def verify_promoted(client: Client, ledger: dict, failures: list) -> None:
    for sid, edits in ledger.items():
        log = client.call({"op": "log", "session": sid})
        if not log.get("ok"):
            failures.append(f"log({sid}) failed after promotion: {log}")
            continue
        served = log["result"]["edits"]
        if served != edits:
            failures.append(
                f"{sid}: promoted log != acked ledger "
                f"({len(served)} vs {len(edits)} edits; lost acked writes)"
            )
        dump = client.call({"op": "dump", "session": sid})
        expected = _replay_serially(edits, ROWS, COLS)
        if not dump.get("ok") or dump["result"]["values"] != expected:
            failures.append(f"{sid}: promoted grid != serial replay of log")
        audit = client.call({"op": "audit", "session": sid})
        if not audit.get("ok") or not audit["result"]["sound"]:
            failures.append(f"{sid}: invariant audit unsound after promotion")


def run_drill(report_path: str) -> int:
    failures: list = []
    ledger = {sid: [] for sid in SESSIONS}
    rng = random.Random(SEED)
    summary: dict = {"seed": SEED, "sessions": list(SESSIONS)}
    artifact_dir = os.path.dirname(report_path) or "."

    with tempfile.TemporaryDirectory(prefix="failover-drill-") as td:
        primary_root = os.path.join(td, "primary")
        standby_root = os.path.join(td, "standby")

        standby_proc, standby_port = spawn("standby", standby_root)
        primary_proc, primary_port = spawn(
            "primary", primary_root, (f"127.0.0.1:{standby_port}",)
        )
        try:
            primary = Client(primary_port)
            acked = drive_load(
                primary, ledger, rng, EDITS_BEFORE_KILL, failures
            )
            summary["acked_before_kill"] = acked

            health = primary.call({"op": "replication"})
            link = (health.get("result") or {}).get("links", [{}])[0]
            summary["link_before_kill"] = link
            if not link.get("up"):
                failures.append(f"replication link down before kill: {link}")

            # The real failure mode: no drain, no checkpoint, no
            # goodbye.  Anything acked before this instant must
            # survive; anything after must simply fail.
            os.kill(primary_proc.pid, signal.SIGKILL)
            primary_proc.wait(timeout=30)
            primary.close()
            summary["killed_with"] = "SIGKILL"

            standby = Client(standby_port)
            refused = standby.call(
                {"op": "write", "session": "alice", "cells": [[0, 0, "1"]]}
            )
            if refused.get("ok") or refused["error"]["code"] != 503:
                failures.append(
                    f"standby accepted writes before promotion: {refused}"
                )

            started = time.perf_counter()
            promoted = standby.call({"op": "promote"})
            promote_ms = (time.perf_counter() - started) * 1000.0
            summary["promotion_ms"] = round(promote_ms, 3)
            if not promoted.get("ok") or not promoted["result"].get("ok"):
                failures.append(f"promotion failed: {promoted}")
            else:
                report = promoted["result"]
                summary["promotion"] = {
                    "sessions": report["sessions"],
                    "replayed_records": report["replayed_records"],
                    "modes": report["modes"],
                }
                violations = {
                    sid: v for sid, v in report["violations"].items() if v
                }
                if violations:
                    failures.append(
                        f"promotion audit violations: {violations}"
                    )

            verify_promoted(standby, ledger, failures)

            # Redirect the load: the promoted server is the primary now.
            resumed = drive_load(
                standby, ledger, rng, EDITS_AFTER_PROMOTE, failures
            )
            summary["acked_after_promote"] = resumed
            verify_promoted(standby, ledger, failures)
            standby.close()
        finally:
            for proc in (primary_proc, standby_proc):
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=15)
                    except subprocess.TimeoutExpired:
                        proc.kill()

        flight = os.path.join(standby_root, "flight-promotion.jsonl")
        if os.path.exists(flight):
            shutil.copy(
                flight, os.path.join(artifact_dir, "flight-promotion.jsonl")
            )
        else:
            failures.append("promotion flight dump missing")

    summary["failures"] = failures
    summary["ok"] = not failures
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    for failure in failures:
        print(f"failover drill FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"failover drill OK — {summary['acked_before_kill']} acked "
            f"writes survived SIGKILL, promotion in "
            f"{summary['promotion_ms']:.1f} ms "
            f"({summary['promotion']['replayed_records']} records "
            f"replayed), {summary['acked_after_promote']} more served "
            f"by the promoted standby",
            file=sys.stderr,
        )
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?", default="failover_drill_report.json")
    parser.add_argument("--serve", choices=("primary", "standby"))
    parser.add_argument("--root")
    parser.add_argument("--replicas", default="")
    args = parser.parse_args(argv)
    if args.serve:
        replicas = tuple(r for r in args.replicas.split(",") if r)
        return serve_child(args.serve, args.root, replicas)
    return run_drill(args.report)


if __name__ == "__main__":
    sys.exit(main())
