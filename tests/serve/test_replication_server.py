"""Replication surface of the server: roles, ship op, promote op.

The TCP test runs a primary and a standby server on one asyncio loop:
the primary's semi-sync link blocks a *worker* thread on the standby's
socket while the loop serves it — the same topology the failover drill
runs across two real processes.
"""

import asyncio
import json

from repro.replicate.stream import make_record
from repro.serve import ServeConfig, Server
from repro.serve.loadgen import _replay_serially


def make_config(tmp_path, name, **kw):
    kw.setdefault("root", str(tmp_path / name))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("workers", 2)
    kw.setdefault("watchdog_max_steps", None)
    kw.setdefault("explain", False)
    return ServeConfig(**kw)


def run(coro):
    return asyncio.run(coro)


class TestStandbyRole:
    def test_session_ops_refused_until_promoted(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, "standby", standby=True))
            refused = await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, "1"]]}
            )
            assert refused["ok"] is False
            assert refused["error"]["code"] == 503
            assert "promoted" in refused["error"]["message"]
            assert server.health()["role"] == "standby"
            promoted = await server.handle({"op": "promote"})
            assert promoted["ok"] is True
            assert promoted["result"]["promoted"] is True
            assert server.health()["role"] == "promoted"
            accepted = await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, "1"]]}
            )
            assert accepted["ok"] is True
            await server.shutdown()

        run(main())

    def test_ship_applies_and_nacks_gaps(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, "standby", standby=True))
            frame = {
                "kind": "records",
                "sid": "a",
                "records": [make_record(1, "ckpt", "CKPT")],
            }
            applied = await server.handle({"op": "ship", "frame": frame})
            assert applied["result"] == {"sid": "a", "applied": True, "lsn": 1}
            gap = {
                "kind": "records",
                "sid": "a",
                "records": [make_record(9, "ckpt", "CKPT")],
            }
            refused = await server.handle({"op": "ship", "frame": gap})
            assert refused["result"]["applied"] is False
            assert refused["result"]["expect"] == 2
            status = await server.handle({"op": "replication"})
            assert status["result"]["role"] == "standby"
            assert status["result"]["gaps"] == 1
            await server.shutdown()

        run(main())

    def test_ship_rejected_on_non_standby(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, "solo"))
            rejected = await server.handle({"op": "ship", "frame": {"sid": "a"}})
            assert rejected["error"]["code"] == 400
            promoted = await server.handle({"op": "promote"})
            assert promoted["error"]["code"] == 400
            status = await server.handle({"op": "replication"})
            assert status["result"]["role"] == "none"
            await server.shutdown()

        run(main())


class TestTcpReplication:
    def test_primary_ships_over_tcp_and_standby_promotes(self, tmp_path):
        standby_cfg = make_config(tmp_path, "standby", standby=True,
                                  standby_warm_every=4)
        edits = [[0, 0, "5"], [1, 0, "R0C0 + 2"], [0, 1, "R1C0 + 1"]]

        async def main():
            standby = await Server(standby_cfg).start()
            primary_cfg = make_config(
                tmp_path,
                "primary",
                replicas=(f"127.0.0.1:{standby.port}",),
                wal_segment_records=4,
            )
            primary = await Server(primary_cfg).start()
            for row, col, formula in edits:
                done = await primary.handle(
                    {"op": "write", "session": "a",
                     "cells": [[row, col, formula]]}
                )
                assert done["ok"] is True, done
            health = primary.health()
            assert health["role"] == "primary"
            assert health["replication_lag_records"] == 0
            status = primary.replication_status()
            assert status["links"][0]["up"] is True
            # SIGKILL stand-in: drop the primary without a drain.
            primary.pool.close()
            # Promote the standby and serve the tenant from it.
            promoted = await standby.handle({"op": "promote"})
            assert promoted["ok"] is True, promoted
            report = promoted["result"]
            assert report["ok"] is True
            log = await standby.handle({"op": "log", "session": "a"})
            assert log["result"]["edits"] == edits
            dump = await standby.handle({"op": "dump", "session": "a"})
            assert dump["result"]["values"] == _replay_serially(edits, 4, 4)
            audit = await standby.handle({"op": "audit", "session": "a"})
            assert audit["result"]["sound"] is True
            await standby.shutdown()

        run(main())

    def test_http_replication_route(self, tmp_path):
        async def main():
            standby = Server(make_config(tmp_path, "standby", standby=True))
            body = standby._http_get("/replication")
            assert b"200 OK" in body.split(b"\r\n", 1)[0]
            payload = json.loads(body.split(b"\r\n\r\n", 1)[1])
            assert payload["role"] == "standby"
            await standby.shutdown()

        run(main())
