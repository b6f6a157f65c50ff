"""Host one serve-layer server in this process (primary or standby).

Started by :mod:`serve_load`; prints ``PORT <n>`` once listening, then
serves until SIGTERM (graceful drain-then-checkpoint shutdown) or
SIGKILL.  SIGUSR1 prints ``RSS <KiB>``, this process's peak resident
set, so the benchmark can report the memory of the process that holds
the runtimes::

    python3 perfbench/serve_child.py --root DIR [--standby] \
        [--replicas HOST:PORT] [--rows 8 --cols 8 --workers 2 --max-live 64]
"""

from __future__ import annotations

import argparse
import asyncio
import resource
import signal
import sys

from common import ensure_repro_importable

#: The primary ships to its standby asynchronously: with the standby's
#: acknowledgement on every write's path, three busy processes share two
#: vCPUs and write and read latencies moved by 30-50% from run to run.
#: The benchmark waits for the standby to catch up before each crash.
REPLICATION_MODE = "async"


def config_for(args: argparse.Namespace):
    from repro.serve import ServeConfig

    return ServeConfig(
        root=args.root,
        rows=args.rows,
        cols=args.cols,
        workers=args.workers,
        max_live_sessions=args.max_live,
        port=0,
        standby=args.standby,
        replicas=tuple(r for r in args.replicas.split(",") if r),
        replication_mode=REPLICATION_MODE,
    )


async def serve(args: argparse.Namespace) -> None:
    from repro.serve import Server

    server = await Server(config_for(args)).start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(
        signal.SIGUSR1,
        lambda: print(f"RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True),
    )
    print(f"PORT {server.port}", flush=True)
    await stop.wait()
    await server.shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--standby", action="store_true")
    parser.add_argument("--replicas", default="")
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--cols", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-live", type=int, default=64)
    args = parser.parse_args(argv)
    ensure_repro_importable()
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
