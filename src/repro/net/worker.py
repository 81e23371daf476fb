"""Remote shard worker: join a mesh coordinator over sockets.

The machine-spanning half of the transport story: a coordinator binds
a :class:`~repro.net.mesh.MeshTransport` on a LAN address (with
``spawn_workers=False`` on the runner), and each worker machine runs

.. code-block:: bash

    python -m repro.net.worker HOST PORT TOKEN SHARD
    python -m repro.net.worker HOST PORT TOKEN SHARD --listen 7101

The worker connects, authenticates with the shared token, receives
its shard payload (factored local systems, routing tables, mailbox
specs) in the SPEC frame, and free-runs the standard shard loop until
the coordinator broadcasts shutdown or the connection drops.  Nothing
but the ``repro`` package and network reachability is required — no
shared filesystem, no shared memory.

Fleet startup order does not matter: when the coordinator is not
listening yet, the worker retries the connect with exponential
backoff (``--retries``/``--backoff``) instead of exiting, so process
supervisors can launch workers and coordinator in any order.  The
worker opens a peer listen socket (``--listen``, ``0`` = ephemeral)
and exchanges neighbor wave frames directly with every peer it can
dial; frames for a peer it cannot reach travel through the
coordinator's hub instead.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..errors import TransportError
from ..runtime.shard_worker import _worker_main

#: connect retry ceiling between attempts, seconds
MAX_BACKOFF = 10.0


def run_worker(
    host: str,
    port: int,
    token: str,
    shard: int,
    *,
    listen_port: int = 0,
    retries: int = 8,
    backoff: float = 0.25,
) -> None:
    """Connect to *host*:*port* and run the shard loop until shutdown.

    An unreachable coordinator is retried up to *retries* times with
    exponential backoff starting at *backoff* seconds; handshake
    rejections (bad token, bad shard) are never retried — only
    connect-level failures are, so a misconfigured worker still fails
    fast.
    """
    descriptor = (
        "mesh", host, int(port), token, int(shard), int(listen_port)
    )
    delay = float(backoff)
    for attempt in range(int(retries) + 1):
        try:
            _worker_main(descriptor)
            return
        except TransportError as exc:
            # connect failures carry their OSError cause; anything
            # else (rejected token, protocol violation) is permanent
            if attempt >= retries or not isinstance(exc.__cause__, OSError):
                raise
            print(
                f"worker shard {shard}: coordinator not reachable "
                f"({exc.__cause__}); retry {attempt + 1}/{retries} "
                f"in {delay:.2f}s",
                file=sys.stderr,
            )
            time.sleep(delay)
            delay = min(delay * 2.0, MAX_BACKOFF)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Attach one DTM shard worker to a coordinator."
    )
    parser.add_argument("host", help="coordinator host/IP")
    parser.add_argument("port", type=int, help="coordinator port")
    parser.add_argument("token", help="shared transport token")
    parser.add_argument("shard", type=int, help="shard index to serve")
    parser.add_argument(
        "--listen",
        type=int,
        default=0,
        metavar="PORT",
        help="peer listen port (0 = ephemeral, default)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=8,
        help="connect attempts before giving up (default 8)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.25,
        help="initial connect retry delay, seconds (default 0.25)",
    )
    args = parser.parse_args(argv)
    run_worker(
        args.host,
        args.port,
        args.token,
        args.shard,
        listen_port=args.listen,
        retries=args.retries,
        backoff=args.backoff,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
