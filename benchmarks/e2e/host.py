"""Server-host launcher: the system under test in its own process.

Started by the benchmark as ``python3 host.py --transport shm
[--plan-dir DIR]``; builds a ``DtmServer`` + ``DtmTcpFrontend`` and
then obeys one-word control lines on stdin, answering each with one
``@e2e {json}`` line on stdout (the benchmark reads the workers' pids,
memory and shared-memory segments from ``/proc`` itself: this process
leads its own process group):

``start``  build a fresh server + front end (over the same
           ``plan_dir``), reply with the listening address
``close``  close front end and server (worker pools shut down)
``quit``   close, reply, exit

End of input is a ``quit`` without a reply, so a benchmark that dies
cannot leave a serving host behind.  Everything runs under the
``__main__`` guard: shard workers use the ``spawn`` start method and
re-import this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))


class Host:
    """One serving stack at a time, rebuilt on request."""

    def __init__(self, transport: str, plan_dir) -> None:
        self.transport = transport
        self.plan_dir = plan_dir
        self.server = None
        self.frontend = None

    def start(self) -> dict:
        from harness import SHARDS
        from repro.net import DtmTcpFrontend
        from repro.runtime.server import DtmServer

        self.close()
        self.server = DtmServer(shards=SHARDS, plan_dir=self.plan_dir,
                                transport=self.transport)
        self.frontend = DtmTcpFrontend(self.server).start()
        return {"address": list(self.frontend.address)}

    def close(self) -> dict:
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None
        if self.server is not None:
            self.server.close()
            self.server = None
        return {"closed": True}


def _reply(obj: dict) -> None:
    sys.stdout.write("@e2e " + json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transport", default="shm",
                        choices=("shm", "mesh"))
    parser.add_argument("--plan-dir", default=None)
    args = parser.parse_args()

    host = Host(args.transport, args.plan_dir)
    try:
        _reply(host.start())
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                _reply(host.close())
                return 0
            handler = {"start": host.start,
                       "close": host.close}.get(command)
            if handler is None:
                _reply({"error": f"unknown command {command!r}"})
                continue
            try:
                _reply(handler())
            except Exception as exc:  # reported to the benchmark,
                # where it raises HostError and ends the run
                _reply({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        host.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
