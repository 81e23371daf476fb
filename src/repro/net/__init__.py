"""Network layer: machine-spanning transports and the serving front end.

Two halves, mirroring the runtime/serving split:

* :mod:`repro.net.transport` — the :class:`Transport` abstraction the
  sharded runtime executes over: :class:`ShmTransport` (one machine,
  ``multiprocessing.shared_memory``, the PR-4 fabric) and
  :class:`MeshTransport` (:mod:`repro.net.mesh`: length-prefixed
  latest-wins wave frames over loopback/LAN sockets — direct
  worker-to-worker neighbor sockets with the coordinator's hub as the
  per-frame fallback, heartbeat liveness and failure recovery; workers
  may join from other machines via ``python -m repro.net.worker``;
  chaos scenarios are scripted with :mod:`repro.net.faults`);
* :mod:`repro.net.frontend` / :mod:`repro.net.client` — a socket front
  end for :class:`~repro.runtime.server.DtmServer` plus the matching
  :class:`DtmClient` (``register`` / ``solve`` / ``solve_many`` /
  ``stats`` / ``shutdown`` over a JSON+binary wire protocol).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "faults": ("FaultPlan", "ShardFaults"),
        "mesh": ("MeshTransport",),
        "transport": (
            "EdgeMailbox",
            "ShmTransport",
            "Transport",
            "resolve_transport",
        ),
        "client": ("DtmClient",),
        "frontend": ("DtmTcpFrontend",),
    },
)
