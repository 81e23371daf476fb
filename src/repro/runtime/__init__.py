"""Real execution: multiprocess shards and the plan-store server.

The simulator (:mod:`repro.sim`) models DTM's asynchrony in virtual
time; this package runs it for real — :class:`MultiprocDtmRunner` with
one OS process per shard, taken from a process-wide pool of booted
workers (:mod:`repro.runtime.pool`), over a pluggable transport
(:mod:`repro.net.transport`: shared memory on one machine, the socket
mesh across address spaces/machines), and :class:`DtmServer` serving warm sharded
runners over a shared :class:`PlanStore` (optionally LRU-bounded via
``max_plans``), exposable on a socket via
:class:`repro.net.DtmTcpFrontend`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "multiproc": (
            "EdgeMailbox",
            "MultiprocDtmRunner",
            "solve_dtm_multiproc",
        ),
        "server": (
            "DtmServer",
            "PlanStore",
            "ServeRequest",
            "ServeResponse",
            "plan_hash",
        ),
    },
)
