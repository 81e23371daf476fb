"""Real execution backends: asyncio tasks and multiprocess shards.

The simulator (:mod:`repro.sim`) models DTM's asynchrony in virtual
time; these backends run it for real — :class:`AsyncioDtmRunner` with
one cooperative task per subdomain, :class:`MultiprocDtmRunner` with
one OS process per shard over a pluggable transport
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
        "asyncio_backend": (
            "AsyncioDtmRunner",
            "AsyncRunResult",
            "solve_dtm_asyncio",
        ),
        "multiproc": (
            "EdgeMailbox",
            "MultiprocDtmRunner",
            "solve_dtm_multiproc",
        ),
        "pool": ("map_ordered", "resolve_workers"),
        "server": (
            "DtmServer",
            "PlanStore",
            "ServeRequest",
            "ServeResponse",
            "ServerStats",
            "plan_hash",
        ),
    },
)
