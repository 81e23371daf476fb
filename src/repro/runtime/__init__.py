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

from .asyncio_backend import AsyncioDtmRunner, AsyncRunResult, solve_dtm_asyncio
from .multiproc import EdgeMailbox, MultiprocDtmRunner, solve_dtm_multiproc
from .pool import map_ordered, resolve_workers
from .server import (
    DtmServer,
    PlanStore,
    ServeRequest,
    ServeResponse,
    ServerStats,
    plan_hash,
)

__all__ = [
    "AsyncioDtmRunner",
    "AsyncRunResult",
    "solve_dtm_asyncio",
    "EdgeMailbox",
    "MultiprocDtmRunner",
    "solve_dtm_multiproc",
    "map_ordered",
    "resolve_workers",
    "DtmServer",
    "PlanStore",
    "ServeRequest",
    "ServeResponse",
    "ServerStats",
    "plan_hash",
]
