"""Ordered process-pool fan-out for plan construction.

The multiprocess runtime (:mod:`repro.runtime.multiproc`) owns the
*solve*-side workers; this module is the *build*-side counterpart: a
thin, deterministic fan-out used by
:func:`repro.core.local.build_all_local_systems` to factor independent
subdomain systems in parallel.

Determinism contract: :func:`map_ordered` returns results in
**submission order** regardless of completion order (the
``multiprocessing.Pool.map`` semantics), and each task is a pure
function of its item computed with the same interpreter and libraries
as the coordinator — so a pooled build is bitwise-identical to a
serial one, which the plan tests assert.  Items and results must
pickle (``LocalSystem`` and the sparse/dense factor objects do; the
sparse factor's SuperLU handle is a drop-on-pickle cache).
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from ..errors import ConfigurationError

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count request.

    ``None``/``1`` → 1 (serial, no pool); ``-1`` → one worker per CPU;
    other positive ints pass through.  Zero and other negatives are
    configuration errors.
    """
    if workers is None or workers == 1:
        return 1
    if workers == -1:
        return max(mp.cpu_count(), 1)
    if workers < 1:
        raise ConfigurationError(
            f"workers must be a positive int, -1 (all CPUs) or None, got {workers}"
        )
    return int(workers)


def map_ordered(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: Optional[int],
    mp_context: Optional[str] = None,
    chunksize: Optional[int] = None,
) -> list[_R]:
    """``[fn(item) for item in items]``, fanned out across processes.

    Results always come back in submission order.  With an effective
    worker count of 1 (or fewer than two items) no pool is created and
    the map runs inline — the serial and pooled paths produce
    bitwise-identical results, so callers can expose ``workers`` as a
    pure throughput knob.

    ``mp_context`` selects the start method (default: the platform
    default, ``fork`` on Linux — cheapest for read-only fan-out over
    already-built inputs); ``chunksize`` overrides the work-batching
    granularity (default: ~4 chunks per worker).
    """
    work: Sequence[_T] = list(items)
    n_workers = min(resolve_workers(workers), len(work))
    if n_workers <= 1 or len(work) < 2:
        return [fn(item) for item in work]
    if chunksize is None:
        chunksize = max(1, len(work) // (4 * n_workers))
    ctx = mp.get_context(mp_context)
    with ctx.Pool(processes=n_workers) as pool:
        return pool.map(fn, work, chunksize=chunksize)
