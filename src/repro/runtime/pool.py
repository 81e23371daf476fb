"""Process pools: the build-side fan-out and the booted shard workers.

Two pools live here.  :func:`map_ordered` is the *build*-side one: a
thin, deterministic fan-out used by
:func:`repro.core.local.build_all_local_systems` to factor independent
subdomain systems in parallel.  :func:`worker_pool` is the *solve*-side
one: shard workers of :mod:`repro.runtime.multiproc`, booted once and
handed one runner's shard after another, so a new runner binds to
processes that have already paid the interpreter's boot and the
worker's imports (PERFORMANCE.md, "Cold start"); a worker that no
runner takes for :data:`IDLE_LINGER` seconds is ended.

Determinism contract: :func:`map_ordered` returns results in
**submission order** regardless of completion order (the
``multiprocessing.Pool.map`` semantics), and each task is a pure
function of its item computed with the same interpreter and libraries
as the coordinator — so a pooled build is bitwise-identical to a
serial one, which the plan tests assert.  Items and results must
pickle (``LocalSystem`` and its factor do; the factor's SuperLU
handle is a drop-on-pickle cache).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from multiprocessing import resource_tracker
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from ..errors import ConfigurationError
from .shard_worker import _pooled_main

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


# ----------------------------------------------------------------------
# booted shard workers, shared by every runner of the process
# ----------------------------------------------------------------------
#: seconds an idle worker waits for its next runner before it is ended:
#: long enough for a server restarted in the same process to find it,
#: short enough that a process which has stopped serving does not keep
#: a booted interpreter per shard around
IDLE_LINGER = 2.0


class PooledWorker:
    """One booted shard worker: its process, the coordinator's end of
    its job pipe, and the wake semaphore it was born with (a
    ``multiprocessing`` semaphore crosses into a process only by
    inheritance, never over a pipe)."""

    def __init__(self, ctx) -> None:
        # a forked worker must inherit the coordinator's tracker, not
        # start one of its own when it attaches (which would unlink, as
        # the worker exits, segments the coordinator owns)
        resource_tracker.ensure_running()
        self.conn, child = ctx.Pipe()
        self.wake = ctx.Semaphore(0)
        self.proc = ctx.Process(
            target=_pooled_main,
            args=(child, self.wake),
            name="dtm-shard",
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.reusable = True
        #: while idle, the timer that ends it after :data:`IDLE_LINGER`
        self.timer: Optional[threading.Timer] = None

    def serve(self, descriptor, faults=None) -> None:
        """Hand the worker a shard: it opens its port and runs the
        shard loop until SHUTDOWN.  A worker armed with faults never
        serves again."""
        self.reusable = self.reusable and faults is None
        try:
            self.conn.send((descriptor, faults))
        except OSError:  # it died idle: the runner finds it dead
            self.reusable = False

    def finish(self, deadline: float) -> bool:
        """Wait until *deadline* (``perf_counter`` time) for ``done``,
        which the worker sends once SHUTDOWN has closed its port and
        unmapped its segments.  True if it came and the worker may
        serve again."""
        try:
            if self.conn.poll(max(0.0, deadline - time.perf_counter())):
                return self.conn.recv() == "done" and self.reusable
        except (EOFError, OSError):  # it died or raised
            pass
        return False

    def retire(self, deadline: float) -> None:
        """End the worker: ``None`` and EOF on its pipe, a join until
        *deadline*, then ``terminate`` if it is still there (a stuck
        worker).  (``None`` because a forked sibling may hold a copy of
        this pipe end, and then closing it is no EOF.)"""
        try:
            self.conn.send(None)
        except OSError:  # it is gone, or the pipe is closed already
            pass
        self.conn.close()
        self.proc.join(timeout=max(0.0, deadline - time.perf_counter()))
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        self.wake = None  # the last reference unlinks its name


class WorkerPool:
    """Idle booted shard workers of one start method.

    :meth:`take` hands out an idle worker, booting one only if none is
    left; :meth:`give_back` keeps a worker that finished cleanly, up to
    one idle worker per CPU, for :data:`IDLE_LINGER` seconds.  An idle
    worker ends when its linger runs out, at :meth:`shutdown`, or when
    the process exits.
    """

    def __init__(self, method: str) -> None:
        self._ctx = mp.get_context(method)
        self._idle: list = []
        self._lock = threading.Lock()
        #: most idle workers kept: more than one per CPU never run at once
        self.cap = os.cpu_count() or 1

    @property
    def idle(self) -> list:
        """The idle workers (a copy)."""
        with self._lock:
            return list(self._idle)

    def take(self) -> PooledWorker:
        with self._lock:
            while self._idle:
                worker = self._idle.pop()
                worker.timer.cancel()
                worker.timer = None
                if worker.proc.is_alive():
                    return worker
                worker.retire(0.0)  # died while idle
        return PooledWorker(self._ctx)

    def give_back(self, worker: PooledWorker) -> None:
        with self._lock:
            if len(self._idle) < self.cap and worker.proc.is_alive():
                worker.timer = threading.Timer(
                    IDLE_LINGER, self._expire, (worker,)
                )
                worker.timer.daemon = True
                worker.timer.start()
                self._idle.append(worker)
                return
        worker.retire(time.perf_counter() + 5.0)

    def _expire(self, worker: PooledWorker) -> None:
        """On *worker*'s timer thread: end it if it is idle still."""
        with self._lock:
            if worker.timer is not threading.current_thread():
                return  # taken meanwhile
            worker.timer = None
            self._idle.remove(worker)
        worker.retire(time.perf_counter() + 5.0)

    def shutdown(self) -> None:
        """End every idle worker, waiting up to 5 s in all."""
        with self._lock:
            idle, self._idle = self._idle, []
            for worker in idle:
                worker.timer.cancel()
                worker.timer = None
        deadline = time.perf_counter() + 5.0
        for worker in idle:
            worker.retire(deadline)


_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()


def worker_pool(method: str = "spawn") -> WorkerPool:
    """The process-wide pool of booted shard workers for *method*.

    Its workers are daemonic: ``multiprocessing`` ends them when the
    process exits, and an idle one also leaves on EOF from its pipe.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(method)
        if pool is None:
            pool = _POOLS[method] = WorkerPool(method)
    return pool


# a forked child starts with no pool (the parent's workers are not its)
os.register_at_fork(after_in_child=_POOLS.clear)
