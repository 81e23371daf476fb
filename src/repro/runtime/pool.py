"""The process-wide pool of booted shard workers.

:func:`worker_pool` holds the shard workers of
:mod:`repro.runtime.multiproc`, booted once and handed one runner's
shard after another, so a new runner binds to processes that have
already paid the interpreter's boot and the worker's imports
(PERFORMANCE.md, "Cold start"); a worker that no runner takes for
:data:`IDLE_LINGER` seconds is ended.  Workers are started with
:data:`START_METHOD`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from multiprocessing import resource_tracker, util
from typing import Callable, Optional

from .shard_worker import _pooled_main

#: how every shard worker is started: a fresh interpreter, so a worker
#: never inherits the coordinator's threads, locks or open segments
START_METHOD = "spawn"


# ----------------------------------------------------------------------
# booted shard workers, shared by every runner of the process
# ----------------------------------------------------------------------
#: seconds an idle worker waits for its next runner before it is ended:
#: long enough for a server restarted in the same process to find it,
#: short enough that a process which has stopped serving does not keep
#: a booted interpreter per shard around
IDLE_LINGER = 2.0


def _unlinker(sem) -> Callable[[], None]:
    """The finalizer that unlinks *sem*'s name once, called or collected
    (``multiprocessing`` has no public handle on it; under fork a
    semaphore has no name, and this is a no-op)."""
    for fin in list(util._finalizer_registry.values()):
        ref = getattr(fin, "_weakref", None)
        if ref is not None and ref() is sem:
            return fin
    return lambda: None


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
        self._unlink = _unlinker(self.wake)
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
        this pipe end, and then closing it is no EOF.)  The wake
        semaphore's name is unlinked first, before the worker can exit."""
        self._unlink()
        try:
            self.conn.send(None)
        except OSError:  # it is gone, or the pipe is closed already
            pass
        self.conn.close()
        self.proc.join(timeout=max(0.0, deadline - time.perf_counter()))
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        self.wake = None


class WorkerPool:
    """Idle booted shard workers.

    :meth:`take` hands out an idle worker, booting one only if none is
    left; :meth:`give_back` keeps a worker that finished cleanly, up to
    one idle worker per CPU, for :data:`IDLE_LINGER` seconds.  An idle
    worker ends when its linger runs out, at :meth:`shutdown`, or when
    the process exits.
    """

    def __init__(self) -> None:
        self._ctx = mp.get_context(START_METHOD)
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


_POOL = WorkerPool()


def worker_pool() -> WorkerPool:
    """The process-wide pool of booted shard workers.

    Its workers are daemonic: ``multiprocessing`` ends them when the
    process exits, and an idle one also leaves on EOF from its pipe.
    """
    return _POOL


def _forget_pool() -> None:
    global _POOL
    _POOL = WorkerPool()


# a forked child starts with no pool (the parent's workers are not its)
os.register_at_fork(after_in_child=_forget_pool)
