"""Serving DTM: long-lived sharded sessions over a shared plan store.

The production shape the ROADMAP names: planning is expensive and
matrix-bound, execution is cheap and right-hand-side-bound, so a
server keeps **plans** in a content-addressed store and **warm sharded
runners** (worker pools with the factored shard payloads already
resident) keyed by plan hash.  A ``solve(plan_id, b)`` request costs
one back-substitution per subdomain plus the parallel run itself — no
re-partitioning, no re-factorization, no process spawn.

The store is bounded: ``max_plans`` turns it into an LRU — admitting a
plan past the limit evicts the least-recently-used one, and eviction
listeners let the server shut the evicted plan's warm runner pool down
with it, so a long-lived server's memory is capped by configuration,
not by traffic history.

:meth:`DtmServer.serve` is transport-agnostic: a plain request loop
over an iterable (tests and the demo drive it with lists/generators).
The socket front end in :mod:`repro.net.frontend` frames this exact
loop over TCP.  The loop is hardened: a malformed request or an
unknown plan id yields an **error response** instead of killing the
loop — one bad client request must not take the service down.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from ..errors import ConfigurationError
from ..obs import (
    MetricsSnapshot,
    component_registry,
    merge_snapshots,
    resolve_obs,
)
from ..plan import SolverPlan, compute_plan_hash, get_plan, plan_nbytes
from ..plan.cache import default_plan_cache
from ..plan.diskstore import DiskPlanStore
from ..plan.session import SolveResult
from .multiproc import MultiprocDtmRunner


def plan_hash(plan: SolverPlan) -> str:
    """Content hash identifying a plan in the store.

    Covers the matrix fingerprint and every plan-affecting input (the
    plan cache key), *not* the right-hand side: all solves against one
    matrix/configuration share one entry, which is exactly the reuse
    unit a warm runner amortizes.  Delegates to
    :func:`repro.plan.compute_plan_hash` — the same addressing the
    disk artifact tier uses, so an in-memory store entry and its
    on-disk artifact always share one name.
    """
    return compute_plan_hash(plan.fingerprint(), plan.key)


class PlanStore:
    """Thread-safe content-addressed store of immutable plans.

    ``max_plans=None`` (default) keeps every registered plan forever —
    the PR-4 behaviour.  A positive ``max_plans`` bounds the store
    with least-recently-used eviction, and ``max_bytes`` bounds it by
    *artifact payload size* (``repro.plan.plan_nbytes``) — plans vary
    by orders of magnitude, so bytes are what actually cap a server's
    memory.  Both :meth:`get` and a repeated :meth:`put` refresh
    recency; evictions are announced to listeners registered via
    :meth:`add_evict_listener` (the server uses this to shut down the
    evicted plan's warm runner pool).  Listeners run outside the store
    lock.  Whatever the bounds, the most recently admitted plan always
    stays resident — a ``put`` must never evict its own plan out from
    under the caller's follow-up ``get``.

    ``plan_dir`` (a path or a :class:`~repro.plan.diskstore.
    DiskPlanStore`) adds the durable tier: every :meth:`put` persists
    an mmap-able artifact, and a :meth:`get` miss falls through to
    disk — so a store constructed over a populated directory comes up
    warm after a process restart.  The directory is a disposable
    cache, never authoritative: in-memory eviction does not delete
    artifacts, and a corrupt file is silently rebuilt around.
    """

    def __init__(self, max_plans: Optional[int] = None, *,
                 max_bytes: Optional[int] = None,
                 plan_dir=None, obs=None) -> None:
        if max_plans is not None and int(max_plans) < 1:
            raise ConfigurationError("max_plans must be >= 1 (or None)")
        if max_bytes is not None and int(max_bytes) < 1:
            raise ConfigurationError("max_bytes must be >= 1 (or None)")
        self.max_plans = None if max_plans is None else int(max_plans)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.obs = component_registry(obs)
        if plan_dir is None or isinstance(plan_dir, DiskPlanStore):
            self.disk = plan_dir
        else:
            self.disk = DiskPlanStore(plan_dir, obs=self.obs)
        self._c_evicted = self.obs.counter(
            "repro_plan_store_evictions_total",
            "plans evicted from the in-memory LRU")
        self._c_disk_loads = self.obs.counter(
            "repro_plan_store_disk_loads_total",
            "in-memory misses served from the artifact tier")
        self._g_plans = self.obs.gauge(
            "repro_plan_store_plans", "plans resident in memory")
        self._g_bytes = self.obs.gauge(
            "repro_plan_store_bytes", "artifact payload bytes resident")
        self._plans: OrderedDict[str, SolverPlan] = OrderedDict()
        self._nbytes: dict[str, int] = {}
        self._lock = threading.Lock()
        self._listeners: list = []

    @property
    def total_bytes(self) -> int:
        return int(self._g_bytes.value)

    def add_evict_listener(self, callback) -> None:
        """Register ``callback(key, plan)`` to run after each eviction."""
        self._listeners.append(callback)

    def remove_evict_listener(self, callback) -> None:
        """Unregister a listener (a closed server must stop firing)."""
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    def _notify(self, evicted: list) -> None:
        for key, plan in evicted:
            for callback in tuple(self._listeners):
                callback(key, plan)

    def _over_budget(self) -> bool:
        if self.max_plans is not None and len(self._plans) > self.max_plans:
            return True
        return self.max_bytes is not None \
            and self.total_bytes > self.max_bytes

    def _admit(self, key: str, plan: SolverPlan,
               nbytes: int) -> list:
        """Insert under the lock; return the evicted ``(key, plan)``s."""
        evicted: list = []
        with self._lock:
            # first write wins: plans are immutable and content-keyed,
            # so re-registering is a no-op returning the same id (but
            # it still refreshes LRU recency)
            if key not in self._plans:
                self._plans[key] = plan
                self._nbytes[key] = nbytes
                self._g_bytes.inc(nbytes)
            self._plans.move_to_end(key)
            # never evict the entry just admitted: the byte budget is
            # a cap on *retention*, not an admission filter
            while len(self._plans) > 1 and self._over_budget():
                old_key, old_plan = self._plans.popitem(last=False)
                self._g_bytes.dec(self._nbytes.pop(old_key, 0))
                evicted.append((old_key, old_plan))
                self._c_evicted.inc()
            self._g_plans.set(len(self._plans))
        return evicted

    def put(self, plan: SolverPlan) -> str:
        key = plan_hash(plan)
        if self.disk is not None:
            self.disk.put(plan)  # no-op when the artifact exists
        evicted = self._admit(key, plan, plan_nbytes(plan))
        self._notify(evicted)
        return key

    def get(self, key: str) -> SolverPlan:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)  # a hit refreshes recency
        if plan is None and self.disk is not None:
            # warm-restart path: the artifact tier survives the
            # process, so a miss here is served from disk (zero-copy
            # mmap) instead of failing — no re-planning
            plan = self.disk.get(key)
            if plan is not None:
                self._c_disk_loads.inc()
                self._notify(self._admit(key, plan, plan_nbytes(plan)))
        if plan is None:
            raise KeyError(f"no plan {key!r} in the store")
        return plan

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._plans

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._plans)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Mergeable snapshot of the store (and its disk tier)."""
        with self._lock:
            self._g_plans.set(len(self._plans))
        if self.disk is not None and self.disk.obs is not self.obs:
            return merge_snapshots(
                [self.obs.snapshot(), self.disk.obs.snapshot()])
        return self.obs.snapshot()


@dataclass(frozen=True)
class ServeRequest:
    """One solve request for :meth:`DtmServer.serve`."""

    plan_id: str
    b: np.ndarray
    tol: float = 1e-8
    stopping: object = None
    warm_start: bool = False
    tag: object = None


@dataclass(frozen=True)
class ServeResponse:
    """One served request: the result *or* an error, plus accounting.

    ``error`` is ``None`` on success and a ``"Type: message"`` string
    when the request failed (unknown plan id, malformed right-hand
    side, runner failure, ...) — in which case ``result`` is ``None``.
    The serve loop never dies on a bad request; it reports and moves
    on to the next one.
    """

    plan_id: Optional[str]
    result: Optional[SolveResult] = None
    seq: int = 0
    wall_seconds: float = 0.0
    tag: object = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class DtmServer:
    """Long-lived sharded solve service over a :class:`PlanStore`.

    Parameters
    ----------
    shards:
        Worker processes per runner (``1`` = in-process fleet path).
    store:
        Shared :class:`PlanStore` (a fresh private one by default) —
        several servers can serve one store.
    max_plans / max_bytes / plan_dir:
        Convenience configuration applied to the private store
        (entry-count bound, byte bound, persistent artifact
        directory); pass a pre-configured :class:`PlanStore` instead
        when sharing one (combining either with ``store=`` is
        rejected as ambiguous).  With ``plan_dir`` set, a restarted
        server over the same directory serves its first solve from
        the mmap-loaded artifact — no re-planning.
    runner_opts:
        Extra :class:`MultiprocDtmRunner` keyword arguments applied to
        every runner the server creates (e.g. ``transport="mesh"``).

    Whatever the store, the server registers an eviction listener: a
    plan falling out of the LRU shuts down its warm runner pool too,
    so bounded stores bound worker-pool memory as well.
    """

    def __init__(self, *, shards: int = 2,
                 store: Optional[PlanStore] = None,
                 max_plans: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 plan_dir=None,
                 obs=None,
                 **runner_opts) -> None:
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if store is not None and (max_plans is not None
                                  or max_bytes is not None
                                  or plan_dir is not None):
            raise ConfigurationError(
                "configure max_plans/max_bytes/plan_dir on the "
                "PlanStore when sharing one (combining them with "
                "store= is ambiguous)")
        self.shards = int(shards)
        self.obs = component_registry(obs)
        self.store = store if store is not None \
            else PlanStore(max_plans=max_plans, max_bytes=max_bytes,
                           plan_dir=plan_dir, obs=self.obs)
        self.store.add_evict_listener(self._on_evict)
        self._runner_opts = dict(runner_opts)
        # an explicit obs opt-in propagates to the sharded runners so
        # worker processes snapshot their registries too; the default
        # leaves the hot paths on the REPRO_OBS-gated null registry
        if resolve_obs(obs).enabled:
            self._runner_opts.setdefault("obs", True)
        self._runners: dict[str, MultiprocDtmRunner] = {}
        self._lock = threading.Lock()
        self._solve_locks: dict = {}
        #: guards the serve-loop sequence number — the TCP front end
        #: drives serve() from one thread per connection
        self._seq_lock = threading.Lock()
        self._seq = 0
        self._c_solves = self.obs.counter(
            "repro_server_solves_total", "solve requests served")
        self._c_warm = self.obs.counter(
            "repro_server_warm_hits_total",
            "solves dispatched to an already-warm runner")
        self._c_errors = self.obs.counter(
            "repro_server_errors_total", "failed serve requests")
        self._closed = False

    # -- registration ---------------------------------------------------
    def register(self, a=None, b=None, *,
                 plan: Optional[SolverPlan] = None,
                 **plan_kwargs) -> str:
        """Admit a system (or prebuilt plan) and return its plan id.

        Building goes through the in-process plan cache, so two
        registrations of the same matrix/configuration return the same
        id and share one plan object.  On a bounded store, admitting a
        new plan may evict (and shut down the warm runner of) the
        least-recently-used one.
        """
        if self._closed:
            raise ConfigurationError("server is closed")
        if plan is None:
            if a is None:
                raise ConfigurationError(
                    "register needs a system or a plan")
            plan = get_plan(a, b, mode="dtm", **plan_kwargs)
        elif plan.mode != "dtm":
            raise ConfigurationError(
                f"DtmServer serves dtm-mode plans, got {plan.mode!r}")
        return self.store.put(plan)

    def _on_evict(self, key: str, plan: SolverPlan) -> None:
        """Eviction listener: retire the evicted plan's warm runner.

        The runner is closed under its solve lock, so an in-flight
        solve on another thread finishes before its pool is torn down
        (the next request for the key gets a clean ``KeyError``).
        """
        with self._lock:
            runner = self._runners.pop(key, None)
        if runner is not None:
            with self._solve_lock(key):
                runner.close()
        with self._lock:
            # the lock entry goes with the plan (recreated on a
            # re-register), so a bounded store bounds this dict too
            self._solve_locks.pop(key, None)

    # -- dispatch -------------------------------------------------------
    def _solve_lock(self, plan_id) -> threading.Lock:
        with self._lock:
            lock = self._solve_locks.get(plan_id)
            if lock is None:
                lock = threading.Lock()
                self._solve_locks[plan_id] = lock
        return lock

    def runner(self, plan_id: str) -> MultiprocDtmRunner:
        """The warm sharded runner of *plan_id* (created on first use).

        Creation happens under the server lock: the store lookup and
        the runner-cache insert are atomic with respect to LRU
        eviction, so an evicted key can never leave an orphan warm
        pool behind (eviction either sees the cached runner and closes
        it, or the lookup fails with ``KeyError``).
        """
        with self._lock:
            runner = self._runners.get(plan_id)
            if runner is not None:
                self._c_warm.inc()
                return runner
            plan = self.store.get(plan_id)
            runner = MultiprocDtmRunner(plan, shards=self.shards,
                                        **self._runner_opts)
            self._runners[plan_id] = runner
        return runner

    def solve(self, plan_id: str, b=None, **solve_kwargs) -> SolveResult:
        """Solve against a registered plan on its warm worker pool.

        Serialized per plan: runners (and the shards=1 session path)
        are single-caller objects, so concurrent requests for one plan
        — easy to produce through the TCP front end — queue on the
        plan's solve lock instead of racing one worker pool.
        """
        if self._closed:
            raise ConfigurationError("server is closed")
        t0 = time.perf_counter()
        with self._solve_lock(plan_id):
            result = self.runner(plan_id).solve(b, **solve_kwargs)
        self.obs.histogram(
            "repro_server_solve_seconds", "per-plan solve wall time",
            plan=plan_id).observe(time.perf_counter() - t0)
        self._c_solves.inc()
        return result

    def serve(self, requests: Iterable[ServeRequest]
              ) -> Iterator[ServeResponse]:
        """The server loop: drain *requests*, yield responses in order.

        Lazily evaluated so a caller can stream an unbounded request
        source; runners stay warm across requests for the same plan.
        A failing request — unknown plan id, malformed right-hand
        side, a runner error — yields a :class:`ServeResponse` with
        ``error`` set instead of raising: the loop survives bad
        requests by contract (asserted in-process and over TCP by the
        test suite).
        """
        for req in requests:
            t0 = time.perf_counter()
            plan_id = getattr(req, "plan_id", None)
            tag = getattr(req, "tag", None)
            with self._seq_lock:
                self._seq += 1
                seq = self._seq
            try:
                result = self.solve(
                    plan_id, req.b, tol=req.tol,
                    stopping=req.stopping,
                    warm_start=req.warm_start)
            except Exception as exc:
                self._c_errors.inc()
                yield ServeResponse(
                    plan_id=plan_id, result=None, seq=seq,
                    wall_seconds=time.perf_counter() - t0, tag=tag,
                    error=f"{type(exc).__name__}: {exc}")
                continue
            yield ServeResponse(plan_id=plan_id, result=result,
                                seq=seq,
                                wall_seconds=time.perf_counter() - t0,
                                tag=tag)

    # -- telemetry ------------------------------------------------------
    def metrics_snapshot(self) -> MetricsSnapshot:
        """The merged fleet-wide metrics view.

        Sums, deduplicating shared registries by identity: the
        server's own registry (serving counters, per-plan solve
        histograms, plan-store and disk-tier instruments), the
        process-wide plan cache, and — per warm runner — the
        coordinator-side registry plus the latest snapshot each worker
        process piggybacked on its state/heartbeat frames.
        """
        registries: list = []

        def _add(reg) -> None:
            if reg is not None and all(reg is not r for r in registries):
                registries.append(reg)

        _add(self.obs)
        _add(getattr(self.store, "obs", None))
        disk = getattr(self.store, "disk", None)
        if disk is not None:
            _add(disk.obs)
        _add(default_plan_cache().obs)
        snaps = []
        with self._lock:
            runners = list(self._runners.values())
        for runner in runners:
            _add(getattr(runner, "obs", None))
            snaps.extend(runner.worker_metrics_snapshots())
        snaps = [r.snapshot() for r in registries] + snaps
        return merge_snapshots(snaps)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut down every warm runner (plans stay in the store)."""
        if self._closed:
            return
        self._closed = True
        # stop firing on a (possibly shared) store after close
        self.store.remove_evict_listener(self._on_evict)
        with self._lock:
            runners = list(self._runners.values())
            self._runners.clear()
        for runner in runners:
            runner.close()

    def __enter__(self) -> "DtmServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "DtmServer",
    "PlanStore",
    "ServeRequest",
    "ServeResponse",
    "plan_hash",
]
