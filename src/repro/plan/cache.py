"""Keyed in-process plan cache (LRU, thread-safe).

Plans are pure functions of their build inputs, so an in-process cache
keyed on those inputs turns every repeated ``solve_dtm`` /
``solve_vtm_system`` call against the same matrix into a cheap
execute-only call.  The cache is deliberately small and in-memory: a
plan holds the factors and response blocks of every subdomain, so
entries are bounded by ``maxsize`` (LRU eviction) rather than grown
without limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional

from ..errors import ConfigurationError
from ..obs import component_registry


class PlanCache:
    """A small LRU mapping plan keys to built plans.

    Thread-safe; the build callback runs outside the cache lock so
    concurrent misses on *different* keys build in parallel, while
    misses on the *same* key single-flight on a per-key build lock:
    one caller runs the (expensive) build and every racer blocks,
    then reuses the freshly cached plan instead of duplicating the
    work (counted in ``repro_plan_cache_coalesced_total``).

    Hits, misses and coalesced builds are counted on a metric registry
    (see :mod:`repro.obs`) and read with :meth:`metrics_snapshot`:
    pass ``obs=`` to share one, or leave it unset for a private
    always-on registry.
    """

    def __init__(self, maxsize: int = 32, *, obs=None) -> None:
        if maxsize < 1:
            raise ConfigurationError("plan cache maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        #: per-key single-flight build locks (live only while a build
        #: for that key is in flight)
        self._building: dict[Hashable, threading.Lock] = {}
        self.obs = component_registry(obs)
        self._c_hits = self.obs.counter(
            "repro_plan_cache_hits_total", "plan cache hits")
        self._c_misses = self.obs.counter(
            "repro_plan_cache_misses_total", "plan cache misses")
        self._c_coalesced = self.obs.counter(
            "repro_plan_cache_coalesced_total",
            "concurrent builds coalesced onto one flight")
        self._g_entries = self.obs.gauge(
            "repro_plan_cache_entries", "cached plans")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """The cached plan for *key*, or ``None`` (counts hit/miss)."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self._c_misses.inc()
                return None
            self._entries.move_to_end(key)
            self._c_hits.inc()
            return plan

    def put(self, key: Hashable, plan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            self._g_entries.set(len(self._entries))

    def get_or_build(self, key: Hashable, build: Callable[[], object]):
        """Fetch *key*, building (and caching) on a miss.

        Returns ``(plan, cache_hit)``.  Concurrent misses on one key
        coalesce: the first caller builds under a per-key lock, the
        rest wait and return the cached plan (``cache_hit=True``,
        ``repro_plan_cache_coalesced_total`` bumped).  A failed build
        releases the key so the next caller retries instead of caching
        the failure.
        """
        plan = self.get(key)
        if plan is not None:
            return plan, True
        with self._lock:
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = threading.Lock()
                self._building[key] = build_lock
        with build_lock:
            # double-check: the racer that held the lock may have
            # cached the plan while this caller waited
            with self._lock:
                plan = self._entries.get(key)
                if plan is not None:
                    self._entries.move_to_end(key)
                    self._c_coalesced.inc()
                    return plan, True
            try:
                plan = build()
                self.put(key, plan)
                return plan, False
            finally:
                # the entry (if any) is cached before the build lock
                # is retired, so late arrivals hit instead of racing
                # a fresh build; on failure the pop lets them retry
                with self._lock:
                    self._building.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._g_entries.set(0)

    def metrics_snapshot(self):
        """Mergeable snapshot of this cache's instruments."""
        with self._lock:
            self._g_entries.set(len(self._entries))
        return self.obs.snapshot()


_DEFAULT: Optional[PlanCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_plan_cache() -> PlanCache:
    """The process-wide cache used by the high-level API."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = PlanCache()
        return _DEFAULT
