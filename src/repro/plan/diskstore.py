"""Content-addressed disk cache of plan artifacts (the durable tier).

:class:`DiskPlanStore` keeps one :mod:`~repro.plan.artifact` file per
plan, named by the plan's content hash
(:func:`~repro.plan.plan.compute_plan_hash`): ``<plan_dir>/<hash>.plan``.
It is the tier *below* the in-process caches — ``get_plan(...,
plan_dir=)`` consults it before building, and
:class:`~repro.runtime.server.PlanStore` persists through it so a
restarted server comes up warm.

Semantics:

* **Disposable cache, never authoritative.**  Every entry can be
  rebuilt from its inputs; a corrupt, truncated or version-mismatched
  file found on :meth:`get` is deleted and treated as a miss — no
  error escapes to the solve path.
* **Atomic, first-write-wins.**  Writes go to a temp file in the same
  directory and ``os.replace`` into place, so readers (including other
  processes mmap-ing the store) never observe a partial artifact, and
  concurrent writers of one hash converge on identical content.
* **Cross-process advisory locking.**  Mutations (put/evict) serialize
  on an ``fcntl.flock`` over ``<plan_dir>/.lock`` where the platform
  has it; reads need no lock (artifacts are immutable once named).
* **Byte-budget LRU.**  ``max_bytes=`` bounds the directory:
  least-recently-used artifacts (mtime order; :meth:`get` refreshes)
  are unlinked until the store fits.  An unlinked file that another
  process still has mapped stays readable through its mapping — POSIX
  keeps the pages alive until the last reference drops.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Optional

from ..errors import ConfigurationError, PlanArtifactError
from ..obs import component_registry
from .artifact import (
    artifact_plan_hash,
    load_plan,
    save_plan,
)
from .plan import SolverPlan, compute_plan_hash

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

SUFFIX = ".plan"

LOCK_FILE = ".lock"


def plan_disk_hash(plan: SolverPlan) -> str:
    """The content hash a plan is filed under."""
    return compute_plan_hash(plan.fingerprint(), plan.key)


class DiskPlanStore:
    """Content-addressed, byte-bounded directory of plan artifacts."""

    def __init__(self, directory, *, max_bytes: Optional[int] = None,
                 obs=None) -> None:
        if max_bytes is not None and int(max_bytes) < 1:
            raise ConfigurationError("max_bytes must be >= 1 (or None)")
        self.directory = os.fspath(directory)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        os.makedirs(self.directory, exist_ok=True)
        self._thread_lock = threading.Lock()
        self.obs = component_registry(obs)
        self._c_hits = self.obs.counter(
            "repro_disk_store_hits_total", "disk artifacts found")
        self._c_misses = self.obs.counter(
            "repro_disk_store_misses_total", "disk artifacts absent")
        self._c_stores = self.obs.counter(
            "repro_disk_store_stores_total", "artifacts persisted")
        self._c_evicted = self.obs.counter(
            "repro_disk_store_evictions_total",
            "artifacts evicted over the byte budget")
        self._c_corrupt = self.obs.counter(
            "repro_disk_store_corrupt_total",
            "corrupt artifacts dropped on load")
        self._h_load = self.obs.histogram(
            "repro_disk_store_load_seconds",
            "artifact load (mmap open + header parse) latency")

    # -- paths / locking ------------------------------------------------
    def path_for(self, plan_hash: str) -> str:
        return os.path.join(self.directory, plan_hash + SUFFIX)

    @contextmanager
    def _locked(self):
        """Advisory cross-process lock around mutations."""
        with self._thread_lock:
            if fcntl is None:  # pragma: no cover - non-POSIX
                yield
                return
            with open(os.path.join(self.directory, LOCK_FILE),
                      "a+b") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(fh, fcntl.LOCK_UN)

    # -- queries --------------------------------------------------------
    def keys(self) -> list[str]:
        """Stored plan hashes, least-recently-used first."""
        entries = self._entries()
        return [h for h, _, _ in entries]

    def _entries(self) -> list[tuple[str, float, int]]:
        """``(hash, mtime, nbytes)`` per artifact, oldest first."""
        out = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if not name.endswith(SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue  # raced an eviction/replace; skip
            out.append((name[: -len(SUFFIX)], st.st_mtime, st.st_size))
        out.sort(key=lambda item: item[1])
        return out

    def __contains__(self, plan_hash: str) -> bool:
        return os.path.exists(self.path_for(plan_hash))

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        return sum(nbytes for _, _, nbytes in self._entries())

    # -- store ----------------------------------------------------------
    def put(self, plan: SolverPlan) -> str:
        """Persist *plan* (no-op if its hash is already stored)."""
        h = plan_disk_hash(plan)
        path = self.path_for(h)
        with self._locked():
            if os.path.exists(path):
                self._touch(path)  # first write wins; refresh recency
                return h
            save_plan(plan, path)
            self._c_stores.inc()
            self._evict_over_budget()
        return h

    def put_bytes(self, data: bytes) -> str:
        """Persist a ready-made artifact byte string (the wire path).

        The header is validated and the content hash is taken from it,
        so a pushed artifact lands under the same name a local build
        would — raises :class:`PlanArtifactError` on a bad payload.
        """
        h = artifact_plan_hash(data)
        if not h:
            raise PlanArtifactError("artifact carries no plan_hash")
        path = self.path_for(h)
        with self._locked():
            if os.path.exists(path):
                self._touch(path)
                return h
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=h + ".", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as out:
                    out.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._c_stores.inc()
            self._evict_over_budget()
        return h

    # -- fetch ----------------------------------------------------------
    def get(self, plan_hash: str, *, mmap: bool = True
            ) -> Optional[SolverPlan]:
        """The stored plan, or ``None``.

        A file that fails to load (corrupt/truncated/other version) is
        deleted and reported as a miss: the store is a disposable
        cache, so the caller simply rebuilds.
        """
        path = self.path_for(plan_hash)
        if not os.path.exists(path):
            self._c_misses.inc()
            return None
        t0 = time.perf_counter()
        try:
            plan = load_plan(path, mmap=mmap)
        except PlanArtifactError:
            self._drop_corrupt(path)
            self._c_misses.inc()
            return None
        self._h_load.observe(time.perf_counter() - t0)
        self._c_hits.inc()
        self._touch(path)
        return plan

    def get_bytes(self, plan_hash: str) -> Optional[bytes]:
        """The raw artifact bytes for a hash, or ``None`` (wire path)."""
        path = self.path_for(plan_hash)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            self._c_misses.inc()
            return None
        try:
            if artifact_plan_hash(data) != plan_hash:
                raise PlanArtifactError("artifact hash mismatch")
        except PlanArtifactError:
            self._drop_corrupt(path)
            self._c_misses.inc()
            return None
        self._c_hits.inc()
        self._touch(path)
        return data

    # -- maintenance ----------------------------------------------------
    def discard(self, plan_hash: str) -> bool:
        """Remove one artifact; ``True`` if a file was deleted."""
        with self._locked():
            try:
                os.unlink(self.path_for(plan_hash))
                return True
            except OSError:
                return False

    def clear(self) -> None:
        with self._locked():
            for h, _, _ in self._entries():
                try:
                    os.unlink(self.path_for(h))
                except OSError:
                    pass

    def _touch(self, path: str) -> None:
        try:
            os.utime(path)
        except OSError:
            pass  # recency refresh is best-effort

    def _drop_corrupt(self, path: str) -> None:
        self._c_corrupt.inc()
        with self._locked():
            try:
                os.unlink(path)
            except OSError:
                pass

    def _evict_over_budget(self) -> None:
        """Unlink LRU artifacts until the byte budget fits.

        Called with the store lock held.  Oldest-first by mtime; a
        single artifact larger than the whole budget is evicted too
        (the budget is a hard cap, and a miss just rebuilds).
        """
        if self.max_bytes is None:
            return
        entries = self._entries()
        total = sum(nbytes for _, _, nbytes in entries)
        for h, _, nbytes in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(self.path_for(h))
            except OSError:
                continue
            total -= nbytes
            self._c_evicted.inc()


__all__ = ["DiskPlanStore", "plan_disk_hash"]
