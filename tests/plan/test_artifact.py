"""Plan artifacts and the content-addressed disk store (ISSUE 7).

The persistence contract end to end: a plan saved with
:func:`save_plan` and loaded back (mmap or eager) is **the same
plan** — bitwise-identical solves, the same plan hash, aliasing
between fleet and locals preserved — and every way an artifact file
can be wrong (bad magic, future version, truncation, corrupt pickle)
surfaces as a clear :class:`PlanArtifactError`, never a half-loaded
plan.  The :class:`DiskPlanStore` on top is a disposable cache:
hash-addressed, LRU-bounded, and self-healing on corrupt entries.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.errors import PlanArtifactError
from repro.plan import (
    PlanCache,
    artifact,
    build_plan,
    compute_plan_hash,
    get_plan,
    load_plan,
    plan_from_bytes,
    plan_nbytes,
    plan_to_bytes,
    save_plan,
)
from repro.plan.artifact import FORMAT_VERSION, MAGIC, peek_header
from repro.plan.diskstore import DiskPlanStore, plan_disk_hash
from repro.plan.plan import graph_fingerprint
from repro.workloads.circuits import resistor_grid
from repro.workloads.poisson import grid2d_poisson

GRID = 20
N_PARTS = 4


@pytest.fixture(scope="module")
def graph():
    return grid2d_poisson(GRID)


@pytest.fixture(scope="module")
def built_plan(graph):
    return build_plan(graph, n_subdomains=N_PARTS)


@pytest.fixture(scope="module")
def other_plan(graph):
    return build_plan(graph, n_subdomains=N_PARTS, seed=1)


def _solve(plan, b, **kw):
    return plan.session().solve(b, tol=1e-8, **kw)


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["dtm", "vtm", "circuit"])
    def test_solve_is_bitwise_identical(self, graph, built_plan,
                                        tmp_path, variant):
        # every variant refactors its SuperLU locals after loading:
        # the refactor must reproduce the built plan's bits
        if variant == "circuit":
            graph = resistor_grid(12, 12, seed=3)
        plan = {"dtm": lambda: built_plan,
                "vtm": lambda: build_plan(graph, mode="vtm",
                                          n_subdomains=N_PARTS),
                "circuit": lambda: build_plan(graph,
                                              n_subdomains=N_PARTS)}[
            variant]()
        path = tmp_path / "p.plan"
        save_plan(plan, path)
        loaded = load_plan(path)
        x_built = _solve(plan, graph.sources).x
        x_loaded = _solve(loaded, graph.sources).x
        assert np.array_equal(x_built, x_loaded)

    def test_eager_load_matches_mmap(self, built_plan, tmp_path):
        path = tmp_path / "p.plan"
        save_plan(built_plan, path)
        mapped = load_plan(path, mmap=True)
        eager = load_plan(path, mmap=False)
        for lm, le in zip(mapped.base_locals, eager.base_locals):
            assert np.array_equal(lm.x0, le.x0)
            assert np.array_equal(lm.X, le.X)

    def test_solve_many_is_bitwise_identical(self, graph, built_plan,
                                             tmp_path):
        path = tmp_path / "p.plan"
        save_plan(built_plan, path)
        loaded = load_plan(path)
        rng = np.random.default_rng(7)
        B = rng.standard_normal((graph.n, 2))
        built_res = built_plan.session().solve_many(B, tol=1e-8)
        loaded_res = loaded.session().solve_many(B, tol=1e-8)
        for rb, rl in zip(built_res, loaded_res):
            assert np.array_equal(rb.x, rl.x)

    def test_forked_sessions_work_on_a_loaded_plan(self, graph,
                                                   built_plan, tmp_path):
        # two sessions over one loaded plan: the fork path must not
        # write through the read-only mapped base state
        path = tmp_path / "p.plan"
        save_plan(built_plan, path)
        loaded = load_plan(path)
        b = graph.sources
        x1 = _solve(loaded, b).x
        x2 = _solve(loaded, 2.0 * b).x
        x3 = _solve(loaded, b).x
        assert np.array_equal(x1, x3)
        assert not np.array_equal(x1, x2)

    def test_bytes_round_trip(self, graph, built_plan):
        data = plan_to_bytes(built_plan)
        clone = plan_from_bytes(data)
        x_built = _solve(built_plan, graph.sources).x
        x_clone = _solve(clone, graph.sources).x
        assert np.array_equal(x_built, x_clone)

    def test_aliasing_is_preserved(self, built_plan, tmp_path):
        # the fleet template shares the very same LocalSystem objects
        # as base_locals, and each local's X is a row of the fleet
        # kernel's group stack; a loader that copies would double memory
        path = tmp_path / "p.plan"
        header = save_plan(built_plan, path)
        loaded = load_plan(path)
        for i, loc in enumerate(loaded.base_locals):
            assert loaded.fleet_template.locals[i] is loc
        assert loaded.split.graph is loaded.graph
        for group in loaded.fleet_template.kernel.groups:
            for row, q in zip(group.X3, group.members):
                x = loaded.base_locals[q].X
                assert np.shares_memory(x, group.X3)
                assert np.array_equal(x, row)
        # the stacks are stored once: no local's X has a segment of
        # its own
        shapes = {tuple(rec["shape"]) for rec in header["segments"]}
        assert not any(loc.X.shape in shapes
                       for loc in built_plan.base_locals)

    def test_mapped_arrays_are_read_only(self, built_plan, tmp_path):
        path = tmp_path / "p.plan"
        save_plan(built_plan, path)
        loaded = load_plan(path)
        arr = loaded.base_locals[0].X
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0

    def test_plan_hash_is_stable_across_the_round_trip(self, graph,
                                                       built_plan,
                                                       tmp_path):
        path = tmp_path / "p.plan"
        header = save_plan(built_plan, path)
        loaded = load_plan(path)
        assert plan_disk_hash(loaded) == plan_disk_hash(built_plan)
        assert header["plan_hash"] == plan_disk_hash(built_plan)
        # and the hash is computable *before* building: fingerprint+key
        expected = compute_plan_hash(
            graph_fingerprint(graph), built_plan.key)
        assert header["plan_hash"] == expected

    def test_peek_header_reads_metadata_without_arrays(self, built_plan,
                                                       tmp_path):
        path = tmp_path / "p.plan"
        save_plan(built_plan, path)
        header = peek_header(path)
        assert header["format"] == "repro-plan-artifact"
        assert header["version"] == FORMAT_VERSION
        assert header["n"] == built_plan.n
        assert header["mode"] == "dtm"
        assert header["plan_hash"] == plan_disk_hash(built_plan)

    def test_plan_nbytes_tracks_the_artifact_size(self, built_plan,
                                                  tmp_path):
        path = tmp_path / "p.plan"
        save_plan(built_plan, path)
        nbytes = plan_nbytes(built_plan)
        assert 0 < nbytes <= os.path.getsize(path)
        # the file adds only the JSON header and per-segment alignment
        # padding on top of the payload plan_nbytes counts
        overhead = os.path.getsize(path) - nbytes
        n_segments = len(peek_header(path)["segments"])
        assert overhead <= 256 * n_segments + 4096


    def test_plan_nbytes_comes_off_the_header_when_there_is_one(
            self, built_plan, tmp_path):
        """The count a saved or loaded plan carries (segment table +
        blob length) is the count packing the plan gave."""
        plan = built_plan
        segments, blob = artifact._pack(plan)
        sizes = [arr.nbytes for arr in segments]
        expected = len(blob) + sum(sizes)
        path = tmp_path / "p.plan"
        save_plan(plan, path)
        assert plan_nbytes(plan) == expected
        for mmap in (True, False):
            loaded = load_plan(path, mmap=mmap)
            assert plan_nbytes(loaded) == expected
            # packed again, a loaded plan has the same segments; its
            # blob is a few bytes longer (strings that were one object
            # in the built plan come back as equal ones, and pickle
            # memoizes by identity), so the header's count is the one
            assert [a.nbytes for a in artifact._pack(loaded)[0]] == sizes
        assert plan_nbytes(plan_from_bytes(plan_to_bytes(plan))) == expected


class TestCorruptArtifacts:
    def _saved(self, plan, tmp_path) -> str:
        path = str(tmp_path / "victim.plan")
        save_plan(plan, path)
        return path

    def test_bad_magic(self, built_plan, tmp_path):
        path = self._saved(built_plan, tmp_path)
        with open(path, "r+b") as fh:
            fh.write(b"NOTAPLAN")
        with pytest.raises(PlanArtifactError, match="magic"):
            load_plan(path)

    def test_version_mismatch(self, built_plan, tmp_path):
        path = self._saved(built_plan, tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(len(MAGIC))
            fh.write((FORMAT_VERSION + 1).to_bytes(4, "little"))
        with pytest.raises(PlanArtifactError, match="version"):
            load_plan(path)

    def test_truncated_file(self, built_plan, tmp_path):
        path = self._saved(built_plan, tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(PlanArtifactError, match="truncat"):
            load_plan(path)

    def test_corrupt_pickle_blob(self, built_plan, tmp_path):
        path = self._saved(built_plan, tmp_path)
        header = peek_header(path)
        # flip one byte inside the pickle blob: sha256 must catch it
        offset = header["pickle"]["offset"]
        data_start = os.path.getsize(path) - header["data_nbytes"]
        with open(path, "r+b") as fh:
            fh.seek(data_start + offset)
            byte = fh.read(1)
            fh.seek(data_start + offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(PlanArtifactError):
            load_plan(path)

    def test_not_even_a_preamble(self, tmp_path):
        path = tmp_path / "empty.plan"
        path.write_bytes(b"xx")
        with pytest.raises(PlanArtifactError):
            load_plan(path)

    def test_bytes_path_raises_too(self, built_plan):
        data = bytearray(plan_to_bytes(built_plan))
        data[:8] = b"NOTAPLAN"
        with pytest.raises(PlanArtifactError):
            plan_from_bytes(bytes(data))


class TestDiskPlanStore:
    def test_put_get_round_trip(self, graph, built_plan, tmp_path):
        store = DiskPlanStore(tmp_path / "plans")
        h = store.put(built_plan)
        assert h == plan_disk_hash(built_plan)
        assert h in store
        loaded = store.get(h)
        assert np.array_equal(_solve(built_plan, graph.sources).x,
                              _solve(loaded, graph.sources).x)
        snap = store.obs.snapshot()
        assert snap.total("repro_disk_store_hits_total") == 1
        assert snap.total("repro_disk_store_stores_total") == 1

    def test_get_unknown_is_a_miss(self, tmp_path):
        store = DiskPlanStore(tmp_path / "plans")
        assert store.get("0" * 16) is None
        assert store.obs.snapshot().total(
            "repro_disk_store_misses_total") == 1

    def test_put_bytes_validates_and_get_bytes_round_trips(
            self, built_plan, tmp_path):
        store = DiskPlanStore(tmp_path / "plans")
        data = plan_to_bytes(built_plan)
        h = store.put_bytes(data)
        assert h == plan_disk_hash(built_plan)
        fetched = store.get_bytes(h)
        assert plan_from_bytes(fetched).n == built_plan.n
        with pytest.raises(PlanArtifactError):
            store.put_bytes(b"garbage")

    def test_corrupt_entry_is_dropped_not_served(self, built_plan,
                                                 tmp_path):
        store = DiskPlanStore(tmp_path / "plans")
        h = store.put(built_plan)
        with open(store.path_for(h), "r+b") as fh:
            fh.write(b"NOTAPLAN")
        assert store.get(h) is None
        assert h not in store  # the bad file was deleted
        assert store.obs.snapshot().total(
            "repro_disk_store_corrupt_total") == 1

    def test_byte_budget_evicts_oldest(self, built_plan, other_plan,
                                       tmp_path):
        # a second plan (different seed → different hash) has about
        # the same footprint, so two of them must overflow a 1.5x
        # budget and push out the older artifact
        other = other_plan
        one = plan_nbytes(built_plan)
        store = DiskPlanStore(tmp_path / "plans",
                              max_bytes=int(one * 1.5))
        h1 = store.put(built_plan)
        time.sleep(0.05)  # mtime LRU needs distinct timestamps
        h2 = store.put(other)
        assert h2 != h1
        assert h2 in store
        assert h1 not in store  # oldest evicted to fit the budget
        assert store.obs.snapshot().total(
            "repro_disk_store_evictions_total") >= 1

    def test_discard_and_clear(self, built_plan, other_plan, tmp_path):
        store = DiskPlanStore(tmp_path / "plans")
        h1 = store.put(built_plan)
        store.put(other_plan)
        assert store.discard(h1)
        assert not store.discard(h1)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
        assert store.total_bytes() == 0


class TestGetPlanDiskTier:
    def test_second_process_loads_instead_of_rebuilding(self, graph,
                                                        tmp_path):
        plan_dir = tmp_path / "plans"
        built = get_plan(graph, n_subdomains=N_PARTS, mode="dtm",
                         cache=PlanCache(), plan_dir=str(plan_dir))
        # a fresh cache models a restarted process: the plan must come
        # from the artifact (identical build_seconds — a rebuild would
        # have timed a new build), and solve bitwise-identically
        loaded = get_plan(graph, n_subdomains=N_PARTS, mode="dtm",
                          cache=PlanCache(), plan_dir=str(plan_dir))
        assert loaded.build_seconds == built.build_seconds
        assert np.array_equal(_solve(built, graph.sources).x,
                              _solve(loaded, graph.sources).x)

    def test_use_cache_false_still_uses_the_disk_tier(self, graph,
                                                      tmp_path):
        plan_dir = tmp_path / "plans"
        built = get_plan(graph, n_subdomains=N_PARTS, mode="dtm",
                         cache=PlanCache(), plan_dir=str(plan_dir))
        loaded = get_plan(graph, n_subdomains=N_PARTS, mode="dtm",
                          cache=PlanCache(), plan_dir=str(plan_dir),
                          use_cache=False)
        assert loaded.build_seconds == built.build_seconds

    def test_plan_dir_is_not_key_material(self, graph, tmp_path):
        # plan_dir changes where a plan is stored,
        # never what it computes — same cache entry either way
        cache = PlanCache()
        p1 = get_plan(graph, n_subdomains=N_PARTS, mode="dtm",
                      cache=cache, plan_dir=str(tmp_path / "a"))
        p2 = get_plan(graph, n_subdomains=N_PARTS, mode="dtm",
                      cache=cache, plan_dir=str(tmp_path / "b"))
        assert p1 is p2


class TestSingleFlight:
    def test_racing_misses_build_once(self, graph):
        cache = PlanCache()
        key = ("single-flight", N_PARTS)
        builds = []
        barrier = threading.Barrier(4)

        def build():
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return build_plan(graph, n_subdomains=N_PARTS)

        results = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_build(key, build))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        plans = {id(plan) for plan, _ in results}
        assert len(plans) == 1  # everyone got the same object
        assert sum(1 for _, hit in results if not hit) == 1
        snap = cache.metrics_snapshot()
        coalesced = snap.total("repro_plan_cache_coalesced_total")
        assert coalesced >= 1
        # every racer but the builder either waited on the flight or
        # arrived after it and hit
        assert coalesced + snap.total("repro_plan_cache_hits_total") \
            == len(threads) - 1

    def test_failed_build_releases_the_key(self, graph):
        cache = PlanCache()
        key = ("fails-once",)
        with pytest.raises(RuntimeError):
            cache.get_or_build(key, self._boom)
        plan, hit = cache.get_or_build(
            key, lambda: build_plan(graph, n_subdomains=N_PARTS))
        assert plan is not None and not hit

    @staticmethod
    def _boom():
        raise RuntimeError("build failed")
