"""The metric registry (ISSUE 10, obs/registry).

Pins the contract the fleet-wide aggregation rides on: typed
instruments with well-defined merge semantics (counters and buckets
sum, order never matters — the hypothesis block), a thread-safe
registry that dedups instruments per ``(name, labels)``, and a
disabled default whose instruments are shared no-ops.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricsSnapshot,
    NullRegistry,
    component_registry,
    default_registry,
    merge_snapshots,
    obs_env_enabled,
    resolve_obs,
    set_default_registry,
)


class TestInstruments:
    def test_counter_only_goes_up(self):
        c = Counter("x_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("x")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_histogram_le_semantics(self):
        h = Histogram("x_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)   # <= 1.0
        h.observe(1.0)   # == bound: still the 1.0 bucket (le)
        h.observe(5.0)   # <= 10.0
        h.observe(100.0)  # above every bound: +Inf bucket
        s = h._sample()
        assert s["buckets"] == [2, 1, 1]
        assert s["count"] == 4
        assert s["sum"] == pytest.approx(106.5)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("x", buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("x", buckets=(2.0, 1.0))

    def test_default_buckets_are_fixed_and_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)

    def test_counter_is_thread_safe(self):
        c = Counter("x_total")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestRegistry:
    def test_same_name_and_labels_is_same_instrument(self):
        reg = MetricRegistry()
        a = reg.counter("x_total", shard="0")
        b = reg.counter("x_total", shard="0")
        other = reg.counter("x_total", shard="1")
        assert a is b
        assert a is not other

    def test_type_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_snapshot_is_frozen(self):
        reg = MetricRegistry()
        c = reg.counter("x_total")
        c.inc()
        snap = reg.snapshot()
        c.inc(10)
        assert snap.total("x_total") == 1.0
        assert reg.snapshot().total("x_total") == 11.0

    def test_snapshot_json_round_trip(self):
        reg = MetricRegistry()
        reg.counter("c_total", shard="3").inc(7)
        reg.gauge("g").set(-2.5)
        reg.histogram("h_seconds").observe(0.01)
        snap = reg.snapshot()
        wire = json.loads(json.dumps(snap.to_jsonable()))
        back = MetricsSnapshot.from_jsonable(wire)
        assert back.value("c_total", shard="3") == 7.0
        assert back.value("g") == -2.5
        assert back.value("h_seconds")["count"] == 1
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_jsonable([1, 2])

    def test_snapshot_accessors(self):
        reg = MetricRegistry()
        reg.counter("x_total", shard="0").inc(2)
        reg.counter("x_total", shard="1").inc(3)
        snap = reg.snapshot()
        assert snap.total("x_total") == 5.0
        assert snap.total("missing") == 0.0
        assert snap.value("missing") is None
        assert snap.series("x_total") == {
            (("shard", "0"),): 2.0,
            (("shard", "1"),): 3.0,
        }


class TestMerging:
    def test_sums_counters_and_buckets(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("x_total").inc(1)
        b.counter("x_total").inc(2)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(5.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.total("x_total") == 3.0
        assert merged.value("h")["buckets"] == [1, 1]
        assert merged.value("h")["count"] == 2

    def test_accepts_wire_form_and_none(self):
        reg = MetricRegistry()
        reg.counter("x_total").inc(4)
        merged = merge_snapshots(
            [None, reg.snapshot().to_jsonable(), reg.snapshot()])
        assert merged.total("x_total") == 8.0

    def test_type_mismatch_raises(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1)
        with pytest.raises(ConfigurationError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_bucket_bound_mismatch_raises(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ConfigurationError):
            merge_snapshots([a.snapshot(), b.snapshot()])


# the property the cross-process aggregation relies on: worker
# snapshots arrive in whatever order the heartbeats landed, and the
# merged totals must not care
@st.composite
def worker_snapshots(draw):
    n_workers = draw(st.integers(min_value=1, max_value=5))
    snaps = []
    for shard in range(n_workers):
        reg = MetricRegistry()
        c = reg.counter("w_total", shard=str(shard))
        c.inc(draw(st.integers(min_value=0, max_value=1000)))
        shared = reg.counter("shared_total")
        shared.inc(draw(st.integers(min_value=0, max_value=1000)))
        h = reg.histogram("lat_seconds")
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            h.observe(draw(st.floats(
                min_value=1e-7, max_value=1e3,
                allow_nan=False, allow_infinity=False)))
        snaps.append(reg.snapshot())
    return snaps


class TestMergeOrderInvariance:
    @settings(max_examples=60, deadline=None)
    @given(snaps=worker_snapshots(), data=st.data())
    def test_any_permutation_merges_identically(self, snaps, data):
        perm = data.draw(st.permutations(snaps))
        a = merge_snapshots(snaps)
        b = merge_snapshots(perm)
        assert a.metrics.keys() == b.metrics.keys()
        for name in a.metrics:
            assert a.total(name) == pytest.approx(b.total(name))
            sa, sb = a.series(name), b.series(name)
            assert sa.keys() == sb.keys()
            for key, sample in sa.items():
                if isinstance(sample, dict):
                    assert sample["buckets"] == sb[key]["buckets"]
                    assert sample["count"] == sb[key]["count"]
                    assert sample["sum"] == pytest.approx(
                        sb[key]["sum"])
                else:
                    assert sample == pytest.approx(sb[key])

    @settings(max_examples=30, deadline=None)
    @given(snaps=worker_snapshots())
    def test_associativity_matches_flat_merge(self, snaps):
        flat = merge_snapshots(snaps)
        folded = MetricsSnapshot()
        for snap in snaps:
            folded = folded.merge(snap)
        for name in flat.metrics:
            assert flat.total(name) == pytest.approx(
                folded.total(name))


class TestGates:
    def test_null_registry_is_shared_noop(self):
        c = NULL_REGISTRY.counter("x")
        g = NULL_REGISTRY.gauge("y")
        assert c is g  # one shared instrument, zero per-site state
        c.inc()
        c.observe(1.0)
        g.set(5)
        assert NULL_REGISTRY.snapshot().metrics == {}
        assert not NULL_REGISTRY.enabled

    def test_resolve_obs(self):
        reg = MetricRegistry()
        assert resolve_obs(reg) is reg
        assert resolve_obs(False) is NULL_REGISTRY
        assert resolve_obs(True).enabled
        assert isinstance(resolve_obs(True), MetricRegistry)
        with pytest.raises(ConfigurationError):
            resolve_obs("yes")

    def test_resolve_none_follows_env(self, monkeypatch):
        set_default_registry(None)
        monkeypatch.delenv("REPRO_OBS", raising=False)
        try:
            assert not obs_env_enabled()
            assert resolve_obs(None) is NULL_REGISTRY
            set_default_registry(None)
            monkeypatch.setenv("REPRO_OBS", "1")
            assert obs_env_enabled()
            assert default_registry().enabled
            for off in ("0", "false", "no", "off", ""):
                monkeypatch.setenv("REPRO_OBS", off)
                assert not obs_env_enabled()
        finally:
            set_default_registry(None)

    def test_component_registry_never_null(self):
        reg = component_registry(None)
        assert reg.enabled  # serving counters must always count
        assert isinstance(reg, MetricRegistry)
        mine = MetricRegistry()
        assert component_registry(mine) is mine

    def test_set_default_registry(self):
        mine = MetricRegistry()
        set_default_registry(mine)
        try:
            assert default_registry() is mine
            assert resolve_obs(None) is mine
        finally:
            set_default_registry(None)
        assert isinstance(default_registry(), NullRegistry) \
            or default_registry().enabled
