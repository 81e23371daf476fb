"""Tests for topologies and delay models (paper Figs 11 and 13)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.sim.network import (
    ConstantDelay,
    JitteredDelay,
    Topology,
    custom_topology,
    mesh_topology,
    paper_fig11_topology,
    paper_fig13_topology,
    uniform_topology,
)


# ----------------------------------------------------------------------
# delay models
# ----------------------------------------------------------------------
def test_constant_delay():
    d = ConstantDelay(5.0)
    assert d.nominal() == 5.0
    assert d.sample(np.random.default_rng(0)) == 5.0
    with pytest.raises(ValidationError):
        ConstantDelay(-1.0)


def test_jittered_delay_bounds():
    d = JitteredDelay(10.0, 0.2)
    rng = np.random.default_rng(0)
    samples = [d.sample(rng) for _ in range(200)]
    assert all(8.0 <= s <= 12.0 for s in samples)
    assert d.nominal() == 10.0
    assert np.std(samples) > 0
    with pytest.raises(ValidationError):
        JitteredDelay(1.0, 1.5)


# ----------------------------------------------------------------------
# topology basics
# ----------------------------------------------------------------------
def test_custom_topology_example_5_1():
    topo = custom_topology({(0, 1): 6.7, (1, 0): 2.9})
    assert topo.n_procs == 2
    assert topo.nominal_delay(0, 1) == 6.7
    assert topo.nominal_delay(1, 0) == 2.9
    assert topo.nominal_delay(0, 0) == 0.0
    assert topo.neighbors(0) == [1]


def test_custom_topology_validation():
    with pytest.raises(ConfigurationError):
        custom_topology({})
    with pytest.raises(ValidationError):
        Topology(n_procs=2, links={(0, 0): ConstantDelay(1.0)})
    with pytest.raises(ValidationError):
        Topology(n_procs=1, links={(0, 1): ConstantDelay(1.0)})


def test_missing_link_raises():
    topo = custom_topology({(0, 1): 1.0})
    with pytest.raises(ConfigurationError):
        topo.nominal_delay(1, 0)
    with pytest.raises(ConfigurationError):
        topo.sample_delay(1, 0)


def test_delay_table_sorted():
    topo = custom_topology({(1, 0): 2.0, (0, 1): 1.0})
    assert topo.delay_table() == [(0, 1, 1.0), (1, 0, 2.0)]


# ----------------------------------------------------------------------
# mesh builders
# ----------------------------------------------------------------------
def test_mesh_topology_structure():
    topo = mesh_topology(3, 3, delay_low=1.0, delay_high=2.0, seed=0)
    assert topo.n_procs == 9
    # 2*3*2=12 undirected mesh edges -> 24 directed links
    assert len(topo.links) == 24
    # corner has 2 neighbours, centre has 4
    assert len(topo.neighbors(0)) == 2
    assert len(topo.neighbors(4)) == 4


def test_mesh_topology_seeded_reproducible():
    a = mesh_topology(3, 3, delay_low=1, delay_high=9, seed=7)
    b = mesh_topology(3, 3, delay_low=1, delay_high=9, seed=7)
    assert a.delay_table() == b.delay_table()


def test_mesh_topology_validation():
    with pytest.raises(ValidationError):
        mesh_topology(0, 3, delay_low=1, delay_high=2)
    with pytest.raises(ValidationError):
        mesh_topology(2, 2, delay_low=0, delay_high=2)
    with pytest.raises(ValidationError):
        mesh_topology(2, 2, delay_low=3, delay_high=2)


def test_paper_fig11_topology_statistics():
    """Fig 11: 16 procs, delays 10..99 ms, max/min ≈ 9, asymmetric."""
    topo = paper_fig11_topology()
    assert topo.n_procs == 16
    stats = topo.delay_stats()
    assert stats["min"] == 10.0
    assert stats["max"] == 99.0
    assert stats["ratio"] == pytest.approx(9.9)
    assert topo.asymmetry() > 0.05  # per-direction delays differ
    # integer (whole-ms) delays as in the paper's table
    for _, _, d in topo.delay_table():
        assert d == int(d)


def test_paper_fig13_topology_statistics():
    """Fig 13: 64 procs, delays ~ U[10, 100] ms."""
    topo = paper_fig13_topology()
    assert topo.n_procs == 64
    stats = topo.delay_stats()
    assert 10.0 <= stats["min"] <= 20.0
    assert 90.0 <= stats["max"] <= 100.0
    assert 45.0 <= stats["mean"] <= 65.0
    # 2*8*7 = 112 undirected edges -> 224 directed links
    assert len(topo.links) == 224


def test_uniform_topology():
    topo = uniform_topology(4, delay=2.0)
    assert topo.nominal_delay(0, 3) == 2.0
    assert topo.asymmetry() == 0.0
    assert len(topo.neighbors(2)) == 3
    with pytest.raises(ValidationError):
        uniform_topology(0)


def test_jittered_mesh_sampling():
    topo = mesh_topology(2, 2, delay_low=10, delay_high=20, seed=1,
                         jitter=0.1).seed(3)
    (src, dst, nominal) = topo.delay_table()[0]
    samples = {topo.sample_delay(src, dst) for _ in range(50)}
    assert len(samples) > 1  # jitter varies per message
    assert all(abs(s - nominal) <= 0.1 * nominal + 1e-9 for s in samples)


@pytest.mark.parametrize("seed", range(5))
def test_sample_delays_equals_one_draw_per_message(seed):
    """One vectorised draw per emission is the per-message stream: same
    delays, same RNG state after; constant, zero-jitter and self links
    mixed in."""
    topo = mesh_topology(3, 3, delay_low=10, delay_high=40, seed=1,
                         jitter=0.3)
    topo.links[(4, 1)] = ConstantDelay(7.0)
    topo.links[(4, 3)] = JitteredDelay(9.0, 0.0)
    dst = np.random.default_rng(seed).choice([1, 3, 4, 5, 7], size=20)
    topo.seed(seed)
    one_by_one = [topo.sample_delay(4, int(d)) for d in dst]
    after = topo._rng.uniform()
    topo.seed(seed)
    assert topo.sample_delays(4, dst).tolist() == one_by_one
    assert topo._rng.uniform() == after
    assert topo.sample_delays(4, []).size == 0


def test_delay_stats_empty_topology_links():
    topo = Topology(n_procs=2, links={})
    s = topo.delay_stats()
    assert s["min"] == 0.0 and s["ratio"] == 1.0
    assert topo.asymmetry() == 0.0
