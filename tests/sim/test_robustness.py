"""Robustness tests: jittered delays, compute latency, stress shapes.

Theorem 6.1 promises convergence for any positive delays; these tests
push the simulator into regimes the paper's figures do not cover —
per-message jitter (delays varying around the mapped nominal), heavy
compute latency, extreme delay ratios, and single-subdomain edges — and
assert the destination never changes.
"""

import numpy as np
import pytest

from repro.core.impedance import GeometricMeanImpedance
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import grid_block_partition
from repro.linalg.iterative import direct_reference_solution
from repro.plan import build_plan
from repro.sim.executor import DtmSimulator
from repro.sim.network import (
    ConstantDelay,
    Topology,
    custom_topology,
    mesh_topology,
)
from repro.sim.processor import ComputeModel
from repro.workloads.paper import (
    example_5_1_impedances,
    paper_split,
    paper_system_3_2,
)
from repro.workloads.poisson import grid2d_random


def simulator(split, topo, *, impedance, placement=None, **kwargs):
    return DtmSimulator(build_plan(split=split, topology=topo,
                                   impedance=impedance,
                                   placement=placement), **kwargs)


@pytest.fixture(scope="module")
def grid_setup():
    g = grid2d_random(9, seed=13)
    p = grid_block_partition(9, 9, 2, 2)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    a, b = g.to_system()
    return split, direct_reference_solution(a, b)


def test_jittered_delays_still_converge(grid_setup):
    """±30% per-message jitter around the mapped delays."""
    split, ref = grid_setup
    topo = mesh_topology(2, 2, delay_low=5, delay_high=40, seed=3,
                         jitter=0.3).seed(7)
    sim = simulator(split, topo, impedance=GeometricMeanImpedance(2.0))
    res = sim.run(t_max=8000.0, tol=1e-6, reference=ref)
    assert res.converged
    assert np.allclose(res.x, ref, atol=1e-4)


def test_jitter_changes_trajectory_not_destination(grid_setup):
    split, ref = grid_setup
    finals = []
    for seed in (1, 2):
        topo = mesh_topology(2, 2, delay_low=5, delay_high=40, seed=3,
                             jitter=0.3).seed(seed)
        sim = simulator(split, topo,
                        impedance=GeometricMeanImpedance(2.0))
        res = sim.run(t_max=6000.0, tol=1e-7, reference=ref)
        finals.append(res)
    # different message schedules...
    assert finals[0].n_solves != finals[1].n_solves \
        or finals[0].n_messages != finals[1].n_messages
    # ...same answer
    for res in finals:
        assert np.allclose(res.x, ref, atol=1e-5)


def test_heavy_compute_latency(grid_setup):
    """Solves costing a sizeable fraction of a link delay."""
    split, ref = grid_setup
    topo = mesh_topology(2, 2, delay_low=10, delay_high=50, seed=5)
    sim = simulator(split, topo, impedance=GeometricMeanImpedance(2.0),
                    compute=ComputeModel(base=2.0, per_slot=0.1))
    res = sim.run(t_max=15_000.0, tol=1e-6, reference=ref)
    assert res.converged


def test_extreme_delay_ratio():
    """One direction 1000x slower than the other (Theorem 6.1 limit)."""
    split = paper_split()
    exact = paper_system_3_2().exact_solution()
    topo = custom_topology({(0, 1): 1000.0, (1, 0): 1.0})
    sim = simulator(split, topo, impedance=example_5_1_impedances())
    res = sim.run(t_max=60_000.0, tol=1e-7)
    assert res.converged
    assert np.allclose(res.x, exact, atol=1e-5)


def test_zero_delay_links_degenerate_to_instant_exchange():
    """Zero-delay topology: messages land immediately, still correct."""
    split = paper_split()
    exact = paper_system_3_2().exact_solution()
    topo = Topology(n_procs=2, links={(0, 1): ConstantDelay(0.0),
                                      (1, 0): ConstantDelay(0.0)})
    sim = simulator(split, topo, impedance=example_5_1_impedances(),
                    min_solve_interval=0.5)
    res = sim.run(t_max=200.0, tol=1e-8)
    assert res.converged
    assert np.allclose(res.x, exact, atol=1e-6)


def test_determinism_same_seed_same_trace(grid_setup):
    """The DES is fully deterministic given identical configuration."""
    split, ref = grid_setup
    runs = []
    for _ in range(2):
        topo = mesh_topology(2, 2, delay_low=5, delay_high=40, seed=3)
        sim = simulator(split, topo,
                        impedance=GeometricMeanImpedance(2.0))
        runs.append(sim.run(t_max=2000.0, reference=ref))
    assert runs[0].n_solves == runs[1].n_solves
    assert runs[0].n_messages == runs[1].n_messages
    assert np.array_equal(runs[0].errors.values, runs[1].errors.values)
    assert np.array_equal(runs[0].x, runs[1].x)


def test_send_threshold_accuracy_tradeoff(grid_setup):
    """Coarser send thresholds stop earlier at lower accuracy."""
    split, ref = grid_setup
    topo = mesh_topology(2, 2, delay_low=5, delay_high=40, seed=3)
    fine = simulator(split, topo, impedance=GeometricMeanImpedance(2.0),
                     send_threshold=1e-10).run(t_max=30_000.0,
                                               reference=ref)
    coarse = simulator(split, topo,
                       impedance=GeometricMeanImpedance(2.0),
                       send_threshold=1e-4).run(t_max=30_000.0,
                                                reference=ref)
    assert coarse.n_messages < fine.n_messages
    assert fine.final_error < coarse.final_error


def test_unbalanced_placement_on_larger_machine(grid_setup):
    """4 subdomains placed on chosen processors of an 8-proc machine."""
    split, ref = grid_setup
    topo = mesh_topology(2, 4, delay_low=5, delay_high=30, seed=9)
    placement = [0, 1, 4, 5]  # a 2x2 corner of the 2x4 mesh
    sim = simulator(split, topo, impedance=GeometricMeanImpedance(2.0),
                    placement=placement)
    res = sim.run(t_max=8000.0, tol=1e-6, reference=ref)
    assert res.converged
