"""Integration tests: asynchronous DTM on the simulated machine."""

import numpy as np
import pytest

from repro.core.impedance import GeometricMeanImpedance
from repro.errors import ConfigurationError
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import grid_block_partition
from repro.plan import build_plan
from repro.sim.executor import DtmSimulator
from repro.sim.network import (
    custom_topology,
    mesh_topology,
    uniform_topology,
)
from repro.sim.processor import ComputeModel
from repro.workloads.paper import (
    example_5_1_delays,
    example_5_1_impedances,
    paper_split,
    paper_system_3_2,
)
from repro.workloads.poisson import grid2d_random


def simulator(split, topo, *, impedance=1.0, placement=None, **kwargs):
    return DtmSimulator(build_plan(split=split, topology=topo,
                                   impedance=impedance,
                                   placement=placement), **kwargs)


@pytest.fixture(scope="module")
def paper_setup():
    return (paper_split(), custom_topology(example_5_1_delays()),
            paper_system_3_2().exact_solution())


def test_example_5_1_converges(paper_setup):
    split, topo, exact = paper_setup
    res = simulator(split, topo, impedance=example_5_1_impedances()
                    ).run(t_max=200.0, tol=1e-7)
    assert res.converged
    assert np.allclose(res.x, exact, atol=1e-5)
    assert res.time_to_tol is not None
    assert res.time_to_tol < 200.0


def test_error_trace_decays(paper_setup):
    split, topo, exact = paper_setup
    res = simulator(split, topo, impedance=example_5_1_impedances()
                    ).run(t_max=100.0)
    errs = res.errors.values
    assert errs[-1] < 1e-3 * errs[0]
    assert res.errors.tail_slope() < 0.0


def test_theorem_6_1_any_impedance_any_delay(paper_setup):
    """Convergence for arbitrary Z > 0 and arbitrary positive delays."""
    split, _, exact = paper_setup
    rng = np.random.default_rng(0)
    for trial in range(3):
        delays = {(0, 1): float(rng.uniform(0.5, 20)),
                  (1, 0): float(rng.uniform(0.5, 20))}
        z = float(rng.uniform(0.05, 5.0))
        res = simulator(split, custom_topology(delays), impedance=z
                        ).run(t_max=3000.0, tol=1e-6)
        assert res.converged, f"trial {trial}: z={z}, delays={delays}"
        assert np.allclose(res.x, exact, atol=1e-4)


def test_port_probe_traces(paper_setup):
    split, topo, exact = paper_setup
    sim = simulator(split, topo, impedance=example_5_1_impedances(),
                    probe_ports=[(0, 1), (1, 1), (0, 2), (1, 2)])
    sim.run(t_max=150.0)
    # twin potentials converge to the same exact value (Fig 8)
    x2a = sim.port_probe.trace(0, 1)
    x2b = sim.port_probe.trace(1, 1)
    assert x2a.final == pytest.approx(exact[1], abs=1e-3)
    assert x2b.final == pytest.approx(exact[1], abs=1e-3)
    x3a = sim.port_probe.trace(0, 2)
    assert x3a.final == pytest.approx(exact[2], abs=1e-3)
    assert len(x2a) > 5  # event-resolution trace


def test_message_and_solve_logs(paper_setup):
    split, topo, _ = paper_setup
    sim = simulator(split, topo, impedance=example_5_1_impedances(),
                    log_messages=True)
    res = sim.run(t_max=50.0)
    log = res.message_log
    assert len(log) == res.n_messages > 0
    # traffic is strictly N2N between the two processors
    assert log.is_n2n_only({(0, 1), (1, 0)})
    # observed latencies equal the configured link delays
    for (src, dst), delays in log.delays_observed().items():
        expected = example_5_1_delays()[(src, dst)]
        assert all(abs(d - expected) < 1e-12 for d in delays)


def test_quiescence_with_send_threshold(paper_setup):
    split, topo, exact = paper_setup
    sim = simulator(split, topo, impedance=example_5_1_impedances(),
                    send_threshold=1e-10)
    res = sim.run(t_max=10_000.0)
    # traffic dies out well before the horizon once waves stabilise
    assert res.stats["quiescent"]
    assert res.t_end < 10_000.0
    assert np.allclose(res.x, exact, atol=1e-6)


def test_compute_latency_slows_but_still_converges(paper_setup):
    split, topo, exact = paper_setup
    res = simulator(split, topo, impedance=example_5_1_impedances(),
                    compute=ComputeModel(base=1.0)
                    ).run(t_max=500.0, tol=1e-6)
    assert res.converged
    assert np.allclose(res.x, exact, atol=1e-4)


def test_grid_16_processors_converges():
    g = grid2d_random(9, seed=11)
    p = grid_block_partition(9, 9, 2, 2)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    topo = mesh_topology(2, 2, delay_low=5, delay_high=50, seed=1)
    res = simulator(split, topo, impedance=GeometricMeanImpedance(2.0)
                    ).run(t_max=6000.0, tol=1e-6)
    assert res.converged
    a, b = g.to_system()
    from repro.core.convergence import relative_residual

    assert relative_residual(a, res.x, b) < 1e-4


def test_uniform_delays_match_vtm_trajectory():
    """With equal delays and lockstep start, DTM tracks VTM exactly."""
    from repro.core.vtm import VtmSolver

    split = paper_split()
    topo = uniform_topology(2, delay=1.0)
    sim = simulator(split, topo, impedance=0.5, min_solve_interval=0.0)
    res = sim.run(t_max=20.5)
    vtm = VtmSolver(build_plan(split=split, impedance=0.5, mode="vtm"))
    for _ in range(20):
        vtm.sweep()
    assert np.allclose(res.x, vtm.current_solution(), atol=1e-9)


def test_placement_validation(paper_setup):
    split, topo, _ = paper_setup
    with pytest.raises(ConfigurationError):
        simulator(split, topo, placement=[0])
    with pytest.raises(ConfigurationError):
        simulator(split, uniform_topology(1))  # too few processors


def test_placement_entries_must_name_processors():
    g = grid2d_random(8, seed=2)
    split = split_graph(g, grid_block_partition(8, 8, 2, 2),
                        strategy=DominancePreservingSplit())
    with pytest.raises(ConfigurationError, match=r"placement\[3\] = 7"):
        build_plan(split=split, topology=uniform_topology(4, delay=5.0),
                   placement=[0, 1, 2, 7])


def test_many_to_one_placement_converges():
    """Co-located subdomains talk over zero-delay DTLPs."""
    g = grid2d_random(8, seed=2)
    split = split_graph(g, grid_block_partition(8, 8, 2, 2),
                        strategy=DominancePreservingSplit())
    plan = build_plan(split=split, topology=uniform_topology(2, delay=5.0),
                      placement=[0, 0, 1, 1])
    assert min(dtlp.delay_ab for dtlp in plan.network.dtlps) == 0.0
    res = DtmSimulator(plan).run(3000.0, tol=1e-6)
    assert res.converged
    assert res.final_error <= 1e-6


def test_placement_requires_links(paper_setup):
    split, _, _ = paper_setup
    # topology with a link only one way: building DTLs needs both
    with pytest.raises(ConfigurationError):
        simulator(split, custom_topology({(0, 1): 1.0}, n_procs=2))


def test_run_parameter_validation(paper_setup):
    split, topo, _ = paper_setup
    sim = simulator(split, topo)
    with pytest.raises(ConfigurationError):
        sim.run(t_max=0.0)


def test_simulator_needs_a_dtm_plan(paper_setup):
    split, _, _ = paper_setup
    with pytest.raises(ConfigurationError):
        DtmSimulator(build_plan(split=split, mode="vtm"))


def test_result_summary_and_stats(paper_setup):
    split, topo, _ = paper_setup
    res = simulator(split, topo).run(t_max=30.0)
    assert "DTM run" in res.summary()
    assert res.stats["n_parts"] == 2
    assert res.stats["n_dtlps"] == 2
    assert res.n_events > 0
    assert res.n_solves > 0


# ----------------------------------------------------------------------
# reset, RHS swap
# ----------------------------------------------------------------------
def test_reset_reproduces_first_run_bitwise(paper_setup):
    split, topo, _ = paper_setup
    sim = simulator(split, topo, impedance=example_5_1_impedances())
    res1 = sim.run(100.0, tol=1e-6)
    sim.reset()
    res2 = sim.run(100.0, tol=1e-6)
    assert np.array_equal(res1.x, res2.x)
    assert res1.t_end == res2.t_end
    assert res1.n_solves == res2.n_solves


def test_swap_rhs_solves_the_new_system(paper_setup):
    from repro.linalg.iterative import direct_reference_solution

    split, topo, _ = paper_setup
    sim = simulator(split, topo, impedance=example_5_1_impedances())
    sim.run(200.0, tol=1e-7)
    b2 = np.linspace(1.0, -2.0, split.graph.n)
    a_mat, _ = split.graph.to_system()
    ref2 = direct_reference_solution(a_mat, b2)
    sim.swap_rhs(b2)
    res2 = sim.run(200.0, tol=1e-7, reference=ref2)
    assert res2.converged
    assert np.allclose(res2.x, ref2, atol=1e-5)


def test_swap_rhs_default_reference_tracks_new_system(paper_setup):
    """After swap_rhs, run() without reference= must converge against
    the new right-hand side (the split is re-dressed)."""
    split, topo, _ = paper_setup
    sim = simulator(split, topo, impedance=example_5_1_impedances())
    sim.run(200.0, tol=1e-7)
    b2 = np.linspace(1.0, -2.0, split.graph.n)
    sim.swap_rhs(b2)
    assert np.array_equal(sim.split.graph.sources, b2)
    res2 = sim.run(200.0, tol=1e-7)  # no explicit reference
    from repro.linalg.iterative import direct_reference_solution

    a_mat, b_vec = sim.split.graph.to_system()
    assert np.array_equal(b_vec, b2)
    assert res2.converged
    assert np.allclose(res2.x, direct_reference_solution(a_mat, b2),
                       atol=1e-5)

