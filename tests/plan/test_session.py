"""Session correctness: multi-RHS batching, warm starts, reuse counters.

The load-bearing property is the ISSUE-2 acceptance criterion:
``solve_many`` results are **bitwise-identical** to sequential
``solve`` calls (batched RHS preparation must be transparent), and
every column's solution matches ``direct_reference_solution`` across
the poisson, circuits and random_spd workload families.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.linalg.iterative import direct_reference_solution
from repro.plan import build_plan
from repro.workloads.circuits import resistor_grid
from repro.workloads.poisson import grid2d_random
from repro.workloads.random_spd import random_connected_spd_graph

WORKLOADS = {
    "poisson": lambda: grid2d_random(7, seed=4),
    "circuits": lambda: resistor_grid(6, 6, seed=2),
    "random_spd": lambda: random_connected_spd_graph(36, seed=3),
}


def _rhs_block(graph, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((graph.n, k))


def _results_bitwise_equal(r1, r2) -> bool:
    return (np.array_equal(r1.x, r2.x)
            and r1.rms_error == r2.rms_error
            and r1.relative_residual == r2.relative_residual
            and r1.converged == r2.converged
            and r1.iterations == r2.iterations
            and r1.sim_time == r2.sim_time
            and np.array_equal(r1.errors.values, r2.errors.values))


# ----------------------------------------------------------------------
# solve_many ≡ looped solve, and every column vs the direct reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_vtm_solve_many_bitwise_and_reference(workload):
    g = WORKLOADS[workload]()
    plan = build_plan(g, mode="vtm", n_subdomains=4, seed=0,
                      impedance=0.8)
    B = _rhs_block(g, k=3, seed=7)
    many = plan.session().solve_many(B, tol=1e-9, max_iterations=4000)
    loop_session = plan.session()
    loop = [loop_session.solve(B[:, k], tol=1e-9, max_iterations=4000)
            for k in range(B.shape[1])]
    a_mat, _ = g.to_system()
    for k, (m, l) in enumerate(zip(many, loop)):
        assert _results_bitwise_equal(m, l), f"column {k} diverged"
        ref = direct_reference_solution(a_mat, B[:, k])
        assert np.allclose(m.x, ref, atol=1e-6)


def test_dtm_solve_many_bitwise_and_reference():
    g = WORKLOADS["poisson"]()
    plan = build_plan(g, n_subdomains=4, seed=0)
    B = _rhs_block(g, k=2, seed=11)
    kw = dict(t_max=4000.0, tol=1e-6)
    many = plan.session().solve_many(B, **kw)
    loop_session = plan.session()
    loop = [loop_session.solve(B[:, k], **kw) for k in range(B.shape[1])]
    a_mat, _ = g.to_system()
    for k, (m, l) in enumerate(zip(many, loop)):
        assert _results_bitwise_equal(m, l), f"column {k} diverged"
        ref = direct_reference_solution(a_mat, B[:, k])
        assert np.allclose(m.x, ref, atol=1e-4)


def test_dtm_session_matches_full_replan_bitwise():
    """A swapped-RHS session solve equals a from-scratch plan's solve."""
    from repro.graph.electric import ElectricGraph

    g = WORKLOADS["circuits"]()
    plan = build_plan(g, n_subdomains=4, seed=0)
    b2 = np.linspace(-0.5, 1.5, g.n)
    res = plan.session().solve(b2, t_max=3000.0, tol=1e-6)

    g2 = ElectricGraph(g.vertex_weights, b2, g.edge_u, g.edge_v,
                       g.edge_weights)
    plan2 = build_plan(g2, n_subdomains=4, seed=0)
    res2 = plan2.session().solve(t_max=3000.0, tol=1e-6)
    assert _results_bitwise_equal(res, res2)


def test_session_matches_per_kernel_oracle():
    from per_kernel import PerKernelSimulator

    g = WORKLOADS["poisson"]()
    plan = build_plan(g, n_subdomains=4, seed=0)
    b2 = np.sin(np.arange(g.n, dtype=np.float64))
    kw = dict(t_max=2000.0, tol=1e-5)
    res = plan.session().solve(b2, **kw)
    oracle = PerKernelSimulator(plan=plan)
    oracle.swap_rhs(b2)
    ref = oracle.run(reference=plan.reference(b2), **kw)
    assert np.array_equal(res.x, ref.x)
    assert res.sim_time == ref.t_end
    assert res.iterations == ref.n_solves


# ----------------------------------------------------------------------
# warm starts
# ----------------------------------------------------------------------
def test_warm_start_correct_and_flagged():
    g = WORKLOADS["poisson"]()
    plan = build_plan(g, n_subdomains=4, seed=0)
    session = plan.session()
    rng = np.random.default_rng(5)
    b1 = rng.standard_normal(g.n)
    r1 = session.solve(b1, t_max=5000.0, tol=1e-6)
    assert not r1.warm_started  # first solve is always cold
    b2 = b1 + 1e-3 * rng.standard_normal(g.n)
    r2 = session.solve(b2, t_max=5000.0, tol=1e-6, warm_start=True)
    assert r2.warm_started and r2.converged
    a_mat, _ = g.to_system()
    assert np.allclose(r2.x, direct_reference_solution(a_mat, b2),
                       atol=1e-4)
    # a nearby warm start must not be slower than solving cold
    r2_cold = plan.session().solve(b2, t_max=5000.0, tol=1e-6)
    assert r2.sim_time <= r2_cold.sim_time


def test_vtm_warm_start_fewer_iterations():
    g = WORKLOADS["random_spd"]()
    plan = build_plan(g, mode="vtm", n_subdomains=4, seed=0,
                      impedance=0.8)
    session = plan.session()
    rng = np.random.default_rng(9)
    b1 = rng.standard_normal(g.n)
    r1 = session.solve(b1, tol=1e-9)
    b2 = b1 + 1e-4 * rng.standard_normal(g.n)
    r_warm = session.solve(b2, tol=1e-9, warm_start=True)
    r_cold = plan.session().solve(b2, tol=1e-9)
    assert r_warm.converged
    assert r_warm.iterations < r_cold.iterations
    assert r1.converged and r_cold.converged


# ----------------------------------------------------------------------
# reuse counters and session hygiene
# ----------------------------------------------------------------------
def test_reuse_counters_increment():
    g = WORKLOADS["poisson"]()
    plan = build_plan(g, n_subdomains=4, seed=0)
    session = plan.session()
    r1 = session.solve(t_max=500.0, tol=None)
    assert not r1.plan_reused and r1.plan_solves == 1
    r2 = session.solve(t_max=500.0, tol=None)
    assert r2.plan_reused and r2.plan_solves == 2
    other = plan.session()
    r3 = other.solve(t_max=500.0, tol=None)
    assert r3.plan_reused and r3.plan_solves == 3
    assert plan.n_sessions == 2


def test_session_mode_mismatch_raises():
    g = WORKLOADS["poisson"]()
    dtm_plan = build_plan(g, n_subdomains=4, seed=0)
    vtm_plan = build_plan(g, mode="vtm", n_subdomains=4, seed=0)
    from repro.plan import SolverSession, VtmSession

    with pytest.raises(ConfigurationError):
        SolverSession(vtm_plan)
    with pytest.raises(ConfigurationError):
        VtmSession(dtm_plan)


def test_concurrent_sessions_do_not_interfere():
    """Two sessions on one plan with different RHS stay bitwise-independent."""
    g = WORKLOADS["circuits"]()
    plan = build_plan(g, mode="vtm", n_subdomains=4, seed=0,
                      impedance=0.8)
    rng = np.random.default_rng(1)
    b1 = rng.standard_normal(g.n)
    b2 = rng.standard_normal(g.n)
    s1, s2 = plan.session(), plan.session()
    r1a = s1.solve(b1, tol=1e-9)
    r2 = s2.solve(b2, tol=1e-9)
    r1b = plan.session().solve(b1, tol=1e-9)
    assert np.array_equal(r1a.x, r1b.x)
    assert not np.array_equal(r1a.x, r2.x)
