"""Tests for the synchronous VTM solver and the wave operator."""

import numpy as np
import pytest

from repro.core.vtm import VtmSolver
from repro.errors import ConvergenceError, ValidationError
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import grid_block_partition
from repro.plan import build_plan
from repro.workloads.paper import (
    example_5_1_impedances,
    paper_split,
    paper_system_3_2,
)
from repro.workloads.poisson import grid2d_poisson, grid2d_random


def vtm(split, impedance) -> VtmSolver:
    return VtmSolver(build_plan(split=split, impedance=impedance,
                                mode="vtm"))


@pytest.fixture(scope="module")
def paper():
    return paper_split(), paper_system_3_2().exact_solution()


def test_vtm_converges_on_paper_system(paper):
    split, exact = paper
    res = vtm(split, example_5_1_impedances()).run(tol=1e-10)
    assert res.converged
    assert np.allclose(res.x, exact, atol=1e-8)
    assert res.iterations < 200


def test_vtm_error_history_monotone_tail(paper):
    split, _ = paper
    res = vtm(split, example_5_1_impedances()).run(tol=1e-12,
                                                   max_iterations=300)
    h = res.errors.values
    assert h[-1] < h[0]
    # geometric decay in the tail
    assert h[-1] < 1e-6 * h[5]


def test_vtm_any_positive_impedance_converges(paper):
    """Theorem 6.1: arbitrary positive impedances converge."""
    split, exact = paper
    for z in (0.01, 0.1, 1.0, 10.0, 100.0):
        res = vtm(split, z).run(tol=1e-8, max_iterations=20000)
        assert res.converged, f"z={z} failed"
        assert np.allclose(res.x, exact, atol=1e-6)


def test_vtm_spectral_radius_below_one(paper):
    split, _ = paper
    for z in (0.05, 0.5, 5.0):
        rho = vtm(split, z).spectral_radius()
        assert 0.0 < rho < 1.0


def test_wave_operator_predicts_convergence_rate(paper):
    """Iteration error contraction ≈ ρ(S) asymptotically."""
    split, _ = paper
    solver = vtm(split, example_5_1_impedances())
    rho = solver.spectral_radius()
    res = solver.run(tol=1e-13, max_iterations=400)
    h = res.errors.values
    tail = h[len(h) // 2:]
    ratios = tail[1:] / tail[:-1]
    ratios = ratios[np.isfinite(ratios) & (ratios > 0)]
    observed = float(np.median(ratios))
    assert observed == pytest.approx(rho, abs=0.12)


def test_wave_operator_affine_consistency(paper):
    split, _ = paper
    solver = vtm(split, 0.5)
    S, c = solver.wave_operator()
    rng = np.random.default_rng(0)
    w = rng.standard_normal(solver.n_waves)
    assert np.allclose(solver.wave_map(w), S @ w + c, atol=1e-10)


def test_wave_map_preserves_state(paper):
    split, _ = paper
    solver = vtm(split, 0.5)
    solver.sweep()
    before = solver.get_waves()
    solver.wave_map(np.ones(solver.n_waves))
    assert np.array_equal(solver.get_waves(), before)


def test_set_waves_validation(paper):
    split, _ = paper
    solver = vtm(split, 1.0)
    with pytest.raises(ValidationError):
        solver.set_waves(np.zeros(solver.n_waves + 1))


def test_vtm_on_grid_16_subdomains():
    g = grid2d_random(17, seed=1)
    p = grid_block_partition(17, 17, 4, 4)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    res = vtm(split, 1.0).run(tol=1e-8, max_iterations=2000)
    assert res.converged
    a, b = g.to_system()
    from repro.core.convergence import relative_residual

    assert relative_residual(a, res.x, b) < 1e-6


def test_vtm_fixed_point_is_wave_operator_fixed_point(paper):
    split, _ = paper
    solver = vtm(split, 1.0)
    S, c = solver.wave_operator()
    w_star = np.linalg.solve(np.eye(solver.n_waves) - S, c)
    solver.set_waves(w_star)
    solver.sweep()
    assert np.allclose(solver.get_waves(), w_star, atol=1e-9)
    exact = paper_system_3_2().exact_solution()
    assert np.allclose(solver.current_solution(), exact, atol=1e-9)


def test_vtm_raise_on_fail(paper):
    split, _ = paper
    solver = vtm(split, 100.0)  # very slow contraction
    with pytest.raises(ConvergenceError):
        solver.run(tol=1e-12, max_iterations=3, raise_on_fail=True)


def test_single_part_converges_in_one_sweep():
    g = grid2d_poisson(4)
    from repro.graph.partition import Partition

    p = Partition(labels=np.zeros(16, dtype=int),
                  separator=np.zeros(16, dtype=bool), n_parts=1)
    split = split_graph(g, p)
    res = vtm(split, 1.0).run(tol=1e-10, max_iterations=5)
    assert res.converged
    assert res.iterations <= 1
