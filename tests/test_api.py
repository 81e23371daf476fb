"""Tests for the high-level one-call API."""

import numpy as np
import pytest

from repro import ConfigurationError, solve_dtm, solve_vtm_system
from repro.api import prepare_split
from repro.sim import custom_topology
from repro.workloads import grid2d_random, paper_system_3_2


def test_solve_dtm_on_paper_system():
    system = paper_system_3_2()
    res = solve_dtm(system.matrix, system.rhs, n_subdomains=2,
                    topology=custom_topology({(0, 1): 6.7, (1, 0): 2.9}),
                    impedance=0.15, t_max=1000.0, tol=1e-8, seed=0)
    assert res.converged
    assert np.allclose(res.x, system.exact_solution(), atol=1e-6)
    assert res.relative_residual < 1e-6
    assert res.split is not None and res.errors is not None


def test_solve_dtm_dense_input_default_topology():
    system = paper_system_3_2()
    res = solve_dtm(system.matrix.to_dense(), system.rhs, n_subdomains=2,
                    t_max=4000.0, tol=1e-6, seed=1)
    assert res.converged


def test_solve_dtm_electric_graph_input():
    g = grid2d_random(7, seed=2)
    res = solve_dtm(g, n_subdomains=4, t_max=6000.0, tol=1e-5, seed=2)
    assert res.rms_error < 1e-4


def test_solve_dtm_grid_shape_regular_partition():
    g = grid2d_random(9, seed=3)
    res = solve_dtm(g, n_subdomains=4, grid_shape=(9, 9),
                    t_max=6000.0, tol=1e-5, seed=3)
    assert res.converged


def test_solve_dtm_requires_rhs_for_matrix_input():
    with pytest.raises(ConfigurationError):
        solve_dtm(np.eye(4))


def test_prepare_split_nonsquare_subdomains_needs_parts_shape():
    g = grid2d_random(6, seed=0)
    with pytest.raises(ConfigurationError):
        prepare_split(g, g.sources, 6, grid_shape=(6, 6))
    split = prepare_split(g, g.sources, 6, grid_shape=(6, 6),
                          parts_shape=(2, 3))
    assert split.n_parts == 6


def test_solve_vtm_system():
    system = paper_system_3_2()
    res = solve_vtm_system(system.matrix, system.rhs, n_subdomains=2,
                           impedance=0.2, tol=1e-9)
    assert res.converged
    assert np.allclose(res.x, system.exact_solution(), atol=1e-7)
    assert res.errors is not None and len(res.errors) > 1


def test_lazy_attribute_error():
    import repro

    with pytest.raises(AttributeError):
        repro.no_such_function


def test_removed_engines_and_knob_stay_removed():
    """The per-kernel path and the asyncio runner left ``src/``.

    ``use_fleet`` is no longer a parameter anywhere (the fleet is the
    only execution path), and the deleted public names do not resolve.
    """
    import repro.core
    import repro.runtime

    g = grid2d_random(6, seed=0)
    with pytest.raises(TypeError, match="use_fleet"):
        solve_dtm(g, use_fleet=False, t_max=100.0, tol=None)
    with pytest.raises(ConfigurationError, match="use_fleet"):
        solve_dtm(g, use_fleet=True, backend="multiproc")
    for pkg, name in [(repro.core, "DtmKernel"),
                      (repro.core, "build_kernels"),
                      (repro.runtime, "AsyncioDtmRunner")]:
        with pytest.raises(AttributeError):
            getattr(pkg, name)


def test_removed_factorization_knobs_stay_removed():
    """SuperLU is the one factorization and its only ordering.

    ``sparse_ordering``, ``numerics`` and ``build_workers`` (the build's
    process pool) fail like any unknown keyword,
    the engine and ordering arguments of the factor function are gone,
    and so are the dense factorization kernels and the pure-python
    ordering helpers.
    """
    import repro.core.local
    import repro.linalg
    from repro.linalg import factor_sparse_spd
    from repro.plan import build_plan

    g = grid2d_random(6, seed=0)
    for knob, value in (("sparse_ordering", "amd"), ("numerics", "dense"),
                        ("build_workers", 2)):
        with pytest.raises(TypeError, match=knob):
            solve_dtm(g, t_max=100.0, tol=None, **{knob: value})
        with pytest.raises(TypeError, match=knob):
            build_plan(g, **{knob: value})
    a = np.eye(3)
    with pytest.raises(TypeError, match="backend"):
        factor_sparse_spd(a, backend="python")
    with pytest.raises(TypeError, match="ordering"):
        factor_sparse_spd(a, ordering="amd")
    assert not hasattr(factor_sparse_spd(a), "engine")
    for name in ("minimum_degree", "reverse_cuthill_mckee", "bandwidth",
                 "factor_spd", "factor_symmetric", "SpdFactor",
                 "cholesky_factor", "ldlt_factor"):
        with pytest.raises(AttributeError):
            getattr(repro.linalg, name)
    assert not hasattr(repro.core.local, "resolve_numerics")


def test_split_built_engines_stay_removed():
    """A plan is the only way into an in-process engine.

    The split/topology/impedance constructors of the simulator, the VTM
    solver and the clustered hybrid fail like any surplus argument, and
    the one-shot wrappers over them do not resolve.
    """
    import repro.core
    import repro.sim
    from repro.core.hybrid import ClusteredDtmSimulator
    from repro.core.vtm import VtmSolver
    from repro.sim import DtmSimulator

    split = prepare_split(grid2d_random(6, seed=0), None, 4)
    topo = custom_topology({(p, q): 5.0 for p in range(4) for q in range(4)
                            if p != q})
    with pytest.raises(TypeError):
        DtmSimulator(split, topo)
    with pytest.raises(TypeError):
        VtmSolver(split, 1.0)
    with pytest.raises(TypeError):
        ClusteredDtmSimulator(split, topo, [[0, 1], [2, 3]])
    for pkg, name in [(repro.sim, "solve_dtm_simulated"),
                      (repro.core, "solve_vtm")]:
        with pytest.raises(AttributeError):
            getattr(pkg, name)


# ----------------------------------------------------------------------
# plan pipeline: rhs override, cache reuse, seed-path equivalence
# ----------------------------------------------------------------------
def test_solve_dtm_electric_graph_with_explicit_rhs():
    """An explicit b must override the graph's sources (it used to be
    silently ignored on the ElectricGraph path)."""
    from repro.linalg.iterative import direct_reference_solution

    g = grid2d_random(7, seed=2)
    b2 = np.linspace(-1.0, 1.0, g.n)
    res = solve_dtm(g, b2, n_subdomains=4, t_max=6000.0, tol=1e-5, seed=2)
    a_mat, _ = g.to_system()
    ref = direct_reference_solution(a_mat, b2)
    assert res.converged
    assert np.allclose(res.x, ref, atol=1e-4)
    # and it must differ from the baked-sources solve
    res0 = solve_dtm(g, n_subdomains=4, t_max=6000.0, tol=1e-5, seed=2)
    assert not np.array_equal(res.x, res0.x)


def test_solve_dtm_plan_cache_reuse_is_bitwise_transparent():
    g = grid2d_random(7, seed=6)
    kw = dict(n_subdomains=4, t_max=4000.0, tol=1e-5, seed=6)
    r1 = solve_dtm(g, **kw)
    r2 = solve_dtm(g, **kw)
    assert r2.plan_reused
    assert r2.plan_solves > r1.plan_solves
    assert np.array_equal(r1.x, r2.x)
    assert r1.rms_error == r2.rms_error


def test_vtm_plan_cache_reuse():
    system = paper_system_3_2()
    kw = dict(n_subdomains=2, impedance=0.2, tol=1e-9)
    r1 = solve_vtm_system(system.matrix, system.rhs, **kw)
    r2 = solve_vtm_system(system.matrix, system.rhs, **kw)
    assert r2.plan_reused and np.array_equal(r1.x, r2.x)


class TestSeedPathEquivalence:
    """The one-call API must reproduce the engines it wraps on the same
    plan field for field, bitwise: ``solve_dtm`` the per-subdomain,
    per-message oracle, ``solve_vtm_system`` a bare ``VtmSolver``."""

    def test_per_kernel_path(self):
        from per_kernel import PerKernelSimulator

        from repro.core.convergence import relative_residual, rms_error
        from repro.linalg.iterative import direct_reference_solution
        from repro.plan import build_plan

        g = grid2d_random(7, seed=9)
        new = solve_dtm(g, n_subdomains=4, t_max=2000.0, tol=1e-5, seed=9,
                        use_cache=False)
        plan = build_plan(g, n_subdomains=4, seed=9)
        old = PerKernelSimulator(plan).run(2000.0, tol=1e-5)
        ref = direct_reference_solution(plan.a_mat, plan.base_b)
        assert np.array_equal(new.x, old.x)
        assert new.rms_error == rms_error(old.x, ref)
        assert new.relative_residual == relative_residual(
            plan.a_mat, old.x, plan.base_b)
        assert new.converged == old.converged
        assert new.iterations == old.n_solves
        assert new.sim_time == old.t_end
        assert np.array_equal(np.asarray(new.errors.values),
                              np.asarray(old.errors.values))

    def test_vtm_system(self):
        from repro.core.convergence import relative_residual, rms_error
        from repro.core.vtm import VtmSolver
        from repro.linalg.iterative import direct_reference_solution
        from repro.plan import build_plan

        system = paper_system_3_2()
        plan = build_plan(system.matrix, system.rhs, mode="vtm",
                          n_subdomains=2, impedance=0.2)
        old = VtmSolver(plan).run(tol=1e-9, max_iterations=10_000)
        ref = direct_reference_solution(plan.a_mat, plan.base_b)
        new = solve_vtm_system(system.matrix, system.rhs, n_subdomains=2,
                               impedance=0.2, tol=1e-9, use_cache=False)
        assert np.array_equal(new.x, old.x)
        assert new.iterations == old.iterations
        assert new.converged == old.converged
        assert new.rms_error == rms_error(old.x, ref)
        assert new.relative_residual == relative_residual(
            plan.a_mat, old.x, plan.base_b)
        assert np.array_equal(new.errors.values, old.errors.values)
        assert np.array_equal(new.errors.times, old.errors.times)


def test_plan_argument_conflicts_are_rejected():
    from repro.plan import get_plan

    g = grid2d_random(6, seed=0)
    plan = get_plan(g, n_subdomains=4, seed=0)
    with pytest.raises(ConfigurationError):
        solve_dtm(g, plan=plan, impedance=2.0)
    with pytest.raises(ConfigurationError):
        solve_dtm(g, plan=plan, n_subdomains=8)
    with pytest.raises(ConfigurationError):
        solve_dtm(g, plan=plan, placement=[0, 1, 2, 3])
    # matching/default arguments are fine
    res = solve_dtm(g, plan=plan, t_max=500.0, tol=None)
    assert res.plan_solves >= 1


def test_solve_result_split_reports_the_solved_rhs():
    g = grid2d_random(6, seed=8)
    b2 = np.linspace(0.0, 1.0, g.n)
    r1 = solve_dtm(g, n_subdomains=4, t_max=500.0, tol=None, seed=8)
    r2 = solve_dtm(g, b2, n_subdomains=4, t_max=500.0, tol=None, seed=8)
    assert r2.plan_reused  # same plan served both
    assert np.array_equal(r1.split.graph.sources, g.sources)
    assert np.array_equal(r2.split.graph.sources, b2)
    # the re-dressed split shares the structural pieces
    assert r2.split.partition is r1.split.partition
    assert r2.split.subdomains[0].matrix is r1.split.subdomains[0].matrix
    assert np.array_equal(r2.split.spread_sources(b2)[0],
                          r2.split.subdomains[0].rhs)


def test_plan_rejects_mismatched_matrix():
    from repro.plan import get_plan

    g = grid2d_random(6, seed=0)
    other = grid2d_random(6, seed=1)
    plan = get_plan(g, n_subdomains=4, seed=0)
    with pytest.raises(ConfigurationError):
        solve_dtm(other, plan=plan, t_max=500.0, tol=None)
    # wrong size gets a clear error too (matrix input path)
    with pytest.raises(ConfigurationError):
        solve_dtm(np.eye(5), np.ones(5), plan=plan, t_max=500.0, tol=None)
    # explicitly passing default values alongside plan= is fine
    res = solve_dtm(g, plan=plan, n_subdomains=4, seed=0,
                    placement=None, t_max=500.0, tol=None)
    assert res.plan_solves >= 1
