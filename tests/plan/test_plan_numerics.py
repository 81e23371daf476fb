"""The ``numerics`` knob through plans, caching, sessions and solves.

Covers the plan-layer acceptance criteria of the sparse-planning PR:
``numerics`` is plan-cache key material (distinct
``plan_hash``), ``build_workers`` deliberately is not (a pooled build
is bitwise-identical to a serial one), sparse plans agree with dense
to 1e-10 end-to-end on Poisson and circuit workloads, forked sessions
of one plan are bitwise-identical, and a reference-free sparse solve
never densifies a subdomain system.
"""

import numpy as np
import pytest

from repro.api import ResidualRule, solve_dtm
from repro.core.convergence import relative_residual
from repro.linalg.sparse import forbid_densify
from repro.linalg.sparse_cholesky import SparseSpdFactor
from repro.plan.cache import PlanCache
from repro.plan.plan import build_plan, get_plan, plan_key
from repro.runtime.server import plan_hash
from repro.workloads.circuits import clustered_circuit, resistor_grid
from repro.workloads.poisson import grid2d_poisson

WORKLOADS = {
    "poisson": lambda: grid2d_poisson(12),
    "circuit": lambda: resistor_grid(10, 10, seed=3),
    "clustered": lambda: clustered_circuit(4, 30, seed=5),
}


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]()


# ----------------------------------------------------------------------
# key material
# ----------------------------------------------------------------------
def test_numerics_is_key_material():
    g = grid2d_poisson(10)
    base = dict(mode="dtm", n_subdomains=4, seed=0, grid_shape=(10, 10),
                parts_shape=None, topology=None, impedance=1.0,
                placement=None, allow_indefinite=False)
    keys = {plan_key(g, numerics=n, **base)
            for n in ("auto", "dense", "sparse")}
    assert len(keys) == 3  # every setting is a distinct plan
    assert plan_key(g, numerics="sparse", **base)[-1] == (
        "numerics", "sparse")


def test_plan_hash_distinguishes_numerics():
    g = grid2d_poisson(10)
    dense = build_plan(g, n_subdomains=4, numerics="dense")
    sparse = build_plan(g, n_subdomains=4, numerics="sparse")
    assert plan_hash(dense) != plan_hash(sparse)


def test_identical_inputs_hit_the_cache():
    g = grid2d_poisson(10)
    cache = PlanCache()
    p1 = get_plan(g, cache=cache, n_subdomains=4, numerics="sparse")
    hit1 = p1.from_cache  # read before the next fetch mutates the flag
    p2 = get_plan(g, cache=cache, n_subdomains=4, numerics="sparse")
    assert not hit1
    assert p2.from_cache
    assert p2.base_locals is p1.base_locals  # the same built plan
    # a different knob value misses
    p3 = get_plan(g, cache=cache, n_subdomains=4, numerics="dense")
    assert not p3.from_cache


def test_build_workers_is_not_key_material():
    # the pooled build is bitwise-identical to the serial build, so the
    # worker count must NOT fragment the cache
    g = grid2d_poisson(10)
    cache = PlanCache()
    p1 = get_plan(g, cache=cache, n_subdomains=4, numerics="sparse",
                  build_workers=None)
    p2 = get_plan(g, cache=cache, n_subdomains=4, numerics="sparse",
                  build_workers=2)
    assert p2.from_cache
    assert p2.base_locals is p1.base_locals


def test_pooled_plan_bitwise_identical_to_serial():
    g = grid2d_poisson(12)
    serial = build_plan(g, n_subdomains=4, numerics="sparse")
    pooled = build_plan(g, n_subdomains=4, numerics="sparse",
                        build_workers=2)
    for ls, lp in zip(serial.base_locals, pooled.base_locals):
        assert np.array_equal(ls.x0, lp.x0)
        assert np.array_equal(ls.X, lp.X)


# ----------------------------------------------------------------------
# end-to-end equivalence
# ----------------------------------------------------------------------
def test_sparse_solution_matches_dense(workload):
    dense = solve_dtm(workload, n_subdomains=4, use_cache=False,
                      t_max=120_000, numerics="dense")
    sparse = solve_dtm(workload, n_subdomains=4, use_cache=False,
                       t_max=120_000, numerics="sparse")
    assert dense.converged and sparse.converged
    scale = max(float(np.max(np.abs(dense.x))), 1.0)
    assert float(np.max(np.abs(dense.x - sparse.x))) / scale <= 1e-10


def test_dense_knob_is_bitwise_the_default_path():
    g = grid2d_poisson(12)
    legacy = solve_dtm(g, n_subdomains=4, use_cache=False)
    explicit = solve_dtm(g, n_subdomains=4, use_cache=False,
                         numerics="dense")
    assert np.array_equal(legacy.x, explicit.x)
    assert legacy.iterations == explicit.iterations


def test_forked_sessions_bitwise_identical():
    g = grid2d_poisson(12)
    plan = build_plan(g, n_subdomains=4, numerics="sparse")
    r1 = plan.session().solve(t_max=120_000, tol=1e-8)
    r2 = plan.session().solve(t_max=120_000, tol=1e-8)
    assert r1.converged and r2.converged
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations
    # the sessions really shared the factors (fork contract)
    for loc in plan.base_locals:
        assert loc.fork().factor is loc.factor


def test_sparse_plan_never_densifies_through_scipy(workload, monkeypatch):
    # planning calls scipy on CsrMatrix.to_scipy(); forbid_densify
    # guards only the record, so scipy's own densifiers refuse here too
    import scipy.sparse as sp

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} densified")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    with forbid_densify("sparse plan build and reference-free solve"):
        plan = build_plan(workload, n_subdomains=4, numerics="sparse")
        res = plan.session().solve(t_max=120_000, tol=None,
                                   stopping=ResidualRule(tol=1e-8))
    assert res.converged


def test_sparse_reference_free_solve_never_densifies(workload):
    plan = build_plan(workload, n_subdomains=4, numerics="sparse")
    for loc in plan.base_locals:
        assert isinstance(loc.factor, SparseSpdFactor)
    with forbid_densify("reference-free sparse solve"):
        res = plan.session().solve(t_max=120_000, tol=None,
                                   stopping=ResidualRule(tol=1e-8))
    assert res.converged
    assert not plan.reference_materialized
    a, _ = workload.to_system()
    assert relative_residual(a, res.x, workload.sources) <= 1e-6
