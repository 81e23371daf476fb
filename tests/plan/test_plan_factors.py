"""A plan's SuperLU locals through caching and sessions.

Forked sessions of one plan share its factors and are
bitwise-identical, the cached reference agrees with a dense solve to
1e-10, and a reference-free solve never densifies a subdomain system.
"""

import numpy as np
import pytest

from repro.api import ResidualRule
from repro.core.convergence import relative_residual
from repro.linalg.sparse import forbid_densify
from repro.linalg.sparse_cholesky import SparseSpdFactor
from repro.plan.cache import PlanCache
from repro.plan.plan import build_plan, get_plan
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
def test_identical_inputs_hit_the_cache():
    g = grid2d_poisson(10)
    cache = PlanCache()
    p1 = get_plan(g, cache=cache, n_subdomains=4)
    hit1 = p1.from_cache  # read before the next fetch mutates the flag
    p2 = get_plan(g, cache=cache, n_subdomains=4)
    assert not hit1
    assert p2.from_cache
    assert p2.base_locals is p1.base_locals  # the same built plan


def test_reference_matches_dense_solve(workload):
    # the plan's cached SuperLU reference against a scipy.linalg dense
    # solve of the same system
    import scipy.linalg

    plan = build_plan(workload, n_subdomains=4)
    a, b = workload.to_system()
    x = plan.reference(b)
    dense = scipy.linalg.solve(a.to_dense(), b, assume_a="pos")
    scale = max(float(np.max(np.abs(dense))), 1.0)
    assert float(np.max(np.abs(x - dense))) / scale <= 1e-10


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------
def test_forked_sessions_bitwise_identical(workload):
    plan = build_plan(workload, n_subdomains=4)
    r1 = plan.session().solve(t_max=120_000, tol=1e-8)
    r2 = plan.session().solve(t_max=120_000, tol=1e-8)
    assert r1.converged and r2.converged
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations
    # the sessions really shared the factors (fork contract)
    for loc in plan.base_locals:
        assert loc.fork().factor is loc.factor


def test_plan_never_densifies_through_scipy(workload, monkeypatch):
    # planning calls scipy on CsrMatrix.to_scipy(); forbid_densify
    # guards only the record, so scipy's own densifiers refuse here too
    import scipy.sparse as sp

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} densified")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    with forbid_densify("plan build and reference-free solve"):
        plan = build_plan(workload, n_subdomains=4)
        res = plan.session().solve(
            t_max=120_000, tol=None, stopping=ResidualRule(tol=1e-8)
        )
    assert res.converged


def test_reference_free_solve_never_densifies(workload):
    plan = build_plan(workload, n_subdomains=4)
    for loc in plan.base_locals:
        assert isinstance(loc.factor, SparseSpdFactor)
    with forbid_densify("reference-free solve"):
        res = plan.session().solve(
            t_max=120_000, tol=None, stopping=ResidualRule(tol=1e-8)
        )
    assert res.converged
    assert not plan.reference_materialized
    a, _ = workload.to_system()
    assert relative_residual(a, res.x, workload.sources) <= 1e-6
