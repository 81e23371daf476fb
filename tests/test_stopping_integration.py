"""Reference-free stopping rules across every execution layer.

The production contract (ISSUE 3): ``ResidualRule`` / ``QuiescenceRule``
terminate close to where the oracle ``ReferenceRule`` would, on both the
Poisson and circuit workloads, across ``DtmSimulator`` (via sessions),
``VtmSolver`` and ``MultiprocDtmRunner`` — and plans whose solves are
reference-free NEVER
compute a direct reference solution (no dense factor of the global
system, no CG oracle solve).
"""

import numpy as np
import pytest

import repro.linalg.iterative as iterative_mod
import repro.plan.plan as plan_mod
from repro.api import (
    AnyOf,
    HorizonRule,
    QuiescenceRule,
    ReferenceRule,
    ResidualRule,
    solve_dtm,
    solve_vtm_system,
)
from repro.core.convergence import relative_residual
from repro.core.vtm import VtmSolver
from repro.plan.plan import build_plan
from repro.runtime.multiproc import MultiprocDtmRunner
from repro.workloads.circuits import resistor_grid
from repro.workloads.poisson import grid2d_poisson

#: reference-free rules must stop within this factor of the oracle's
#: iteration count (measured ratios are 0.9x–1.4x; see ISSUE 3)
SLACK = 2.5

WORKLOADS = {
    "poisson": lambda: grid2d_poisson(12),
    "circuit": lambda: resistor_grid(10, 10, seed=3),
}


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]()


@pytest.fixture
def forbid_reference(monkeypatch):
    """Make any attempt to compute a reference solution blow up."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError(
            "direct reference solution computed on a reference-free path")

    # no layer may call the one-shot reference ...
    monkeypatch.setattr(iterative_mod, "direct_reference_solution", boom)
    # ... nor build the plan's lazy SuperLU factor of the global system,
    # which every engine built from a plan takes its reference from
    monkeypatch.setattr(plan_mod, "factor_sparse_spd", boom)


def _within_slack(free_iters: int, oracle_iters: int) -> bool:
    return free_iters <= SLACK * oracle_iters + 50


# ----------------------------------------------------------------------
# DtmSimulator (plan/session path)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_factory", [
    lambda: ResidualRule(tol=1e-8),
    lambda: QuiescenceRule(threshold=1e-10),
], ids=["residual", "quiescence"])
def test_dtm_rules_terminate_within_oracle_budget(workload, rule_factory):
    plan = build_plan(workload, n_subdomains=4, seed=0)
    oracle = plan.session().solve(t_max=120_000, tol=1e-8)
    assert oracle.converged
    free = plan.session().solve(t_max=120_000, tol=None,
                                stopping=rule_factory())
    assert free.converged
    assert free.stopped_by == rule_factory().name
    assert _within_slack(free.iterations, oracle.iterations)
    # the reference-free solve still reached the oracle's accuracy zone
    assert free.relative_residual <= 1e-6


def test_dtm_reference_free_never_computes_reference(
        workload, forbid_reference):
    plan = build_plan(workload, n_subdomains=4, seed=0)
    res = plan.session().solve(t_max=120_000, tol=None,
                               stopping=ResidualRule(tol=1e-8))
    assert res.converged
    assert np.isnan(res.rms_error)  # no oracle, by design
    assert not plan.reference_materialized
    qui = plan.session().solve(t_max=120_000, tol=None,
                               stopping=QuiescenceRule(threshold=1e-10))
    assert qui.converged
    assert not plan.reference_materialized


def test_dtm_residual_tracks_swapped_rhs(workload, forbid_reference):
    # regression: the rule must monitor ‖b_now − A x‖ for the rhs the
    # SESSION is solving, not the rhs the plan was built with
    plan = build_plan(workload, n_subdomains=4, seed=0)
    session = plan.session()
    rng = np.random.default_rng(7)
    b2 = rng.standard_normal(plan.n)
    res = session.solve(b2, t_max=120_000, tol=None,
                        stopping=ResidualRule(tol=1e-8))
    assert res.converged and res.stopped_by == "residual"
    a, _ = workload.to_system()
    assert relative_residual(a, res.x, b2) <= 1e-8


# ----------------------------------------------------------------------
# VtmSolver
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_factory", [
    lambda: ResidualRule(tol=1e-8),
    lambda: QuiescenceRule(threshold=1e-10),
], ids=["residual", "quiescence"])
def test_vtm_rules_terminate_within_oracle_budget(workload, rule_factory):
    plan = build_plan(workload, mode="vtm", n_subdomains=4, seed=0)
    oracle = VtmSolver(plan=plan).run(tol=1e-8)
    assert oracle.converged
    free = VtmSolver(plan=plan).run(stopping=rule_factory())
    assert free.converged
    assert free.stopped_by == rule_factory().name
    assert _within_slack(free.iterations, oracle.iterations)


def test_vtm_sparse_residual_checked_at_budget_end(workload,
                                                   forbid_reference):
    # regression: with ResidualRule(every=k) the final sweep may fall
    # between checks; the run must force one last check instead of
    # reporting a stale metric and converged=False
    plan = build_plan(workload, mode="vtm", n_subdomains=4, seed=0)
    dense = VtmSolver(plan=plan).run(stopping=ResidualRule(tol=1e-9))
    assert dense.converged
    budget = int(dense.iterations) + 3
    # every= larger than the budget: the ONLY chance to observe the
    # converged state is the forced final check at the stop sweep
    sparse = VtmSolver(plan=plan).run(
        max_iterations=budget,
        stopping=ResidualRule(tol=1e-9, every=10 * budget))
    assert sparse.converged
    assert sparse.stop_metric <= 1e-9
    # ...and the recorded trace is indexed by sweep, not check count
    assert sparse.errors.times[-1] == pytest.approx(sparse.iterations)


def test_vtm_session_sparse_series_keeps_sweep_indices(workload,
                                                       forbid_reference):
    res = solve_vtm_system(workload, n_subdomains=4, use_cache=False,
                           stopping=ResidualRule(tol=1e-9, every=7))
    assert res.converged
    # times are sweep indices (0, 7, 14, ...), not positions (0, 1, 2)
    times = res.errors.times
    assert len(times) >= 2
    assert times[1] == 7.0
    assert times[-1] == pytest.approx(res.iterations, abs=7)


def test_vtm_reference_free_never_computes_reference(
        workload, forbid_reference):
    res = solve_vtm_system(workload, n_subdomains=4, use_cache=False,
                           stopping=ResidualRule(tol=1e-8))
    assert res.converged
    assert res.stopped_by == "residual"
    assert np.isnan(res.rms_error)
    a, b = workload.to_system()
    assert relative_residual(a, res.x, b) <= 1e-8


# ----------------------------------------------------------------------
# MultiprocDtmRunner (wall-clock, nondeterministic: loose bounds)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_factory", [
    lambda: ResidualRule(tol=1e-7),
    lambda: QuiescenceRule(threshold=1e-9),
], ids=["residual", "quiescence"])
def test_multiproc_rules_terminate(workload, rule_factory, forbid_reference):
    plan = build_plan(workload, n_subdomains=4, seed=0)
    with MultiprocDtmRunner(plan, shards=2) as runner:
        res = runner.solve(tol=None, stopping=rule_factory(),
                           wall_budget=60.0)
    assert res.converged
    assert res.stopped_by == rule_factory().name
    assert np.isnan(res.rms_error)  # reference-free: no oracle error
    a, b = workload.to_system()
    assert relative_residual(a, res.x, b) <= 1e-5
    assert not plan.reference_materialized


def test_multiproc_iterations_within_oracle_budget(workload):
    # free-running workers sweep between looks, so their solve count is
    # noisy; compare against the simulator's oracle run with a very
    # generous factor (the claim is "same order of magnitude")
    plan = build_plan(workload, n_subdomains=4, seed=0)
    oracle = plan.session().solve(t_max=120_000, tol=1e-7)
    assert oracle.converged
    with MultiprocDtmRunner(plan, shards=2) as runner:
        free = runner.solve(tol=None, stopping=ResidualRule(tol=1e-7),
                            wall_budget=60.0)
    assert free.converged
    assert free.iterations <= 10 * oracle.iterations + 200


def test_multiproc_quiescence_stops_below_threshold(workload):
    # a QuiescenceRule alone ends the solve once the waves settle: the
    # reported metric is the measured wave change, under the threshold
    plan = build_plan(workload, n_subdomains=4, seed=0)
    rule = QuiescenceRule(threshold=1e-9)
    with MultiprocDtmRunner(plan, shards=2) as runner:
        quiet = runner.solve(tol=None, stopping=rule, wall_budget=60.0)
    assert quiet.converged
    assert quiet.stopped_by == "quiescence"
    assert quiet.stop_metric <= rule.threshold


# ----------------------------------------------------------------------
# composition + top-level API
# ----------------------------------------------------------------------
def test_api_anyof_horizon_backstop(workload, forbid_reference):
    res = solve_dtm(workload, n_subdomains=4, t_max=50.0, tol=None,
                    use_cache=False,
                    stopping=AnyOf(ResidualRule(tol=1e-30),
                                   HorizonRule(max_updates=5)))
    assert not res.converged
    assert res.stopped_by == "horizon"


def test_reference_rule_still_default_and_materializes(workload):
    plan = build_plan(workload, n_subdomains=4, seed=0)
    res = plan.session().solve(t_max=120_000, tol=1e-8)
    assert res.converged
    assert res.stopped_by == "reference"
    assert np.isfinite(res.rms_error)
    assert plan.reference_materialized  # oracle path built the factor


def test_explicit_reference_rule_matches_default(workload):
    plan = build_plan(workload, n_subdomains=4, seed=0)
    default = plan.session().solve(t_max=60_000, tol=1e-8)
    explicit = plan.session().solve(t_max=60_000, tol=None,
                                    stopping=ReferenceRule(tol=1e-8))
    assert np.array_equal(default.x, explicit.x)
    assert default.iterations == explicit.iterations
    assert default.sim_time == explicit.sim_time
    assert np.array_equal(default.errors.values, explicit.errors.values)


# ----------------------------------------------------------------------
# acceptance: 10k unknowns, residual stopping, no reference — ever
# ----------------------------------------------------------------------
def test_acceptance_10k_poisson_residual_no_reference(forbid_reference):
    g = grid2d_poisson(100)  # 10_000 unknowns
    assert g.n == 10_000
    res = solve_dtm(g, n_subdomains=16, grid_shape=(100, 100),
                    t_max=30_000, tol=None, use_cache=False,
                    min_solve_interval=10.0,
                    stopping=ResidualRule(tol=1e-8, every=4))
    assert res.converged
    assert res.stopped_by == "residual"
    assert res.stop_metric <= 1e-8
    assert np.isnan(res.rms_error)
    a, b = g.to_system()
    assert relative_residual(a, res.x, b) <= 1e-8
