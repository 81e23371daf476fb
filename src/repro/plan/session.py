"""Sessions: the mutable execute side of the plan/session split.

A session owns a forked fleet (and through it forked locals) over a shared
:class:`~repro.plan.plan.SolverPlan` and exposes the repeated-solve
API the transient-analysis use case needs:

* :meth:`SolverSession.solve` — one asynchronous DTM solve against any
  right-hand side (one back-substitution per subdomain to swap the RHS,
  then engine/processor wiring and the run itself);
* :meth:`SolverSession.solve_many` — a column block of right-hand
  sides with *batched* preparation (one block back-substitution per
  subdomain) and per-column execution that is bitwise-identical to
  calling :meth:`solve` in a loop — asserted by the test-suite,
  guaranteed by construction because block-column and single-column
  SuperLU back-substitutions agree bit for bit while the event-driven
  trajectory itself is played per column (early stopping at ``tol`` is
  a per-column property, so columns must not share one event horizon);
* warm starts — seed the wave state from the previous solve's final
  waves, the natural accelerator when consecutive right-hand sides are
  close (circuit transient steps).

:class:`VtmSession` is the synchronous analogue.  Both surface the
plan-reuse counters in :class:`SolveResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.convergence import (
    as_stopping_rule,
    relative_residual,
    rms_error,
)
from ..errors import ConfigurationError, ValidationError
from ..graph.evs import SplitResult
from ..obs import resolve_obs, resolve_trace
from ..sim.executor import DtmSimulator
from ..utils.timeseries import TimeSeries


@dataclass
class SolveResult:
    """Solution plus diagnostics from the high-level entry points.

    ``rms_error`` needs the direct reference solution; on solves that
    used a reference-free stopping rule it is ``nan`` (no reference
    was ever computed) — use ``relative_residual`` / ``stop_metric``
    instead, which are reference-free by construction.
    """

    x: np.ndarray
    rms_error: float
    relative_residual: float
    converged: bool
    iterations: int
    sim_time: float
    errors: Optional[TimeSeries] = None
    split: Optional[SplitResult] = None
    #: True when this solve executed against an already-built plan
    #: (session reuse or a plan-cache hit) instead of planning afresh.
    plan_reused: bool = False
    #: Total solves the underlying plan has served, this one included.
    plan_solves: int = 0
    #: True when the wave state was seeded from a previous solve.
    warm_started: bool = False
    #: Name of the stopping rule that ended the run (None when the run
    #: exhausted its horizon/budget without any rule firing).
    stopped_by: Optional[str] = None
    #: Final value of the firing rule's metric (reference error,
    #: relative residual or wave-update delta, by rule).
    stop_metric: Optional[float] = None
    #: Per-shard diagnostics of a multiprocess solve (None on the
    #: single-process backends); see :class:`repro.sim.trace.ShardReport`.
    shard_reports: Optional[list] = None
    #: The per-solve timeline when the caller passed ``trace=`` (see
    #: :class:`repro.obs.SolveTrace`); None when tracing was off.
    trace: Optional[object] = None

    @property
    def stop_iterations(self) -> int:
        """Iterations (subdomain solves / VTM sweeps) until the run
        ended — the stopping-rule-diagnostics alias of ``iterations``."""
        return self.iterations


def _as_rhs(b, n: int) -> np.ndarray:
    vec = np.asarray(b, dtype=np.float64)
    if vec.shape != (n,):
        raise ValidationError(
            f"right-hand side must have shape ({n},), got {vec.shape}")
    return vec


def _as_rhs_block(B, n: int) -> np.ndarray:
    blk = np.asarray(B, dtype=np.float64)
    if blk.ndim != 2 or blk.shape[0] != n:
        raise ValidationError(
            f"rhs block must have shape ({n}, k), got {blk.shape}")
    return blk


class _SessionBase:
    """Shared per-session state: forked fleet/locals, RHS tracking."""

    def __init__(self, plan, *, send_threshold: float = 0.0,
                 obs=None) -> None:
        self.plan = plan
        self.fleet = plan.fork_fleet(send_threshold=send_threshold)
        self.locals = self.fleet.locals
        # telemetry is opt-in (obs=True / a registry / REPRO_OBS=1);
        # disabled sessions keep the fleet's hot path uninstrumented
        self.obs = resolve_obs(obs)
        if self.obs.enabled:
            self.fleet.install_obs(self.obs)
        # forked locals encode the rhs the plan was BUILT with, which on
        # a with_base_rhs view differs from plan.base_b — track the
        # locals' provenance so the first solve swaps when needed
        self._current_b = plan.forked_locals_rhs
        self._current_b_key = self._current_b.tobytes()
        #: the plan's split re-dressed with the session's current rhs,
        #: so SolveResult.split always reports the b actually solved
        self._current_split = plan.split.with_sources(self._current_b)
        self._last_waves: Optional[np.ndarray] = None
        self.n_solves = 0
        plan.record_session()

    # -- RHS management -------------------------------------------------
    def _resolve_rhs(self, b) -> np.ndarray:
        return self.plan.base_b if b is None else _as_rhs(b, self.plan.n)

    def _swap_to(self, b_vec: np.ndarray,
                 x0_list: Optional[list] = None) -> None:
        """Point the session at *b_vec* (no-op when already there)."""
        key = b_vec.tobytes()
        if key == self._current_b_key and x0_list is None:
            return
        rhs_list = None
        if x0_list is None:
            rhs_list = self.plan.spread_sources(b_vec)
            self.fleet.swap_rhs(rhs_list, reset=False)
        else:
            self.fleet.swap_rhs(x0_list=x0_list, reset=False)
        self._current_b = b_vec
        self._current_b_key = key
        self._current_split = self.plan.split.with_sources(b_vec, rhs_list)

    def _batched_x0(self, B: np.ndarray) -> list[np.ndarray]:
        """Per-subdomain zero-wave state blocks for a rhs column block.

        One block back-substitution per subdomain; columns are
        bitwise-identical to the per-column swaps :meth:`_swap_to`
        performs, which is what makes batched preparation transparent.
        """
        blocks = self.plan.spread_sources(B)
        return [loc.response_for(blk) if loc.n_local else blk
                for loc, blk in zip(self.locals, blocks)]

    def _warm_waves(self, warm_start: bool) -> Optional[np.ndarray]:
        if not warm_start:
            return None
        return self._last_waves  # None on the first solve = cold start

    def _finish(self, waves: np.ndarray) -> int:
        self._last_waves = waves.copy()
        self.n_solves += 1
        return self.plan.record_solve()

    def _reused(self) -> bool:
        return self.plan.from_cache or self.plan.n_solves_served > 0

    def solve_many(self, B, *, warm_start: bool = False,
                   **solve_kwargs) -> list[SolveResult]:
        """Solve a column block ``B`` of right-hand sides.

        Preparation is batched (one block back-substitution per
        subdomain); the trajectories then run per column through the
        exact single-solve path, so the results are bitwise-identical
        to ``[session.solve(B[:, k]) for k]``.  ``warm_start=True``
        chains the columns: each warm-starts from its predecessor's
        waves.
        """
        B = _as_rhs_block(B, self.plan.n)
        x0_blocks = self._batched_x0(B)
        out = []
        for k in range(B.shape[1]):
            out.append(self.solve(
                B[:, k], warm_start=warm_start and k > 0,
                _x0_list=[blk[:, k] for blk in x0_blocks],
                **solve_kwargs))
        return out


class SolverSession(_SessionBase):
    """Repeated asynchronous DTM solves over one plan.

    Parameters mirror the simulator's session-level knobs; everything
    plan-level (topology, impedance, placement) is fixed by the plan.
    """

    def __init__(self, plan, *, send_threshold: float = 0.0,
                 compute=None,
                 min_solve_interval: Optional[float] = None,
                 log_messages: bool = False,
                 probe_ports=None, obs=None) -> None:
        if plan.mode != "dtm":
            raise ConfigurationError(
                f"SolverSession needs a dtm-mode plan, got {plan.mode!r}")
        super().__init__(plan, send_threshold=send_threshold, obs=obs)
        self._sim_opts = dict(compute=compute,
                              min_solve_interval=min_solve_interval,
                              log_messages=log_messages,
                              probe_ports=probe_ports)

    # ------------------------------------------------------------------
    def _make_sim(self, warm_waves: Optional[np.ndarray]) -> DtmSimulator:
        self.fleet.reset_state(warm_waves)
        sim = DtmSimulator(plan=self.plan, fleet=self.fleet,
                           **self._sim_opts)
        # the plan's split carries the BUILD rhs; point the simulator at
        # the session's current one (mirrors DtmSimulator.swap_rhs), so
        # reference-free stopping rules monitor ‖b_now − A x‖, not the
        # residual of whatever rhs the plan was built with
        sim.split = self._current_split
        return sim

    def solve(self, b=None, *, t_max: float = 5000.0,
              tol: Optional[float] = 1e-8,
              stopping=None,
              warm_start: bool = False,
              sample_interval: Optional[float] = None,
              max_events: Optional[int] = None,
              reference: Optional[np.ndarray] = None,
              trace=None,
              _x0_list: Optional[list] = None) -> SolveResult:
        """One DTM solve against *b* (default: the plan's baked-in rhs).

        ``warm_start`` seeds the wave state from the previous solve on
        this session — the accelerator for slowly varying right-hand
        sides; the first solve of a session always starts cold.
        ``stopping`` selects the termination criterion (default: the
        paper's reference-based rule at *tol*); with a reference-free
        rule the plan's direct reference solution is never computed and
        the result's ``rms_error`` is ``nan``.
        """
        tr = resolve_trace(trace)
        b_vec = self._resolve_rhs(b)
        reused = self._reused()
        if tr is not None:
            tr.event("plan_lookup", reused=bool(reused))
            with tr.span("rhs_swap"):
                self._swap_to(b_vec, x0_list=_x0_list)
        else:
            self._swap_to(b_vec, x0_list=_x0_list)
        warm = self._warm_waves(warm_start)
        sim = self._make_sim(warm)
        rule = as_stopping_rule(stopping, tol=tol)
        if rule.needs_reference and reference is None:
            reference = self.plan.reference(b_vec)
        if tr is not None:
            with tr.span("solve", backend="simulator",
                         warm=warm is not None):
                res = sim.run(t_max, tol=tol, stopping=stopping,
                              reference=reference,
                              sample_interval=sample_interval,
                              max_events=max_events)
            tr.event("stop", rule=res.stopped_by,
                     converged=bool(res.converged),
                     solves=int(res.n_solves))
        else:
            res = sim.run(t_max, tol=tol, stopping=stopping,
                          reference=reference,
                          sample_interval=sample_interval,
                          max_events=max_events)
        served = self._finish(self.fleet.waves)
        return SolveResult(
            x=res.x,
            rms_error=(rms_error(res.x, reference)
                       if reference is not None else np.nan),
            relative_residual=relative_residual(self.plan.a_mat, res.x,
                                                b_vec),
            converged=res.converged, iterations=res.n_solves,
            sim_time=res.t_end, errors=res.errors,
            split=self._current_split,
            plan_reused=reused, plan_solves=served,
            warm_started=warm is not None,
            stopped_by=res.stopped_by, stop_metric=res.stop_metric,
            trace=tr)

class VtmSession(_SessionBase):
    """Repeated synchronous VTM solves over one vtm-mode plan."""

    def __init__(self, plan, *, send_threshold: float = 0.0) -> None:
        if plan.mode != "vtm":
            raise ConfigurationError(
                f"VtmSession needs a vtm-mode plan, got {plan.mode!r}")
        super().__init__(plan, send_threshold=send_threshold)

    def solve(self, b=None, *, tol: float = 1e-8,
              max_iterations: int = 10_000,
              stopping=None,
              warm_start: bool = False,
              reference: Optional[np.ndarray] = None,
              _x0_list: Optional[list] = None) -> SolveResult:
        """One synchronous VTM solve against *b*.

        ``stopping`` selects the termination criterion (default: the
        paper's reference-based rule at *tol*); with a reference-free
        rule no direct reference is computed and ``rms_error`` is
        ``nan``.
        """
        from ..core.vtm import VtmSolver

        b_vec = self._resolve_rhs(b)
        reused = self._reused()
        self._swap_to(b_vec, x0_list=_x0_list)
        warm = self._warm_waves(warm_start)
        self.fleet.reset_state(warm)
        solver = VtmSolver(plan=self.plan, fleet=self.fleet)
        # as in _make_sim: the solver must see the session's current
        # rhs (mirrors VtmSolver.swap_rhs's own split re-dressing)
        solver.split = self._current_split
        rule = as_stopping_rule(stopping, tol=tol)
        if rule.needs_reference and reference is None:
            reference = self.plan.reference(b_vec)
        res = solver.run(tol=tol, max_iterations=max_iterations,
                         stopping=stopping, reference=reference)
        served = self._finish(self.fleet.waves)
        return SolveResult(
            x=res.x,
            rms_error=(rms_error(res.x, reference)
                       if reference is not None else np.nan),
            relative_residual=relative_residual(self.plan.a_mat, res.x,
                                                b_vec),
            converged=res.converged, iterations=res.iterations,
            sim_time=float(res.iterations), errors=res.errors,
            split=self._current_split,
            plan_reused=reused, plan_solves=served,
            warm_started=warm is not None,
            stopped_by=res.stopped_by, stop_metric=res.stop_metric)
