"""Virtual Transmission Method — the synchronous special case (§5, (5.10)).

Setting every DTL propagation delay to one time unit turns DTM's
continuous-time iteration into the discrete-time iteration the authors
call VTM (their earlier NCM 2008 paper): all subdomains solve against
the waves of step k−1, exchange, and advance together.  The fixed-point
map in wave space is *affine*,

.. math:: a^{k+1} = S a^k + c,

so VTM doubles as the analysis vehicle: :meth:`VtmSolver.wave_operator`
materialises S by probing, and its spectral radius is the synchronous
convergence rate (used by the Fig 9 / ablation benches).

VTM is DTM's construction with every delay set to one, so it runs on a
vtm-mode :class:`~repro.plan.SolverPlan` —
``build_plan(split=split, impedance=z, mode="vtm")`` — which owns the
DTLP network and the factored local systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConvergenceError, ValidationError
from ..utils.timeseries import TimeSeries
from .convergence import (
    StateProbe,
    begin_monitor,
    plan_reference,
    reuse_system,
)
from .fleet import FleetKernel, FleetKernelView


@dataclass
class VtmResult:
    """Outcome of a synchronous VTM run."""

    x: np.ndarray
    iterations: int
    #: the stopping rule's metric trace, timed by sweep index — rules
    #: that sample sparsely (``ResidualRule(every=k)``) do not record
    #: every sweep
    errors: TimeSeries
    converged: bool
    spectral_radius: Optional[float] = None
    #: name of the stopping rule that ended the run (None = iteration
    #: budget exhausted without the rule firing)
    stopped_by: Optional[str] = None
    #: the firing rule's final metric value
    stop_metric: Optional[float] = None

    @property
    def final_error(self) -> float:
        return float(self.errors.final) if len(self.errors) else np.inf


class VtmSolver:
    """Synchronous wave iteration over a vtm-mode plan.

    Parameters
    ----------
    plan:
        A vtm-mode :class:`~repro.plan.SolverPlan`
        (``build_plan(split=, impedance=, mode="vtm")``): its network
        and factored locals are driven here.
    fleet:
        A session-owned fleet fork of *plan* to drive (its right-hand
        side may already be swapped); omitted, a fresh fork is taken.
    """

    def __init__(self, plan, *, fleet: Optional[FleetKernel] = None
                 ) -> None:
        if plan.mode != "vtm":
            raise ValidationError(
                f"VtmSolver needs a vtm-mode plan, got {plan.mode!r}")
        self.plan = plan
        self.split = plan.split
        self.network = plan.network
        self.fleet = fleet if fleet is not None else plan.fork_fleet()
        self.locals = self.fleet.locals
        #: per-part views over the struct-of-arrays hot path
        self.kernels: list[FleetKernelView] = self.fleet.views()

    # ------------------------------------------------------------------
    # RHS swap / reset (amortized repeated solves)
    # ------------------------------------------------------------------
    def swap_rhs(self, b, *, reset: bool = True) -> None:
        """Re-target the solver at a new global right-hand side.

        One back-substitution per subdomain against the retained
        factors plus a kernel ``load_x0`` — no re-factorization.  With
        ``reset`` (default) the wave state restarts from zero boundary
        conditions.  ``self.split`` is re-dressed with *b*, so a
        subsequent :meth:`run` without an explicit ``reference=``
        converges against the new system's solution.
        """
        rhs_list = self.split.spread_sources(b)
        self.fleet.swap_rhs(rhs_list, reset=reset)
        self.split = self.split.with_sources(b, rhs_list)

    def reset(self, waves=None) -> None:
        """Zero (or warm-start) the wave state for a fresh run."""
        self.fleet.reset_state(waves)

    # ------------------------------------------------------------------
    # wave-space view
    # ------------------------------------------------------------------
    @property
    def n_waves(self) -> int:
        """Total number of wave slots across subdomains."""
        return self.fleet.n_slots_total

    def get_waves(self) -> np.ndarray:
        """Concatenated wave state (part-major, slot order)."""
        return self.fleet.waves.copy()

    def set_waves(self, w: np.ndarray) -> None:
        """Overwrite the global wave state."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_waves,):
            raise ValidationError(
                f"wave vector must have shape ({self.n_waves},)")
        self.fleet.waves[:] = w

    def sweep(self) -> None:
        """One synchronous step: all solve, then all messages deliver.

        Pure array sweeps on the fleet: batched resolve, one routed
        emit, one scatter delivery — no per-kernel Python.
        """
        fleet = self.fleet
        fleet.solve_all()
        dest, values = fleet.emit_all()
        fleet.receive_batch(dest, values)

    def wave_map(self, w: np.ndarray) -> np.ndarray:
        """Evaluate the affine iteration map ``a ↦ S a + c`` once."""
        saved = self.get_waves()
        self.set_waves(w)
        self.sweep()
        out = self.get_waves()
        self.set_waves(saved)
        return out

    def wave_operator(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialise (S, c) by probing with unit vectors."""
        m = self.n_waves
        c = self.wave_map(np.zeros(m))
        S = np.empty((m, m))
        eye = np.eye(m)
        for j in range(m):
            S[:, j] = self.wave_map(eye[j]) - c
        return S, c

    def spectral_radius(self) -> float:
        """ρ(S) of the synchronous wave operator (<1 ⇒ VTM converges)."""
        if self.n_waves == 0:
            return 0.0
        S, _ = self.wave_operator()
        return float(np.max(np.abs(np.linalg.eigvals(S))))

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def current_solution(self) -> np.ndarray:
        """Global solution estimate from the kernels' current waves."""
        states = self.fleet.kernel.full_states(self.fleet.waves)
        return self.split.gather_flat(states)

    def _probe(self) -> StateProbe:
        return StateProbe(self.current_solution, self.get_waves)

    def run(self, *, tol: float = 1e-8, max_iterations: int = 10_000,
            reference: Optional[np.ndarray] = None,
            stopping=None,
            raise_on_fail: bool = False,
            record_history: bool = True) -> VtmResult:
        """Iterate until the stopping rule fires or the budget runs out.

        The default rule is the paper's reference-based criterion at
        *tol* (``reference`` then defaults to the plan's cached direct
        solution).
        Reference-free rules — ``ResidualRule``, ``QuiescenceRule`` —
        never compute a reference; the returned ``errors`` trace is
        then the rule's own metric (relative residual or wave-update
        delta).
        """
        if reference is None:
            reference = plan_reference(self.plan, self.split.graph)
        rule, monitor, _ = begin_monitor(
            stopping, tol=tol, graph=self.split.graph,
            system=reuse_system(self.plan, self.split.graph),
            reference=reference)
        it = 0
        event = monitor.update(0.0, self._probe())
        while it < max_iterations and event is None:
            self.sweep()
            it += 1
            if record_history or it == max_iterations:
                event = monitor.update(float(it), self._probe())
        if event is None:
            # force one last check at the stop sweep: a sparsely
            # sampling rule (ResidualRule every=k) may not have looked
            # at the final state yet
            event = monitor.finalize(float(it), self._probe())
        converged = event is not None and event.converged
        if not converged and raise_on_fail:
            raise ConvergenceError(
                f"VTM failed to reach tol={tol:g} within {max_iterations} "
                f"iterations ({monitor.series.name} "
                f"{monitor.metric:.3e})")
        return VtmResult(x=self.current_solution(), iterations=it,
                         errors=monitor.series, converged=converged,
                         stopped_by=event.rule if event else None,
                         stop_metric=(event.metric if event
                                      else (monitor.metric
                                            if len(monitor.series)
                                            else None)))

