"""Error metrics, stopping rules and convergence tracking.

The paper reports RMS error against the direct solution (Figs 8, 9, 12,
14).  :class:`ConvergenceTracker` bundles the reference solution, the
metric and the tolerance/horizon stopping logic shared by the VTM loop
and the discrete-event simulator.

Production solves cannot afford a direct reference solution just to
know when to stop, so this module also defines the **stopping-rule
subsystem**: small immutable :class:`StoppingRule` specs that every
execution layer (``VtmSolver``, ``DtmSimulator``, ``SolverSession``,
``MultiprocDtmRunner``) accepts via a ``stopping=`` parameter.

* :class:`ReferenceRule` — the paper's oracle criterion (RMS/max error
  against the direct solution); the default everywhere, so existing
  experiment traces are unchanged.
* :class:`ResidualRule` — reference-free ``‖b − A x‖₂ / ‖b‖₂`` checked
  periodically (Avron et al.'s standard criterion for asynchronous
  iterations).
* :class:`QuiescenceRule` — reference-free transmission-line
  quiescence: stop once the wave state stops moving (the VTM companion
  report's convergence framing).
* :class:`HorizonRule` / :class:`AnyOf` — budget caps and composition.

A rule is a *spec*; calling :meth:`StoppingRule.begin` against a
:class:`SolveContext` yields a private :class:`RuleMonitor` holding the
per-solve state, so one rule object can serve many concurrent solves.

Convergence convention
----------------------
A metric value *equal* to the tolerance counts as converged
(``err <= tol``), matching the CG convention in
:mod:`repro.linalg.iterative`.  ``ConvergenceTracker.converged`` and
``time_to_tol`` both use this inclusive comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..linalg.sparse import CsrMatrix
from ..utils.timeseries import TimeSeries


def rms_error(x, reference) -> float:
    """Root-mean-square deviation between *x* and *reference*."""
    x = np.asarray(x, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if x.shape != reference.shape:
        raise ValidationError(
            f"shape mismatch in rms_error: {x.shape} vs {reference.shape}")
    if x.size == 0:
        return 0.0
    return float(np.sqrt(np.mean((x - reference) ** 2)))


def max_error(x, reference) -> float:
    """Maximum absolute deviation."""
    x = np.asarray(x, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if x.shape != reference.shape:
        raise ValidationError(
            f"shape mismatch in max_error: {x.shape} vs {reference.shape}")
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(x - reference)))


def _norm2(v: np.ndarray) -> float:
    """Euclidean norm by pairwise summation, off the BLAS pool.

    A BLAS-backed norm or dot product wakes the library's helper
    threads, which then spin on a core the shard workers need; a
    stopping check must not cost the solve a core.
    """
    return math.sqrt(float(np.add.reduce(v * v)))


def relative_residual(a, x, b) -> float:
    """``‖b − A x‖₂ / ‖b‖₂`` (reference-free convergence measure).

    A :class:`~repro.linalg.sparse.CsrMatrix` multiplies through its
    zero-copy :meth:`~repro.linalg.sparse.CsrMatrix.to_scipy` view; any
    other *a* (a dense array, a scipy matrix) through ``@``.
    """
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if isinstance(a, CsrMatrix):
        a = a.to_scipy()
    if x.shape != (a.shape[1],):
        raise ValidationError(
            f"relative_residual needs x of shape ({a.shape[1]},), "
            f"got {x.shape}")
    return _norm2(b - a @ x) / (_norm2(b) or 1.0)


@dataclass
class ConvergenceTracker:
    """Accumulates an error trace and decides when to stop.

    Parameters
    ----------
    reference:
        The exact solution (``None`` → residual-based tracking must be
        fed externally computed values via :meth:`record_value`).
    tol:
        Stop once the metric drops to this value or below (``None`` →
        never).  An error *exactly equal* to ``tol`` counts as
        converged — the same inclusive comparison :meth:`time_to_tol`
        uses, matching the CG convention in
        :mod:`repro.linalg.iterative`.
    metric:
        ``rms`` (default) or ``max``, applied against *reference*.
    """

    reference: Optional[np.ndarray] = None
    tol: Optional[float] = None
    metric: str = "rms"
    series: TimeSeries = field(default_factory=lambda: TimeSeries("error"))
    _metric_fn: Callable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.metric == "rms":
            self._metric_fn = rms_error
        elif self.metric == "max":
            self._metric_fn = max_error
        else:
            raise ValidationError(f"unknown metric {self.metric!r}")
        if self.reference is not None:
            self.reference = np.asarray(self.reference, dtype=np.float64)
        if self.tol is not None and self.tol <= 0:
            raise ValidationError("tol must be positive when given")

    def record(self, t: float, x) -> float:
        """Record the error of state *x* at time *t*; returns the error."""
        if self.reference is None:
            raise ValidationError(
                "tracker has no reference solution; use record_value")
        err = self._metric_fn(x, self.reference)
        self.series.append(t, err)
        return err

    def record_value(self, t: float, value: float) -> float:
        """Record an externally computed error value."""
        self.series.append(t, float(value))
        return float(value)

    @property
    def converged(self) -> bool:
        """True once the most recent recorded error is at or below tol."""
        if self.tol is None or len(self.series) == 0:
            return False
        return float(self.series.final) <= self.tol

    @property
    def final_error(self) -> float:
        if len(self.series) == 0:
            return np.inf
        return float(self.series.final)

    def time_to_tol(self, tol: Optional[float] = None) -> Optional[float]:
        """First recorded time at which the error was at or below *tol*."""
        threshold = self.tol if tol is None else tol
        if threshold is None:
            raise ValidationError("no tolerance given")
        return self.series.first_time_below(threshold)

    def decay_rate(self) -> float:
        """log10 error decay per time unit over the trace tail."""
        return self.series.tail_slope()


# ======================================================================
# stopping rules
# ======================================================================
@dataclass(frozen=True)
class StopEvent:
    """A stopping rule fired: who, when, at what metric value.

    ``converged`` is False for budget-style rules
    (:class:`HorizonRule`) that stop a run without certifying the
    answer.
    """

    rule: str
    t: float
    metric: float
    converged: bool = True


@dataclass
class SolveContext:
    """What a run hands a rule at :meth:`StoppingRule.begin` time.

    ``a``/``b`` are the system being solved (needed by
    :class:`ResidualRule`); ``reference`` is the direct solution — an
    array or a zero-argument callable producing one, so reference-free
    runs can pass a *lazy* supplier that is only invoked when a
    reference-needing rule is actually in play.
    """

    a: object = None
    b: Optional[np.ndarray] = None
    reference: object = None
    _ref: Optional[np.ndarray] = field(default=None, repr=False)

    def get_reference(self) -> np.ndarray:
        if self._ref is None:
            ref = self.reference() if callable(self.reference) \
                else self.reference
            if ref is None:
                raise ConfigurationError(
                    "this stopping rule needs a reference solution but "
                    "the run did not provide one")
            self._ref = np.asarray(ref, dtype=np.float64)
        return self._ref

    def require_system(self, rule_name: str) -> tuple:
        if self.a is None or self.b is None:
            raise ConfigurationError(
                f"{rule_name} needs the system (a, b) in its "
                "SolveContext")
        return self.a, np.asarray(self.b, dtype=np.float64)


class StateProbe:
    """Lazy accessors for solver state at one sample instant.

    Rules pull only what they need: gathering the global solution or
    snapshotting the wave vector is skipped entirely on samples where
    no active rule asks for it (e.g. :class:`ResidualRule` between its
    periodic checks).  An execution layer that can measure the relative
    residual without the global solution passes *residual_fn* (the
    multiproc coordinator's halo look, :mod:`repro.runtime.look`).
    """

    __slots__ = ("_x_fn", "_waves_fn", "_residual_fn", "_x", "_waves")

    def __init__(self, x_fn: Callable[[], np.ndarray],
                 waves_fn: Optional[Callable[[], np.ndarray]] = None,
                 residual_fn: Optional[Callable[[], float]] = None
                 ) -> None:
        self._x_fn = x_fn
        self._waves_fn = waves_fn
        self._residual_fn = residual_fn
        self._x: Optional[np.ndarray] = None
        self._waves: Optional[np.ndarray] = None

    def relative_residual(self, a, b: np.ndarray) -> float:
        """``‖b − A x‖₂ / ‖b‖₂`` of this instant's solution."""
        if self._residual_fn is not None:
            return float(self._residual_fn())
        return relative_residual(a, self.x, b)

    @property
    def x(self) -> np.ndarray:
        if self._x is None:
            self._x = self._x_fn()
        return self._x

    @property
    def waves(self) -> np.ndarray:
        if self._waves is None:
            if self._waves_fn is None:
                raise ConfigurationError(
                    "this execution layer does not expose wave state; "
                    "QuiescenceRule cannot run here")
            self._waves = self._waves_fn()
        return self._waves


class RuleMonitor:
    """Per-solve mutable state of one :class:`StoppingRule`.

    ``update`` is called on every observer sample; once it returns a
    :class:`StopEvent` the monitor latches it (``fired``).
    ``finalize`` forces a last metric evaluation at the stop time so
    diagnostics reflect the final state even when the rule samples
    sparsely.
    """

    def __init__(self, rule: "StoppingRule", name: str) -> None:
        self.rule = rule
        self.series = TimeSeries(name)
        self.fired: Optional[StopEvent] = None

    def update(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        if self.fired is None:
            event = self._update(float(t), probe)
            if event is not None:
                self.fired = event
        return self.fired

    def finalize(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        """Record a final sample at *t*; returns the latched event.

        Skipped when *t* is an instant already sampled: re-probing the
        same state would fabricate a zero wave-update delta (and a
        spurious quiescence stop) out of nothing having happened since
        the last sample.
        """
        if not self._sampled_at(t):
            self.update(t, probe)
        return self.fired

    def _sampled_at(self, t: float) -> bool:
        return bool(len(self.series)) \
            and float(t) <= float(self.series.times[-1])

    # subclasses implement -------------------------------------------------
    def _update(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        raise NotImplementedError

    @property
    def metric(self) -> float:
        """Most recent metric value (inf before the first sample)."""
        return float(self.series.final) if len(self.series) else np.inf


class StoppingRule:
    """Immutable spec for when an asynchronous solve may stop.

    Subclasses declare what state they need (``needs_reference``,
    ``needs_system``, ``needs_waves``) so execution layers can skip
    producing anything no active rule consumes — in particular, a run
    whose rule tree has ``needs_reference == False`` never computes a
    direct reference solution at all.
    """

    name = "stop"
    needs_reference = False
    needs_system = False
    needs_waves = False

    def begin(self, ctx: SolveContext) -> RuleMonitor:
        raise NotImplementedError

    def __or__(self, other: "StoppingRule") -> "AnyOf":
        return AnyOf(self, other)


class ReferenceRule(StoppingRule):
    """The paper's oracle criterion: error against the direct solution.

    ``tol=None`` records the error trace without ever firing (how the
    figure experiments run to their full horizon).  This rule wraps
    :class:`ConvergenceTracker`, so runs using it are trace-identical
    to the pre-rule code paths.
    """

    name = "reference"
    needs_reference = True

    def __init__(self, tol: Optional[float] = None,
                 metric: str = "rms") -> None:
        # tracker construction validates tol/metric eagerly
        ConvergenceTracker(tol=tol, metric=metric)
        self.tol = tol
        self.metric = metric

    def __repr__(self) -> str:
        return f"ReferenceRule(tol={self.tol!r}, metric={self.metric!r})"

    def begin(self, ctx: SolveContext) -> "ReferenceMonitor":
        return ReferenceMonitor(self, ctx.get_reference())


class ReferenceMonitor(RuleMonitor):
    def __init__(self, rule: ReferenceRule, reference: np.ndarray) -> None:
        super().__init__(rule, "error")
        self.tracker = ConvergenceTracker(reference=reference,
                                          tol=rule.tol, metric=rule.metric)
        self.series = self.tracker.series  # one shared trace

    def _update(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        err = self.tracker.record(t, probe.x)
        if self.tracker.converged:
            return StopEvent(self.rule.name, t, err, converged=True)
        return None


class ResidualRule(StoppingRule):
    """Reference-free stop on ``‖b − A x‖₂ / ‖b‖₂ <= tol``.

    ``every`` rate-limits the check: the residual (one sparse matvec
    plus a global gather, O(nnz)) is evaluated only on every *every*-th
    observer sample, which keeps the monitoring cost negligible next to
    the subdomain solves.  Intermediate samples cost nothing — the
    :class:`StateProbe` is lazy, so the global solution is not even
    gathered.
    """

    name = "residual"
    needs_system = True

    def __init__(self, tol: float = 1e-8, every: int = 1) -> None:
        if tol <= 0:
            raise ValidationError("ResidualRule tol must be positive")
        if int(every) < 1:
            raise ValidationError("ResidualRule every must be >= 1")
        self.tol = float(tol)
        self.every = int(every)

    def __repr__(self) -> str:
        return f"ResidualRule(tol={self.tol!r}, every={self.every!r})"

    def begin(self, ctx: SolveContext) -> "ResidualMonitor":
        a, b = ctx.require_system("ResidualRule")
        return ResidualMonitor(self, a, b)


class ResidualMonitor(RuleMonitor):
    def __init__(self, rule: ResidualRule, a, b: np.ndarray) -> None:
        super().__init__(rule, "relative_residual")
        self.a = a
        self.b = b
        self._n_samples = 0

    def _check(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        res = probe.relative_residual(self.a, self.b)
        self.series.append(t, res)
        if res <= self.rule.tol:
            return StopEvent(self.rule.name, t, res, converged=True)
        return None

    def _update(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        self._n_samples += 1
        if (self._n_samples - 1) % self.rule.every:
            return None
        return self._check(t, probe)

    def finalize(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        if self.fired is None and not self._sampled_at(t):
            event = self._check(t, probe)  # force, ignoring `every`
            if event is not None:
                self.fired = event
        return self.fired


class QuiescenceRule(StoppingRule):
    """Reference-free stop once the wave state stops moving.

    The transmission-line framing of convergence: when no wave changes
    by more than ``threshold`` between consecutive samples for
    ``patience`` samples in a row, the network is quiescent and the
    iterate is the fixed point (to within ``threshold``).  Samples
    before the first wave activity are ignored, so a run whose messages
    are still in flight at startup is not declared converged at its
    all-zero initial state.
    """

    name = "quiescence"
    needs_waves = True

    def __init__(self, threshold: float = 1e-12, patience: int = 2) -> None:
        if threshold < 0:
            raise ValidationError(
                "QuiescenceRule threshold must be non-negative")
        if int(patience) < 1:
            raise ValidationError("QuiescenceRule patience must be >= 1")
        self.threshold = float(threshold)
        self.patience = int(patience)

    def __repr__(self) -> str:
        return (f"QuiescenceRule(threshold={self.threshold!r}, "
                f"patience={self.patience!r})")

    def begin(self, ctx: SolveContext) -> "QuiescenceMonitor":
        return QuiescenceMonitor(self)


class QuiescenceMonitor(RuleMonitor):
    def __init__(self, rule: QuiescenceRule) -> None:
        super().__init__(rule, "wave_delta")
        self._prev: Optional[np.ndarray] = None
        self._streak = 0
        self._active = False
        self._last_t: Optional[float] = None

    def finalize(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        # the series-based guard is not enough here: the first update()
        # records nothing (it only snapshots), yet still advances
        # ``_prev`` — re-probing the same instant would compare the
        # state with itself and fabricate a zero delta
        if self.fired is None and \
                (self._last_t is None or float(t) > self._last_t):
            self.update(t, probe)
        return self.fired

    def _update(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        self._last_t = t
        waves = probe.waves
        if self._prev is None:
            self._prev = np.array(waves, dtype=np.float64, copy=True)
            self._active = bool(np.any(self._prev))
            return None
        delta = float(np.max(np.abs(waves - self._prev))) \
            if waves.size else 0.0
        self.series.append(t, delta)
        self._prev = np.array(waves, dtype=np.float64, copy=True)
        if delta > self.rule.threshold:
            self._active = True
            self._streak = 0
            return None
        if not self._active:
            return None  # nothing has happened yet; not converged
        self._streak += 1
        if self._streak >= self.rule.patience:
            return StopEvent(self.rule.name, t, delta, converged=True)
        return None


class HorizonRule(StoppingRule):
    """Budget cap: stop (without certifying convergence) at a horizon.

    Fires with ``converged=False`` once the sample time reaches
    ``t_max`` or the number of observer samples reaches
    ``max_updates``.  Compose with a convergence rule via
    :class:`AnyOf` (or ``rule | HorizonRule(...)``).
    """

    name = "horizon"

    def __init__(self, t_max: Optional[float] = None,
                 max_updates: Optional[int] = None) -> None:
        if t_max is None and max_updates is None:
            raise ValidationError(
                "HorizonRule needs t_max and/or max_updates")
        if t_max is not None and t_max <= 0:
            raise ValidationError("HorizonRule t_max must be positive")
        if max_updates is not None and int(max_updates) < 1:
            raise ValidationError("HorizonRule max_updates must be >= 1")
        self.t_max = None if t_max is None else float(t_max)
        self.max_updates = None if max_updates is None else int(max_updates)

    def __repr__(self) -> str:
        return (f"HorizonRule(t_max={self.t_max!r}, "
                f"max_updates={self.max_updates!r})")

    def begin(self, ctx: SolveContext) -> "HorizonMonitor":
        return HorizonMonitor(self)


class HorizonMonitor(RuleMonitor):
    def __init__(self, rule: HorizonRule) -> None:
        super().__init__(rule, "horizon")
        self._n = 0

    def _update(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        self._n += 1
        if self.rule.t_max is not None and t >= self.rule.t_max:
            return StopEvent(self.rule.name, t, t, converged=False)
        if self.rule.max_updates is not None \
                and self._n >= self.rule.max_updates:
            return StopEvent(self.rule.name, t, float(self._n),
                             converged=False)
        return None


class AnyOf(StoppingRule):
    """Fire when any member rule fires (first in spec order wins)."""

    name = "any_of"

    def __init__(self, *rules: StoppingRule) -> None:
        flat: list[StoppingRule] = []
        for r in rules:
            if isinstance(r, AnyOf):
                flat.extend(r.rules)
            elif isinstance(r, StoppingRule):
                flat.append(r)
            else:
                raise ValidationError(
                    f"AnyOf members must be StoppingRule, got {r!r}")
        if not flat:
            raise ValidationError("AnyOf needs at least one rule")
        self.rules: tuple[StoppingRule, ...] = tuple(flat)

    def __repr__(self) -> str:
        return f"AnyOf({', '.join(repr(r) for r in self.rules)})"

    @property
    def needs_reference(self) -> bool:  # type: ignore[override]
        return any(r.needs_reference for r in self.rules)

    @property
    def needs_system(self) -> bool:  # type: ignore[override]
        return any(r.needs_system for r in self.rules)

    @property
    def needs_waves(self) -> bool:  # type: ignore[override]
        return any(r.needs_waves for r in self.rules)

    def begin(self, ctx: SolveContext) -> "AnyOfMonitor":
        return AnyOfMonitor(self, [r.begin(ctx) for r in self.rules])


class AnyOfMonitor(RuleMonitor):
    def __init__(self, rule: AnyOf, children: Sequence[RuleMonitor]
                 ) -> None:
        super().__init__(rule, "any_of")
        self.children = list(children)
        # the composite's trace is its primary (first) member's
        self.series = self.children[0].series

    def _update(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        event = None
        for child in self.children:
            ev = child.update(t, probe)
            if ev is not None and event is None:
                event = ev
        return event

    def finalize(self, t: float, probe: StateProbe) -> Optional[StopEvent]:
        if self.fired is None:
            event = None
            for child in self.children:
                ev = child.finalize(t, probe)
                if ev is not None and event is None:
                    event = ev
            self.fired = event
        return self.fired


def reuse_system(plan, graph) -> tuple:
    """``system=`` argument for :func:`begin_monitor` from a plan.

    Pairs the plan's assembled ``a_mat`` with *graph*'s current sources
    so ``needs_system`` rules don't re-assemble the CSR on every solve.
    """
    return plan.a_mat, np.asarray(graph.sources, dtype=np.float64)


def plan_reference(plan, graph):
    """Lazy ``reference=`` supplier for :func:`begin_monitor`.

    The plan's cached direct solution for *graph*'s current sources
    (:meth:`SolverPlan.reference <repro.plan.plan.SolverPlan.reference>`),
    invoked only when a reference-needing rule is in play, so a
    reference-free run never builds the plan's reference factor.
    """
    b = np.asarray(graph.sources, dtype=np.float64)
    return lambda: plan.reference(b)


def primary_tol(rule: "StoppingRule") -> Optional[float]:
    """The tolerance governing a rule tree's *primary* metric trace.

    ``RuleMonitor.series`` (and hence a run's ``errors`` trace) carries
    the primary — first — rule's metric, so time-to-tolerance queries
    must use that rule's own tolerance, never the run-level reference
    ``tol``: applying a reference-error tolerance to a residual or
    wave-delta series would compare across metric domains.  Rules
    without a ``tol`` (quiescence, horizon) yield ``None``.
    """
    if isinstance(rule, AnyOf):
        return primary_tol(rule.rules[0])
    return getattr(rule, "tol", None)


def begin_monitor(stopping, *, tol: Optional[float] = None,
                  metric: str = "rms", graph=None, system=None,
                  reference=None
                  ) -> tuple["StoppingRule", RuleMonitor,
                             Optional[np.ndarray]]:
    """Resolve a ``stopping=``/``tol``/``reference`` triple to a monitor.

    The one shared entry point for every execution layer; returns
    ``(rule, monitor, reference)`` where the last element is the
    reference actually in play (``None`` on reference-free runs).
    An explicit *system* ``(a, b)`` pair or *graph* (an object with
    ``to_system()``) supplies the linear system, read only when the
    rule tree consumes it.  *reference* is an array or a lazy
    zero-argument supplier — the engines built from a plan pass
    :func:`plan_reference` — invoked only when a reference-needing
    rule is in play; such a rule without one raises
    :class:`ConfigurationError`.
    """
    rule = as_stopping_rule(stopping, tol=tol, metric=metric)
    ctx_a = ctx_b = None
    if rule.needs_system:
        if system is not None:
            ctx_a, ctx_b = system
        elif graph is not None:
            ctx_a, ctx_b = graph.to_system()
        else:
            raise ConfigurationError(
                "begin_monitor needs a graph or an (a, b) system")
    ctx = SolveContext(a=ctx_a, b=ctx_b, reference=reference)
    monitor = rule.begin(ctx)
    # hand back the reference actually in play: the context's cached
    # materialization if a rule pulled it, else a concrete array the
    # caller passed (lazy suppliers stay uninvoked on reference-free
    # runs)
    ref = ctx._ref
    if ref is None and reference is not None and not callable(reference):
        ref = np.asarray(reference, dtype=np.float64)
    return rule, monitor, ref


#: string shorthands accepted by ``stopping=`` parameters
_RULE_ALIASES = {
    "reference": lambda tol, metric: ReferenceRule(tol=tol, metric=metric),
    "residual": lambda tol, metric: ResidualRule(tol=tol or 1e-8),
    "quiescence": lambda tol, metric: QuiescenceRule(),
}


def as_stopping_rule(stopping, *, tol: Optional[float] = None,
                     metric: str = "rms") -> StoppingRule:
    """Coerce a ``stopping=`` argument into a :class:`StoppingRule`.

    ``None`` keeps the historical behaviour — the paper's
    :class:`ReferenceRule` at the run's ``tol``.  Strings name the
    rule classes with default settings.
    """
    if stopping is None:
        return ReferenceRule(tol=tol, metric=metric)
    if isinstance(stopping, StoppingRule):
        return stopping
    if isinstance(stopping, str):
        factory = _RULE_ALIASES.get(stopping)
        if factory is None:
            raise ValidationError(
                f"unknown stopping rule {stopping!r}; choose from "
                f"{sorted(_RULE_ALIASES)} or pass a StoppingRule")
        return factory(tol, metric)
    raise ValidationError(
        f"stopping must be a StoppingRule, a rule name or None, got "
        f"{type(stopping).__name__}")
