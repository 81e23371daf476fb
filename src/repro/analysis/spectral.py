"""Spectral analysis of the wave iteration (synchronous limit).

The VTM wave map ``a ↦ S a + c`` is affine; ρ(S) < 1 is the synchronous
convergence certificate and a sharp proxy for DTM's per-round-trip
contraction.  These helpers are used by the impedance ablation (how the
Fig 9 knob moves ρ) and by tests of Theorem 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.vtm import VtmSolver
from ..graph.evs import SplitResult
from ..plan import build_plan
from ..utils.timeseries import TimeSeries


@dataclass
class SpectralReport:
    """Wave-operator spectrum of one (split, impedance) configuration."""

    spectral_radius: float
    eigenvalues: np.ndarray
    n_waves: int

    @property
    def converges(self) -> bool:
        """Synchronous convergence certificate ρ(S) < 1."""
        return self.spectral_radius < 1.0

    def iterations_to(self, factor: float = 1e-8) -> float:
        """Estimated sweep count to contract the error by *factor*."""
        if self.spectral_radius <= 0.0:
            return 1.0
        if self.spectral_radius >= 1.0:
            return np.inf
        return float(np.log(factor) / np.log(self.spectral_radius))


def wave_spectral_report(split: SplitResult, impedance=1.0) -> SpectralReport:
    """Materialise S by probing and report its spectrum."""
    solver = VtmSolver(build_plan(split=split, impedance=impedance,
                                  mode="vtm"))
    if solver.n_waves == 0:
        return SpectralReport(0.0, np.zeros(0, dtype=complex), 0)
    S, _ = solver.wave_operator()
    eigs = np.linalg.eigvals(S)
    return SpectralReport(float(np.max(np.abs(eigs))), eigs, solver.n_waves)


def impedance_sweep_spectral(split: SplitResult, alphas,
                             base_strategy_factory) -> list[tuple[float, float]]:
    """ρ(S) as a function of the impedance scale α (Fig 9 analysis).

    ``base_strategy_factory(alpha)`` must return an impedance spec.
    Returns ``(alpha, rho)`` pairs.
    """
    out = []
    for alpha in alphas:
        rho = wave_spectral_report(split, base_strategy_factory(alpha)
                                   ).spectral_radius
        out.append((float(alpha), rho))
    return out


def observed_contraction_rate(series: TimeSeries, fraction: float = 0.5
                              ) -> float:
    """Per-time-unit contraction factor 10^slope of an error trace."""
    return float(10.0 ** series.tail_slope(fraction))
