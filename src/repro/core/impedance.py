"""Characteristic-impedance selection (the knob behind paper Fig 9).

Theorem 6.1 guarantees convergence for *any* positive impedances, but
§5 shows the choice strongly affects speed (Fig 9's U-shaped RMS-error
curve).  This module provides the strategies the experiments sweep:

* :class:`FixedImpedance` — one scalar Z for every DTLP;
* :class:`PerVertexImpedance` — a table keyed by split vertex
  (Example 5.1: Z₂ = 0.2, Z₃ = 0.1);
* :class:`GeometricMeanImpedance` — ``Z = α / √(w_a w_b)`` where
  ``w_a, w_b`` are the twin copies' diagonal weights: the impedance is
  matched to the local conductance scale (transmission-line matching
  heuristic);
* :class:`DiagonalMeanImpedance` — ``Z = 2α / (w_a + w_b)``.

Every strategy maps a :class:`~repro.graph.evs.SplitResult` to one
impedance per twin link, ready for
:func:`~repro.core.dtl.build_dtlp_network`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import ConfigurationError
from ..graph.evs import SplitResult
from ..utils.validation import require_positive


class ImpedanceStrategy:
    """Base class: assign one positive Z per twin link of a split."""

    def assign(self, split: SplitResult) -> list[float]:
        """Return impedances aligned with ``split.twin_links``."""
        raise NotImplementedError

    @staticmethod
    def _port_weights(split: SplitResult) -> list[np.ndarray]:
        """Each subdomain's diagonal: port p of part q weighs ``[q][p]``."""
        return [sub.matrix.to_scipy().diagonal() for sub in split.subdomains]


class FixedImpedance(ImpedanceStrategy):
    """The same characteristic impedance on every DTLP."""

    def __init__(self, z: float = 1.0) -> None:
        self.z = require_positive(z, "z")

    def assign(self, split: SplitResult) -> list[float]:
        return [self.z] * len(split.twin_links)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedImpedance({self.z!r})"


class PerVertexImpedance(ImpedanceStrategy):
    """Impedance per split vertex, with optional default.

    The paper's Example 5.1 assigns Z per torn vertex (all DTLPs of one
    vertex share Z, as required for DTLs belonging to one DTLP).
    """

    def __init__(self, table: Mapping[int, float],
                 default: float | None = None) -> None:
        self.table = {int(v): require_positive(z, f"z[{v}]")
                      for v, z in table.items()}
        self.default = None if default is None else require_positive(
            default, "default")

    def assign(self, split: SplitResult) -> list[float]:
        out = []
        for link in split.twin_links:
            if link.vertex in self.table:
                out.append(self.table[link.vertex])
            elif self.default is not None:
                out.append(self.default)
            else:
                raise ConfigurationError(
                    f"no impedance for split vertex {link.vertex} and no "
                    "default given")
        return out

    def __repr__(self) -> str:  # value-bearing: plan-cache key material
        table = dict(sorted(self.table.items()))
        return f"PerVertexImpedance({table!r}, default={self.default!r})"


class GeometricMeanImpedance(ImpedanceStrategy):
    """``Z = α / √(w_a · w_b)`` from the twin copies' diagonal weights.

    Matching the line impedance to the geometric mean of the port
    conductances mirrors impedance matching of physical transmission
    lines; α rescales the whole family (the Fig 9 sweep knob).
    """

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = require_positive(alpha, "alpha")

    def assign(self, split: SplitResult) -> list[float]:
        out = []
        w = self._port_weights(split)
        for link in split.twin_links:
            wa = float(w[link.part_a][link.port_a])
            wb = float(w[link.part_b][link.port_b])
            if wa <= 0 or wb <= 0:
                raise ConfigurationError(
                    f"split vertex {link.vertex} has a non-positive copy "
                    "weight; geometric-mean impedance undefined")
            out.append(self.alpha / float(np.sqrt(wa * wb)))
        return out

    def __repr__(self) -> str:  # value-bearing: plan-cache key material
        return f"GeometricMeanImpedance({self.alpha!r})"


class DiagonalMeanImpedance(ImpedanceStrategy):
    """``Z = 2α / (w_a + w_b)`` — arithmetic-mean conductance matching."""

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = require_positive(alpha, "alpha")

    def assign(self, split: SplitResult) -> list[float]:
        out = []
        w = self._port_weights(split)
        for link in split.twin_links:
            wa = float(w[link.part_a][link.port_a])
            wb = float(w[link.part_b][link.port_b])
            total = wa + wb
            if total <= 0:
                raise ConfigurationError(
                    f"split vertex {link.vertex} has non-positive total copy "
                    "weight; diagonal-mean impedance undefined")
            out.append(2.0 * self.alpha / float(total))
        return out

    def __repr__(self) -> str:  # value-bearing: plan-cache key material
        return f"DiagonalMeanImpedance({self.alpha!r})"


def as_impedance_strategy(spec) -> ImpedanceStrategy:
    """Coerce a scalar / mapping / strategy into an ImpedanceStrategy."""
    if isinstance(spec, ImpedanceStrategy):
        return spec
    if isinstance(spec, (int, float)):
        return FixedImpedance(float(spec))
    if isinstance(spec, Mapping):
        return PerVertexImpedance(spec)
    raise ConfigurationError(
        f"cannot interpret {spec!r} as an impedance strategy")
