"""Heterogeneous network topologies with asymmetric N2N delays (§7).

The paper evaluates DTM on a 4×4 processor mesh whose per-direction
communication delays range from 10 ms to 99 ms ("the delay from Pk to
Pj is quite different from the delay from Pj to Pk", Fig 11) and on an
8×8 mesh with delays uniform in [10, 100] ms (Fig 13).  This module
builds those topologies with seeded randomness and exposes the data the
paper's bar charts plot.

Delays are *directed*: ``delay(i → j)`` and ``delay(j → i)`` are
independent samples.  A :class:`DelayModel` per link supports constant
delays (the paper's setting) and per-message jitter (an extension used
by robustness tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..utils.rng import SeedLike, as_generator


# ----------------------------------------------------------------------
# delay models
# ----------------------------------------------------------------------
class DelayModel:
    """Per-link delay: nominal value + per-message sampling."""

    def nominal(self) -> float:
        """Deterministic delay used for the DTL delay mapping."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> float:
        """Delay experienced by one message (default: the nominal)."""
        return self.nominal()


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """Fixed propagation delay (the paper's model)."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValidationError("delay must be non-negative")

    def nominal(self) -> float:
        return self.value


@dataclass(frozen=True)
class JitteredDelay(DelayModel):
    """Constant base delay plus uniform multiplicative jitter.

    A message experiences ``base * U[1−jitter, 1+jitter]``; the nominal
    delay (used by the algorithm-architecture mapping) stays ``base``.
    """

    base: float
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValidationError("delay must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValidationError("jitter fraction must lie in [0, 1)")

    def nominal(self) -> float:
        return self.base

    def sample(self, rng: np.random.Generator) -> float:
        return self.base * float(rng.uniform(1.0 - self.jitter,
                                             1.0 + self.jitter))


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
@dataclass
class Topology:
    """Directed communication graph between processors."""

    n_procs: int
    links: dict[tuple[int, int], DelayModel]
    name: str = "custom"
    _rng: np.random.Generator = field(default_factory=np.random.default_rng,
                                      repr=False)

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValidationError("need at least one processor")
        for (src, dst) in self.links:
            if not (0 <= src < self.n_procs and 0 <= dst < self.n_procs):
                raise ValidationError(
                    f"link ({src}, {dst}) references unknown processors")
            if src == dst:
                raise ValidationError("self-links are not allowed")

    def seed(self, seed: SeedLike) -> "Topology":
        """Reset the per-message jitter RNG (fluent)."""
        self._rng = as_generator(seed)
        return self

    def nominal_delay(self, src: int, dst: int) -> float:
        """Deterministic link delay (the DTL mapping value)."""
        if src == dst:
            return 0.0
        try:
            return self.links[(src, dst)].nominal()
        except KeyError:
            raise ConfigurationError(
                f"no communication link from processor {src} to {dst}; "
                "the subdomain placement must respect the topology") from None

    def sample_delay(self, src: int, dst: int) -> float:
        """Delay of one concrete message."""
        if src == dst:
            return 0.0
        try:
            return self.links[(src, dst)].sample(self._rng)
        except KeyError:
            raise ConfigurationError(
                f"no communication link from processor {src} to {dst}") \
                from None

    def is_jittered(self, src: int, dst: int) -> bool:
        """True when a message from *src* to *dst* draws its delay."""
        return isinstance(self.links.get((src, dst)), JitteredDelay)

    def sample_delays(self, src: int, dst_procs) -> np.ndarray:
        """:meth:`sample_delay` for one emission's messages, in order:
        the jittered links draw in one ``rng.uniform`` call (the values
        and the RNG state after equal one :meth:`sample_delay` per
        message), the others take their nominal delay."""
        procs, inv = np.unique(np.asarray(dst_procs, dtype=np.int64),
                               return_inverse=True)
        procs = procs.tolist()
        out = np.array([self.nominal_delay(src, d) for d in procs])[inv]
        jit = np.array([self.links[(src, d)].jitter
                        if self.is_jittered(src, d) else np.nan
                        for d in procs])[inv]
        drawn = ~np.isnan(jit)
        if drawn.any():
            out[drawn] *= self._rng.uniform(1.0 - jit[drawn],
                                            1.0 + jit[drawn])
        return out

    def neighbors(self, proc: int) -> list[int]:
        """Processors reachable from *proc* (outgoing links)."""
        return sorted({dst for (src, dst) in self.links if src == proc})

    def delay_table(self) -> list[tuple[int, int, float]]:
        """Sorted ``(src, dst, nominal_delay)`` rows — the bar-chart data
        of paper Figs 11B and 13B."""
        return sorted((src, dst, model.nominal())
                      for (src, dst), model in self.links.items())

    def delay_stats(self) -> dict[str, float]:
        """min / max / mean / max-min ratio of nominal link delays."""
        delays = np.asarray([m.nominal() for m in self.links.values()])
        if delays.size == 0:
            return {"min": 0.0, "max": 0.0, "mean": 0.0, "ratio": 1.0}
        dmin = float(delays.min())
        return {
            "min": dmin,
            "max": float(delays.max()),
            "mean": float(delays.mean()),
            "ratio": float(delays.max() / dmin) if dmin > 0 else np.inf,
        }

    def asymmetry(self) -> float:
        """Mean |d(i→j) − d(j→i)| / mean delay over bidirectional pairs."""
        diffs, base = [], []
        for (src, dst), model in self.links.items():
            if src < dst and (dst, src) in self.links:
                back = self.links[(dst, src)].nominal()
                diffs.append(abs(model.nominal() - back))
                base.append(0.5 * (model.nominal() + back))
        if not diffs:
            return 0.0
        return float(np.mean(diffs) / np.mean(base))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def custom_topology(delays: Mapping[tuple[int, int], float],
                    n_procs: int | None = None,
                    name: str = "custom") -> Topology:
    """Topology from an explicit ``(src, dst) → delay`` table.

    Example 5.1's two-processor machine is
    ``custom_topology({(0, 1): 6.7, (1, 0): 2.9})``.
    """
    if not delays:
        raise ConfigurationError("delay table is empty")
    inferred = max(max(s, d) for s, d in delays) + 1
    n = inferred if n_procs is None else int(n_procs)
    links = {(int(s), int(d)): ConstantDelay(float(v))
             for (s, d), v in delays.items()}
    return Topology(n_procs=n, links=links, name=name)


def _mesh_pairs(rows: int, cols: int) -> Iterable[tuple[int, int]]:
    """Undirected neighbour pairs of a rows×cols processor mesh."""
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                yield p, p + 1
            if r + 1 < rows:
                yield p, p + cols


def mesh_topology(rows: int, cols: int, *, delay_low: float,
                  delay_high: float, seed: SeedLike = 0,
                  integer_delays: bool = False, jitter: float = 0.0,
                  name: str | None = None) -> Topology:
    """Mesh with independent per-direction delays ~ U[low, high].

    ``integer_delays`` reproduces the paper's Fig 11 style (whole-ms
    values); ``jitter`` switches links to :class:`JitteredDelay`.
    """
    if rows < 1 or cols < 1:
        raise ValidationError("mesh dimensions must be positive")
    if not 0 < delay_low <= delay_high:
        raise ValidationError("need 0 < delay_low <= delay_high")
    rng = as_generator(seed)
    links: dict[tuple[int, int], DelayModel] = {}
    for a, b in _mesh_pairs(rows, cols):
        for (src, dst) in ((a, b), (b, a)):
            if integer_delays:
                d = float(rng.integers(int(delay_low), int(delay_high) + 1))
            else:
                d = float(rng.uniform(delay_low, delay_high))
            links[(src, dst)] = (JitteredDelay(d, jitter) if jitter > 0
                                 else ConstantDelay(d))
    topo = Topology(n_procs=rows * cols, links=links,
                    name=name or f"mesh{rows}x{cols}")
    return topo.seed(rng)


def paper_fig11_topology(seed: SeedLike = 2008) -> Topology:
    """The 16-processor 4×4 mesh of paper Fig 11.

    Per-direction integer delays in [10, 99] ms with both extremes
    present, so the paper's headline statistic — maximum delay ≈ 9×
    the minimum — holds exactly.
    """
    topo = mesh_topology(4, 4, delay_low=10, delay_high=99, seed=seed,
                         integer_delays=True, name="fig11-4x4")
    keys = sorted(topo.links)
    rng = as_generator(seed)
    lo_key, hi_key = rng.choice(len(keys), size=2, replace=False)
    topo.links[keys[int(lo_key)]] = ConstantDelay(10.0)
    topo.links[keys[int(hi_key)]] = ConstantDelay(99.0)
    return topo


def paper_fig13_topology(seed: SeedLike = 2008) -> Topology:
    """The 64-processor 8×8 mesh of paper Fig 13 (delays ~ U[10, 100] ms)."""
    return mesh_topology(8, 8, delay_low=10.0, delay_high=100.0, seed=seed,
                         name="fig13-8x8")


def complete_topology(n_procs: int, *, delay_low: float = 10.0,
                      delay_high: float = 100.0, seed: SeedLike = 0,
                      name: str = "complete") -> Topology:
    """Fully connected topology with independent per-direction delays.

    The safe default when the subdomain adjacency is not known to match
    a mesh (any pair of subdomains may need to exchange waves).
    """
    if n_procs < 1:
        raise ValidationError("need at least one processor")
    if not 0 < delay_low <= delay_high:
        raise ValidationError("need 0 < delay_low <= delay_high")
    rng = as_generator(seed)
    links = {(i, j): ConstantDelay(float(rng.uniform(delay_low, delay_high)))
             for i in range(n_procs) for j in range(n_procs) if i != j}
    return Topology(n_procs=n_procs, links=links, name=name).seed(rng)


def uniform_topology(n_procs: int, delay: float = 1.0,
                     name: str = "uniform") -> Topology:
    """Fully connected topology with one constant delay everywhere.

    With equal delays DTM degenerates towards VTM — used by tests and
    the DTM/VTM gap ablation.
    """
    if n_procs < 1:
        raise ValidationError("need at least one processor")
    links = {(i, j): ConstantDelay(float(delay))
             for i in range(n_procs) for j in range(n_procs) if i != j}
    return Topology(n_procs=n_procs, links=links, name=name)
