"""Electric Vertex Splitting (EVS / "wire tearing") — paper §4.

Given an electric graph and a :class:`~repro.graph.partition.Partition`
(labels + vertex separator), EVS performs the paper's four steps:

1. the separator set ``G_B`` marks the boundary vertices;
2. each boundary vertex is split into **twin copies**, one per adjacent
   subdomain (two copies = level-one split; four copies at grid line
   crossings = the level-two *multilevel wire tearing* of paper Fig 6);
3. the vertex's weight and source — and the weights of edges joining
   two boundary vertices — are split among the copies according to a
   :class:`SplitStrategy`;
4. inflow currents ω are introduced at the copies, turning each
   subgraph into the self-contained block system (4.3).

The result also fixes where DTLPs go (paper §5): for every split vertex
a set of twin links connects its copies according to a
``twin_topology`` — ``"tree"`` (balanced binary, the paper's Fig 6
picture), ``"chain"``, ``"star"`` or ``"complete"``.

Exactness invariant (tested property): summing the subdomain systems
back over the copy map reproduces ``A`` and ``b`` bit-for-bit up to
floating-point addition ordering, and at any consistent steady state
(twin potentials equal, twin currents cancelling) the gathered solution
solves the original system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ..errors import PartitionError, ValidationError
from ..linalg.sparse import CsrMatrix
from ..linalg.spd import DefinitenessReport, definiteness_report
from .electric import ElectricGraph
from .partition import Partition, Subdomain, TwinLink

_TWIN_TOPOLOGIES = ("tree", "chain", "star", "complete")




# ----------------------------------------------------------------------
# split strategies (paper §4 step 3)
# ----------------------------------------------------------------------
class SplitStrategy:
    """How to apportion weights/sources of split vertices and edges.

    Subclasses override the three hooks; every fraction dict they
    return must be positive-summed to 1 over the given parts (validated
    by the splitter).
    """

    def edge_fractions(
        self, u: int, v: int, weight: float, parts: Sequence[int]
    ) -> dict[int, float]:
        """Fractions of a boundary-boundary edge weight per part."""
        k = len(parts)
        return {q: 1.0 / k for q in parts}

    def vertex_fractions(
        self, v: int, weight: float, loads: Mapping[int, float]
    ) -> dict[int, float]:
        """Fractions of a split vertex's weight per part.

        *loads* maps each copy's part to the absolute off-diagonal
        weight already assigned to that copy.
        """
        k = len(loads)
        return {q: 1.0 / k for q in loads}

    def source_fractions(
        self, v: int, source: float, weight_fractions: Mapping[int, float]
    ) -> dict[int, float]:
        """Fractions of the split vertex's source (default: as weight)."""
        return dict(weight_fractions)


class EqualSplit(SplitStrategy):
    """Split everything evenly among copies (simplest valid choice)."""


class DominancePreservingSplit(SplitStrategy):
    """Keep every copy diagonally dominant whenever the original row is.

    Copy *q* receives its own off-diagonal load ``L_q`` plus an equal
    share of the slack ``a_vv − Σ L``; by Gershgorin each subgraph stays
    SNND for diagonally dominant inputs — the cheap way to satisfy the
    hypotheses of Theorem 6.1.  Falls back to load-proportional shares
    when the row is not dominant.
    """

    def vertex_fractions(
        self, v: int, weight: float, loads: Mapping[int, float]
    ) -> dict[int, float]:
        parts = sorted(loads)
        k = len(parts)
        total_load = float(sum(loads.values()))
        if weight <= 0.0:
            return {q: 1.0 / k for q in parts}
        slack = weight - total_load
        if slack >= 0.0:
            return {q: (loads[q] + slack / k) / weight for q in parts}
        if total_load <= 0.0:  # pragma: no cover - degenerate
            return {q: 1.0 / k for q in parts}
        return {q: loads[q] / total_load for q in parts}


class ExplicitSplit(SplitStrategy):
    """Table-driven splitting to reproduce the paper's Example 4.1.

    Parameters map vertices / edges to per-part fractions; anything not
    listed falls back to *default* (equal split unless given).
    """

    def __init__(
        self,
        vertex: Mapping[int, Mapping[int, float]] | None = None,
        source: Mapping[int, Mapping[int, float]] | None = None,
        edge: Mapping[tuple[int, int], Mapping[int, float]] | None = None,
        default: SplitStrategy | None = None,
    ) -> None:
        self._vertex = {int(k): dict(v) for k, v in (vertex or {}).items()}
        self._source = {int(k): dict(v) for k, v in (source or {}).items()}
        self._edge = {
            (min(k), max(k)): dict(v) for k, v in (edge or {}).items()
        }
        self._default = default or EqualSplit()

    def edge_fractions(self, u, v, weight, parts):
        key = (min(u, v), max(u, v))
        if key in self._edge:
            return dict(self._edge[key])
        return self._default.edge_fractions(u, v, weight, parts)

    def vertex_fractions(self, v, weight, loads):
        if v in self._vertex:
            return dict(self._vertex[v])
        return self._default.vertex_fractions(v, weight, loads)

    def source_fractions(self, v, source, weight_fractions):
        if v in self._source:
            return dict(self._source[v])
        if v in self._vertex:
            return dict(self._vertex[v])
        return self._default.source_fractions(v, source, weight_fractions)


# ----------------------------------------------------------------------
# twin-link topologies (how DTLPs connect >2 copies; paper Fig 6)
# ----------------------------------------------------------------------
def twin_pairs(k: int, topology: str) -> list[tuple[int, int]]:
    """Index pairs connecting *k* copies under the given topology.

    All topologies yield a connected graph over the copies, which is
    what steady-state consistency (all potentials equal, currents
    summing to zero) requires.
    """
    if topology not in _TWIN_TOPOLOGIES:
        raise ValidationError(
            f"unknown twin topology {topology!r}; choose from "
            f"{_TWIN_TOPOLOGIES}"
        )
    if k < 2:
        return []
    if topology == "chain":
        return [(i, i + 1) for i in range(k - 1)]
    if topology == "star":
        return [(0, i) for i in range(1, k)]
    if topology == "complete":
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    # balanced binary tree: recursively halve, linking group leaders —
    # the multilevel picture of paper Fig 6
    pairs: list[tuple[int, int]] = []

    def recurse(lo: int, hi: int) -> None:
        if hi - lo <= 1:
            return
        mid = (lo + hi + 1) // 2
        pairs.append((lo, mid))
        recurse(lo, mid)
        recurse(mid, hi)

    recurse(0, k)
    return pairs


# ----------------------------------------------------------------------
# split result
# ----------------------------------------------------------------------
@dataclass
class SplitResult:
    """Everything EVS produces: subdomains, twin links, copy map."""

    graph: ElectricGraph
    partition: Partition
    subdomains: list[Subdomain]
    twin_links: list[TwinLink]
    copies: dict[int, list[int]]
    #: per part: the fraction of its split vertex's source each port
    #: receives (inner vertices keep all of theirs)
    port_weights: list[np.ndarray]
    notes: list[str] = field(default_factory=list)
    #: per split vertex: the fraction of its source each copy received
    source_fractions: dict[int, dict[int, float]] = field(default_factory=dict)
    #: the subdomains' ``global_vertices`` back to back, and the copies
    #: per global vertex: constants of the split, filled by the first
    #: gather and shared by :meth:`with_sources` variants
    _copy_index: np.ndarray | None = field(default=None, repr=False)
    _copy_counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_parts(self) -> int:
        return len(self.subdomains)

    @property
    def split_vertices(self) -> list[int]:
        """Vertices that were actually split (>= 2 copies)."""
        return sorted(self.levels())

    def levels(self) -> dict[int, int]:
        """Wire-tearing level per split vertex: level L ⇔ 2^L copies.

        A 2-copy split is level one, a 4-copy split level two (paper
        Fig 6); intermediate counts report the ceiling level.
        """
        copies = self.copies.items()
        return {v: (len(p) - 1).bit_length() for v, p in copies if len(p) > 1}

    # ------------------------------------------------------------------
    # exactness
    # ------------------------------------------------------------------
    def reassemble(self) -> tuple[CsrMatrix, np.ndarray]:
        """Sum the subdomain systems back to a global (A, b)."""
        n = self.graph.n
        b = np.zeros(n)
        triplets = []
        for sub in self.subdomains:
            coo = sub.matrix.to_scipy().tocoo()
            gv = sub.global_vertices
            triplets.append((gv[coo.row], gv[coo.col], coo.data))
            np.add.at(b, gv, sub.rhs)
        rows, cols, vals = map(np.concatenate, zip(*triplets))
        return CsrMatrix.from_coo(rows, cols, vals, (n, n)), b

    def assert_exact(self, atol: float = 1e-9) -> None:
        """Raise unless reassembly reproduces the original system."""
        a, b = self.reassemble()
        a0, b0 = self.graph.to_system()
        dev_a = dev_b = 0.0
        if self.graph.n:
            dev_a = float(np.max(np.abs(a.to_dense() - a0.to_dense())))
            dev_b = float(np.max(np.abs(b - b0)))
        if dev_a > atol or dev_b > atol:
            raise PartitionError(
                f"EVS reassembly mismatch: |dA|={dev_a:.3e}, |db|={dev_b:.3e}"
            )

    # ------------------------------------------------------------------
    # solution transfer
    # ------------------------------------------------------------------
    def _copy_map(self) -> tuple[np.ndarray, np.ndarray]:
        """``(_copy_index, _copy_counts)``, computed on first use."""
        if self._copy_counts is None:
            gv = [sub.global_vertices for sub in self.subdomains]
            index = np.concatenate(gv)
            cnt = np.bincount(index, minlength=self.graph.n).astype(float)
            if np.any(cnt == 0):
                raise PartitionError("gather: some vertices have no copy")
            self._copy_index, self._copy_counts = index, cnt
        return self._copy_index, self._copy_counts

    def gather(
        self, local_values: Sequence[np.ndarray], mode: str = "average"
    ) -> np.ndarray:
        """Assemble a global vector from per-subdomain local vectors.

        Split vertices take the ``"average"`` of their copies (default)
        or the ``"first"`` copy's value.
        """
        if mode not in ("average", "first"):
            raise ValidationError(f"unknown gather mode {mode!r}")
        vecs = [np.asarray(vec, dtype=np.float64) for vec in local_values]
        for sub, vec in zip(self.subdomains, vecs):
            if vec.shape != (sub.n_local,):
                raise ValidationError(
                    f"subdomain {sub.part} local vector has shape "
                    f"{vec.shape}, expected ({sub.n_local},)"
                )
        if mode == "average":
            return self.gather_flat(np.concatenate(vecs))
        acc = np.zeros(self.graph.n)
        seen = np.zeros(self.graph.n, dtype=bool)
        for sub, vec in zip(self.subdomains, vecs):
            first = ~seen[sub.global_vertices]
            acc[sub.global_vertices[first]] = vec[first]
            seen[sub.global_vertices] = True
        return acc

    def gather_flat(self, states: np.ndarray) -> np.ndarray:
        """:meth:`gather` of the subdomains' local vectors laid
        back-to-back in part order — the state layout of the in-process
        fleet and of the sharded runtime's shared buffer alike.

        One ``bincount``: it adds in input order, so every vertex sums
        its copies in part order, as a per-part ``np.add.at`` would.
        """
        index, counts = self._copy_map()
        states = np.asarray(states, dtype=np.float64)
        if states.shape != index.shape:
            raise ValidationError(
                f"flat state has shape {states.shape}, expected {index.shape}"
            )
        return np.bincount(index, states, self.graph.n) / counts

    def spread(self, x_global) -> list[np.ndarray]:
        """Restrict a global vector to each subdomain's local ordering."""
        x = np.asarray(x_global, dtype=np.float64)
        if x.shape != (self.graph.n,):
            raise ValidationError(
                f"global vector must have shape ({self.graph.n},)"
            )
        return [x[sub.global_vertices] for sub in self.subdomains]

    def with_sources(
        self, b, rhs_list: Sequence[np.ndarray] | None = None
    ) -> "SplitResult":
        """A shallow variant of this split carrying right-hand side *b*.

        The split topology (partition, copies, twin links, matrices) is
        shared; only the graph's sources and the subdomains' ``rhs``
        vectors are replaced, so callers who read ``split.graph`` /
        ``subdomain.rhs`` off a plan-reused solve see the right-hand
        side that solve actually used.  Returns ``self`` unchanged when
        *b* already equals the baked-in sources.
        """
        b = np.asarray(b, dtype=np.float64)
        if np.array_equal(b, self.graph.sources):
            return self
        if rhs_list is None:
            rhs_list = self.spread_sources(b)
        graph = self.graph.with_sources(b)
        subs = [replace(s, rhs=r) for s, r in zip(self.subdomains, rhs_list)]
        return replace(self, graph=graph, subdomains=subs)

    def spread_sources(self, b) -> list[np.ndarray]:
        """Per-subdomain right-hand sides for a *new* global source *b*.

        The RHS-swap primitive of the plan/session architecture: the
        split topology (copies, ports, twin links) is source-independent,
        so a changed right-hand side only re-weights the ports of each
        gathered local vector by :attr:`port_weights`.  *b* may be 1-D
        ``(n,)`` or a column block ``(n, k)``; with ``b ==
        graph.sources`` the 1-D result equals every subdomain's
        baked-in ``rhs`` bitwise.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.graph.n or b.ndim > 2:
            raise ValidationError(
                f"source vector must have {self.graph.n} rows, got shape "
                f"{b.shape}"
            )
        out = []
        for sub, w in zip(self.subdomains, self.port_weights):
            local = b[sub.global_vertices]
            local[: sub.n_ports] *= w if b.ndim == 1 else w[:, None]
            out.append(local)
        return out

    # ------------------------------------------------------------------
    # theorem 6.1 hypotheses
    # ------------------------------------------------------------------
    def definiteness(self) -> DefinitenessReport:
        """SPD/SNND classification of every subdomain matrix."""
        return definiteness_report([s.matrix for s in self.subdomains])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SplitResult(parts={self.n_parts}, "
            f"split_vertices={len(self.split_vertices)}, "
            f"twin_links={len(self.twin_links)})"
        )


# ----------------------------------------------------------------------
# the splitter
# ----------------------------------------------------------------------
def split_graph(
    graph: ElectricGraph,
    partition: Partition,
    strategy: SplitStrategy | None = None,
    twin_topology: str = "tree",
) -> SplitResult:
    """Perform EVS on *graph* under *partition*.

    Returns a :class:`SplitResult` whose subdomains are the paper's
    block systems (4.3) with ports ordered first, plus the twin links
    where §5 inserts DTLPs.  The work over all edges is numpy; Python
    loops run only per separator vertex, per split vertex and per edge
    joining two separator vertices.
    """
    strategy = strategy or EqualSplit()
    partition.validate(graph)
    notes: list[str] = []
    n, n_parts = graph.n, partition.n_parts
    labels, sep = partition.labels, partition.separator
    eu, ev, ew = graph.edge_u, graph.edge_v, graph.edge_weights
    vw, src = graph.vertex_weights, graph.sources

    # ---- step 2: copies per separator vertex -------------------------
    # the parts of each separator vertex's interior neighbours
    sep_u, sep_v = sep[eu], sep[ev]
    at_u, at_v = sep_u & ~sep_v, sep_v & ~sep_u
    owner = np.concatenate([eu[at_u], ev[at_v]])
    part = labels[np.concatenate([ev[at_u], eu[at_v]])]
    keys = np.unique(owner * n_parts + part)
    sep_ids = np.nonzero(sep)[0]
    lo = np.searchsorted(keys, sep_ids * n_parts).tolist()
    hi = np.searchsorted(keys, (sep_ids + 1) * n_parts).tolist()
    key_parts = (keys % n_parts).tolist()
    copies = {v: key_parts[i:j] for v, i, j in zip(sep_ids.tolist(), lo, hi)}
    # fallback for separator vertices with no interior neighbours
    # (e.g. grid-line crossings): inherit the union of neighbouring
    # separator vertices' parts, in ascending order (a vertex sees what
    # a lower one inherited)
    lonely = [v for v, parts in copies.items() if not parts]
    if lonely:
        ends, others = np.concatenate([eu, ev]), np.concatenate([ev, eu])
        hit = np.nonzero(np.isin(ends, lonely))[0]
        hit = hit[np.argsort(ends[hit], kind="stable")]
        cut = np.searchsorted(ends[hit], lonely + [n]).tolist()
        nbrs = others[hit].tolist()
        for v, i, j in zip(lonely, cut, cut[1:]):
            inherited = set().union(*(copies[u] for u in nbrs[i:j]))
            if not inherited:
                notes.append(
                    f"isolated separator vertex {v} kept in its home part"
                )
            copies[v] = sorted(inherited)
    # a torn vertex always keeps a copy in its home part (as in the
    # paper's Example 4.1); this also prevents the separator from
    # swallowing a small part whole
    for v, home in zip(sep_ids.tolist(), labels[sep_ids].tolist()):
        if home not in copies[v]:
            copies[v] = sorted(copies[v] + [home])

    # ---- make every edge assignable -----------------------------------
    # a separator vertex has a copy in every interior neighbour's part,
    # so only an edge between two separator vertices can lack a common
    # part; in edge order, since an extension shows in later edges
    both = np.nonzero(sep_u & sep_v)[0]
    for u, v in zip(eu[both].tolist(), ev[both].tolist()):
        pu, pv = copies[u], copies[v]
        if not set(pu) & set(pv):
            q = min(pu[0], pv[0])
            lacking = v if q in pu else u
            copies[lacking] = sorted(copies[lacking] + [q])
            notes.append(
                f"extended copies of boundary edge ({u}, {v}) into part {q}"
            )

    split_ids = [v for v, parts in copies.items() if len(parts) >= 2]
    single = [(v, p[0]) for v, p in copies.items() if len(p) == 1]
    notes += [
        f"separator vertex {v} touches a single part {q}; treated as inner"
        for v, q in single
    ]
    is_split = np.zeros(n, dtype=bool)
    is_split[split_ids] = True

    # ---- steps 3-4: edge shares ---------------------------------------
    # an edge with an unsplit endpoint goes whole to that endpoint's
    # home part (an unsplit separator vertex's one copy is its home)
    split_u, split_v = is_split[eu], is_split[ev]
    inner_part = labels[np.where(split_u, ev, eu)]
    whole = np.nonzero(~(split_u & split_v))[0]
    torn = np.nonzero(split_u ^ split_v)[0]
    pair = np.nonzero(split_u & split_v)[0]
    pair_k, pair_q, pair_w = [], [], []  # split-split edge shares
    for k, u, v, w in zip(
        pair.tolist(), eu[pair].tolist(), ev[pair].tolist(), ew[pair].tolist()
    ):
        common = sorted(set(copies[u]) & set(copies[v]))
        fracs = strategy.edge_fractions(u, v, w, common)
        _check_fractions(fracs, common, f"edge ({u}, {v})")
        for q in common:
            share = w * fracs[q]
            if share != 0.0:
                pair_k.append(k)
                pair_q.append(q)
                pair_w.append(share)
    pk, pq = (np.asarray(a, dtype=np.int64) for a in (pair_k, pair_q))
    pw = np.asarray(pair_w, dtype=np.float64)

    # |off-diagonal weight| per (split vertex, part), summed in edge
    # order: bincount adds in input order
    rank = np.cumsum(is_split) - 1
    order = np.argsort(np.concatenate([torn, pk, pk]), kind="stable")
    x = np.concatenate([np.where(split_u, eu, ev)[torn], eu[pk], ev[pk]])
    xq = np.concatenate([inner_part[torn], pq, pq])
    flat = (rank[x] * n_parts + xq)[order]
    size = np.abs(np.concatenate([ew[torn], pw, pw]))[order]
    load = np.bincount(flat, size, len(split_ids) * n_parts).tolist()

    # vertex weight / source shares: per port copy (v, q), ascending v,
    # its diagonal ``a`` and source ``b`` share and its source fraction
    fractions: dict[int, dict[int, float]] = {}
    port_v, port_q, port_a, port_b, port_f = [], [], [], [], []
    for r, v in enumerate(split_ids):
        parts = copies[v]
        weight, source = float(vw[v]), float(src[v])
        loads = {q: load[r * n_parts + q] for q in parts}
        wfrac = strategy.vertex_fractions(v, weight, loads)
        _check_fractions(wfrac, parts, f"vertex {v} weight")
        sfrac = strategy.source_fractions(v, source, wfrac)
        _check_fractions(sfrac, parts, f"vertex {v} source")
        fractions[v] = {q: float(sfrac[q]) for q in parts}
        port_v += [v] * len(parts)
        port_q += parts
        port_a += [weight * wfrac[q] for q in parts]
        port_b += [source * sfrac[q] for q in parts]
        port_f += fractions[v].values()
    port_v, port_q = (np.asarray(a, dtype=np.int64) for a in (port_v, port_q))
    port_a, port_b, port_f = map(np.asarray, (port_a, port_b, port_f))

    # ---- assemble subdomains (ports first) ----------------------------
    def group(key: np.ndarray) -> list[np.ndarray]:  # positions by part
        cuts = np.cumsum(np.bincount(key, minlength=n_parts))[:-1]
        return np.split(np.argsort(key, kind="stable"), cuts)

    inner = np.nonzero(~is_split)[0]
    e_part = np.concatenate([inner_part[whole], pq])
    e_u = np.concatenate([eu[whole], eu[pk]])
    e_v = np.concatenate([ev[whole], ev[pk]])
    e_w = np.concatenate([ew[whole], pw])
    local = np.empty(n, dtype=np.int64)  # global -> local id in part q
    port_local = np.empty(port_v.size, dtype=np.int64)
    subdomains: list[Subdomain] = []
    weights: list[np.ndarray] = []
    for q, ports, own, edges in zip(
        range(n_parts), group(port_q), group(labels[inner]), group(e_part)
    ):
        inner_q = inner[own]
        locs = np.concatenate([port_v[ports], inner_q])
        m = locs.size
        diag = np.arange(m)
        local[locs] = diag
        port_local[ports] = diag[: ports.size]
        lu, lv, w = local[e_u[edges]], local[e_v[edges]], e_w[edges]
        rows = np.concatenate([diag, lu, lv])
        cols = np.concatenate([diag, lv, lu])
        vals = np.concatenate([port_a[ports], vw[inner_q], w, w])
        matrix = CsrMatrix.from_coo(rows, cols, vals, (m, m))
        rhs = np.concatenate([port_b[ports], src[inner_q]])
        subdomains.append(Subdomain(q, matrix, rhs, locs, ports.size))
        weights.append(port_f[ports])

    # ---- twin links -----------------------------------------------------
    links: list[TwinLink] = []
    ports_of = iter(port_local.tolist())  # in port-copy order
    for v in split_ids:
        parts = copies[v]
        here = [next(ports_of) for _ in parts]
        for i, j in twin_pairs(len(parts), twin_topology):
            links.append(TwinLink(v, parts[i], here[i], parts[j], here[j]))

    return SplitResult(
        graph, partition, subdomains, links, copies, weights, notes, fractions
    )


def _check_fractions(
    fracs: Mapping[int, float], parts: Sequence[int], what: str
) -> None:
    if set(fracs) != set(parts):
        raise ValidationError(
            f"split fractions for {what} cover parts {sorted(fracs)} "
            f"instead of {sorted(parts)}"
        )
    total = float(sum(fracs.values()))
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(
            f"split fractions for {what} sum to {total:.12f}, expected 1"
        )
