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

    def edge_fractions(self, u: int, v: int, weight: float,
                       parts: Sequence[int]) -> dict[int, float]:
        """Fractions of a boundary-boundary edge weight per part."""
        k = len(parts)
        return {q: 1.0 / k for q in parts}

    def vertex_fractions(self, v: int, weight: float,
                         loads: Mapping[int, float]) -> dict[int, float]:
        """Fractions of a split vertex's weight per part.

        *loads* maps each copy's part to the absolute off-diagonal
        weight already assigned to that copy.
        """
        k = len(loads)
        return {q: 1.0 / k for q in loads}

    def source_fractions(self, v: int, source: float,
                         weight_fractions: Mapping[int, float]
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

    def vertex_fractions(self, v: int, weight: float,
                         loads: Mapping[int, float]) -> dict[int, float]:
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

    def __init__(self,
                 vertex: Mapping[int, Mapping[int, float]] | None = None,
                 source: Mapping[int, Mapping[int, float]] | None = None,
                 edge: Mapping[tuple[int, int], Mapping[int, float]] | None = None,
                 default: SplitStrategy | None = None) -> None:
        self._vertex = {int(k): dict(v) for k, v in (vertex or {}).items()}
        self._source = {int(k): dict(v) for k, v in (source or {}).items()}
        self._edge = {(min(k), max(k)): dict(v)
                      for k, v in (edge or {}).items()}
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
            f"{_TWIN_TOPOLOGIES}")
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
    notes: list[str] = field(default_factory=list)
    #: per split vertex: the fraction of its source each copy received
    #: (recorded by :func:`split_graph`; powers :meth:`spread_sources`).
    source_fractions: dict[int, dict[int, float]] = field(
        default_factory=dict)
    #: copies per global vertex: a constant of the split, filled by the
    #: first :meth:`gather` and shared by :meth:`with_sources` variants
    _copy_counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_parts(self) -> int:
        return len(self.subdomains)

    @property
    def split_vertices(self) -> list[int]:
        """Vertices that were actually split (>= 2 copies)."""
        return sorted(v for v, parts in self.copies.items() if len(parts) >= 2)

    def levels(self) -> dict[int, int]:
        """Wire-tearing level per split vertex: level L ⇔ 2^L copies.

        A 2-copy split is level one, a 4-copy split level two (paper
        Fig 6); intermediate counts report the ceiling level.
        """
        return {v: int(np.ceil(np.log2(len(parts))))
                for v, parts in self.copies.items() if len(parts) >= 2}

    # ------------------------------------------------------------------
    # exactness
    # ------------------------------------------------------------------
    def reassemble(self) -> tuple[CsrMatrix, np.ndarray]:
        """Sum the subdomain systems back to a global (A, b)."""
        n = self.graph.n
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        b = np.zeros(n)
        for sub in self.subdomains:
            coo = sub.matrix.to_scipy().tocoo()
            rows.append(sub.global_vertices[coo.row])
            cols.append(sub.global_vertices[coo.col])
            vals.append(coo.data)
            np.add.at(b, sub.global_vertices, sub.rhs)
        a = CsrMatrix.from_coo(np.concatenate(rows), np.concatenate(cols),
                               np.concatenate(vals), (n, n))
        return a, b

    def assert_exact(self, atol: float = 1e-9) -> None:
        """Raise unless reassembly reproduces the original system."""
        a, b = self.reassemble()
        a0, b0 = self.graph.to_system()
        dev_a = float(np.max(np.abs(a.to_dense() - a0.to_dense()))) \
            if self.graph.n else 0.0
        dev_b = float(np.max(np.abs(b - b0))) if self.graph.n else 0.0
        if dev_a > atol or dev_b > atol:
            raise PartitionError(
                f"EVS reassembly mismatch: |dA|={dev_a:.3e}, |db|={dev_b:.3e}")

    # ------------------------------------------------------------------
    # solution transfer
    # ------------------------------------------------------------------
    def gather(self, local_values: Sequence[np.ndarray],
               mode: str = "average") -> np.ndarray:
        """Assemble a global vector from per-subdomain local vectors.

        Split vertices take the ``"average"`` of their copies (default)
        or the ``"first"`` copy's value.
        """
        if mode not in ("average", "first"):
            raise ValidationError(f"unknown gather mode {mode!r}")
        n = self.graph.n
        if self._copy_counts is None:
            cnt = np.bincount(np.concatenate(
                [sub.global_vertices for sub in self.subdomains]),
                minlength=n).astype(np.float64)
            if np.any(cnt == 0):
                raise PartitionError("gather: some vertices have no copy")
            self._copy_counts = cnt
        acc = np.zeros(n)
        seen = np.zeros(n, dtype=bool) if mode == "first" else None
        for sub, vec in zip(self.subdomains, local_values):
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (sub.n_local,):
                raise ValidationError(
                    f"subdomain {sub.part} local vector has shape "
                    f"{vec.shape}, expected ({sub.n_local},)")
            if seen is None:
                np.add.at(acc, sub.global_vertices, vec)
            else:
                first = ~seen[sub.global_vertices]
                acc[sub.global_vertices[first]] = vec[first]
                seen[sub.global_vertices] = True
        return acc if mode == "first" else acc / self._copy_counts

    def gather_flat(self, states: np.ndarray) -> np.ndarray:
        """:meth:`gather` of the subdomains' local vectors laid
        back-to-back in part order — the state layout of the in-process
        fleet and of the sharded runtime's shared buffer alike."""
        ends = np.cumsum([sub.n_local for sub in self.subdomains])
        return self.gather(np.split(states, ends[:-1]))

    def spread(self, x_global) -> list[np.ndarray]:
        """Restrict a global vector to each subdomain's local ordering."""
        x = np.asarray(x_global, dtype=np.float64)
        if x.shape != (self.graph.n,):
            raise ValidationError(
                f"global vector must have shape ({self.graph.n},)")
        return [x[sub.global_vertices] for sub in self.subdomains]

    def source_weights(self, part: int) -> np.ndarray:
        """Per-local-vertex source fraction of subdomain *part*.

        Inner vertices keep their full source (fraction 1); port copies
        receive the fraction the split strategy assigned at EVS time.
        Multiplying a new global right-hand side by these weights
        reproduces — bit for bit — the ``rhs`` the splitter would have
        baked in had the graph carried that right-hand side.
        """
        sub = self.subdomains[part]
        frac = np.ones(sub.n_local)
        for i in range(sub.n_ports):
            v = int(sub.global_vertices[i])
            try:
                frac[i] = self.source_fractions[v][part]
            except KeyError:
                raise ValidationError(
                    f"no recorded source fraction for split vertex {v} in "
                    f"part {part}; this SplitResult predates source-"
                    "fraction recording (rebuild it with split_graph)"
                ) from None
        return frac

    def with_sources(self, b, rhs_list: Sequence[np.ndarray] | None = None
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
        subdomains = [replace(sub, rhs=rhs)
                      for sub, rhs in zip(self.subdomains, rhs_list)]
        return SplitResult(graph=graph, partition=self.partition,
                           subdomains=subdomains,
                           twin_links=self.twin_links, copies=self.copies,
                           notes=self.notes,
                           source_fractions=self.source_fractions,
                           _copy_counts=self._copy_counts)

    def spread_sources(self, b) -> list[np.ndarray]:
        """Per-subdomain right-hand sides for a *new* global source *b*.

        The RHS-swap primitive of the plan/session architecture: the
        split topology (copies, ports, twin links) is source-independent,
        so a changed right-hand side only re-weights the local ``rhs``
        vectors.  *b* may be 1-D ``(n,)`` or a column block ``(n, k)``;
        with ``b == graph.sources`` the 1-D result equals every
        subdomain's baked-in ``rhs`` bitwise.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.graph.n or b.ndim > 2:
            raise ValidationError(
                f"source vector must have {self.graph.n} rows, got shape "
                f"{b.shape}")
        out = []
        for sub in self.subdomains:
            frac = self.source_weights(sub.part)
            local = b[sub.global_vertices]
            out.append(frac * local if b.ndim == 1
                       else frac[:, None] * local)
        return out

    # ------------------------------------------------------------------
    # theorem 6.1 hypotheses
    # ------------------------------------------------------------------
    def definiteness(self) -> DefinitenessReport:
        """SPD/SNND classification of every subdomain matrix."""
        return definiteness_report([s.matrix for s in self.subdomains])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SplitResult(parts={self.n_parts}, "
                f"split_vertices={len(self.split_vertices)}, "
                f"twin_links={len(self.twin_links)})")


# ----------------------------------------------------------------------
# the splitter
# ----------------------------------------------------------------------
def split_graph(graph: ElectricGraph, partition: Partition,
                strategy: SplitStrategy | None = None,
                twin_topology: str = "tree") -> SplitResult:
    """Perform EVS on *graph* under *partition*.

    Returns a :class:`SplitResult` whose subdomains are the paper's
    block systems (4.3) with ports ordered first, plus the twin links
    where §5 inserts DTLPs.
    """
    strategy = strategy or EqualSplit()
    partition.validate(graph)
    notes: list[str] = []
    n = graph.n
    labels = partition.labels
    sep = partition.separator
    adj = graph.adjacency()

    # ---- step 2: copies per separator vertex -------------------------
    copies: dict[int, list[int]] = {}
    for v in np.nonzero(sep)[0]:
        v = int(v)
        direct = {int(labels[u]) for u in adj[v] if not sep[u]}
        copies[v] = sorted(direct)
    # fallback for separator vertices with no interior neighbours
    # (e.g. grid-line crossings): inherit the union of neighbouring
    # separator vertices' parts
    for v, parts in list(copies.items()):
        if parts:
            continue
        inherited: set[int] = set()
        for u in adj[v]:
            if sep[u]:
                inherited.update(copies.get(int(u), []))
        if not inherited:
            notes.append(f"isolated separator vertex {v} kept in its home part")
        copies[v] = sorted(inherited)
    # a torn vertex always keeps a copy in its home part (as in the
    # paper's Example 4.1); this also prevents the separator from
    # swallowing a small part whole
    for v in list(copies):
        home = int(labels[v])
        if home not in copies[v]:
            copies[v] = sorted(set(copies[v]) | {home})

    # ---- make every edge assignable -----------------------------------
    def effective_parts(v: int) -> list[int]:
        if sep[v]:
            return copies[int(v)]
        return [int(labels[v])]

    for u, v in zip(graph.edge_u, graph.edge_v):
        u, v = int(u), int(v)
        pu, pv = effective_parts(u), effective_parts(v)
        if not set(pu) & set(pv):
            if sep[u] and sep[v]:
                q = min(set(pu) | set(pv))
                for w, pw in ((u, pu), (v, pv)):
                    if q not in pw:
                        copies[w] = sorted(set(pw) | {q})
                notes.append(
                    f"extended copies of boundary edge ({u}, {v}) into part {q}")
            elif sep[u] or sep[v]:
                s, q = (u, int(labels[v])) if sep[u] else (v, int(labels[u]))
                copies[s] = sorted(set(copies[s]) | {q})
                notes.append(
                    f"extended copies of separator vertex {s} to cover part {q}")
            else:  # pragma: no cover - already excluded by validate()
                raise PartitionError(
                    f"interior edge ({u}, {v}) crosses parts")

    split_set = {v for v, parts in copies.items() if len(parts) >= 2}
    for v, parts in copies.items():
        if len(parts) == 1:
            notes.append(
                f"separator vertex {v} touches a single part "
                f"{parts[0]}; treated as inner")

    # ---- steps 3-4: edge shares ---------------------------------------
    # edge_entries[(part)] collects (local COO in *global* vertex ids)
    edge_share: list[tuple[int, int, int, float]] = []  # (u, v, part, w)
    loads: dict[int, dict[int, float]] = {
        v: {q: 0.0 for q in copies[v]} for v in split_set}
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_weights):
        u, v, w = int(u), int(v), float(w)
        su, sv = u in split_set, v in split_set
        if not su and not sv:
            q = effective_parts(u)[0]
            edge_share.append((u, v, q, w))
            continue
        if su != sv:
            inner = v if su else u
            q = effective_parts(inner)[0]
            edge_share.append((u, v, q, w))
            split_v = u if su else v
            loads[split_v][q] += abs(w)
            continue
        common = sorted(set(copies[u]) & set(copies[v]))
        fracs = strategy.edge_fractions(u, v, w, common)
        _check_fractions(fracs, common, f"edge ({u}, {v})")
        for q in common:
            share = w * fracs[q]
            if share == 0.0:
                continue
            edge_share.append((u, v, q, share))
            loads[u][q] += abs(share)
            loads[v][q] += abs(share)

    # vertex weight / source shares
    vertex_share: dict[int, dict[int, tuple[float, float]]] = {}
    source_fractions: dict[int, dict[int, float]] = {}
    for v in split_set:
        wfrac = strategy.vertex_fractions(v, float(graph.vertex_weights[v]),
                                          loads[v])
        _check_fractions(wfrac, copies[v], f"vertex {v} weight")
        sfrac = strategy.source_fractions(v, float(graph.sources[v]), wfrac)
        _check_fractions(sfrac, copies[v], f"vertex {v} source")
        source_fractions[v] = {q: float(sfrac[q]) for q in copies[v]}
        vertex_share[v] = {
            q: (float(graph.vertex_weights[v]) * wfrac[q],
                float(graph.sources[v]) * sfrac[q]) for q in copies[v]}

    # ---- assemble subdomains (ports first) ----------------------------
    n_parts = partition.n_parts
    port_lists: list[list[int]] = [[] for _ in range(n_parts)]
    inner_lists: list[list[int]] = [[] for _ in range(n_parts)]
    for v in sorted(split_set):
        for q in copies[v]:
            port_lists[q].append(v)
    for v in range(n):
        if v in split_set:
            continue
        inner_lists[effective_parts(v)[0]].append(v)

    local_index: list[dict[int, int]] = []
    subdomains: list[Subdomain] = []
    for q in range(n_parts):
        locs = port_lists[q] + inner_lists[q]
        index = {v: i for i, v in enumerate(locs)}
        local_index.append(index)
        m = len(locs)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs = np.zeros(m)
        for i, v in enumerate(locs):
            if v in split_set:
                wgt, src = vertex_share[v][q]
            else:
                wgt, src = float(graph.vertex_weights[v]), float(graph.sources[v])
            rows.append(i)
            cols.append(i)
            vals.append(wgt)
            rhs[i] = src
        for u, v, q_e, w in edge_share:
            if q_e != q:
                continue
            iu, iv = local_index[q].get(u), local_index[q].get(v)
            if iu is None or iv is None:  # pragma: no cover - defensive
                raise PartitionError(
                    f"edge share ({u}, {v}) assigned to part {q} but an "
                    "endpoint has no copy there")
            rows.extend((iu, iv))
            cols.extend((iv, iu))
            vals.extend((w, w))
        matrix = CsrMatrix.from_coo(rows, cols, vals, (m, m))
        subdomains.append(Subdomain(
            part=q, matrix=matrix, rhs=rhs,
            global_vertices=np.asarray(locs, dtype=np.int64),
            n_ports=len(port_lists[q])))

    # ---- twin links -----------------------------------------------------
    links: list[TwinLink] = []
    for v in sorted(split_set):
        parts = copies[v]
        for ia, ib in twin_pairs(len(parts), twin_topology):
            qa, qb = parts[ia], parts[ib]
            links.append(TwinLink(
                vertex=v,
                part_a=qa, port_a=local_index[qa][v],
                part_b=qb, port_b=local_index[qb][v]))

    result = SplitResult(graph=graph, partition=partition,
                         subdomains=subdomains, twin_links=links,
                         copies={v: list(p) for v, p in copies.items()},
                         notes=notes, source_fractions=source_fractions)
    return result


def _check_fractions(fracs: Mapping[int, float], parts: Sequence[int],
                     what: str) -> None:
    if set(fracs) != set(parts):
        raise ValidationError(
            f"split fractions for {what} cover parts {sorted(fracs)} "
            f"instead of {sorted(parts)}")
    total = float(sum(fracs.values()))
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(
            f"split fractions for {what} sum to {total:.12f}, expected 1")
