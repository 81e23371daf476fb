"""Loop-per-edge reference splitter (test-only).

:func:`repro.graph.evs.split_graph` classifies edges and assembles the
subdomains with numpy.  This module keeps the splitter it replaced —
one Python step per edge, one scan of every edge share per part — as
the oracle that the vectorised one must equal field for field and bit
for bit (``tests/graph/test_split_oracle.py``).  Nothing under ``src/``
imports it.

The code is the replaced splitter's, statement for statement (laid
out by the formatter); only its result type differs: a plain record of
the fields the property compares instead of a
:class:`~repro.graph.evs.SplitResult`, whose constructor also takes
the per-part port weights.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from repro.errors import PartitionError, ValidationError
from repro.graph.electric import ElectricGraph
from repro.graph.evs import EqualSplit, SplitStrategy, twin_pairs
from repro.graph.partition import Partition, Subdomain, TwinLink
from repro.linalg.sparse import CsrMatrix

#: the oracle's result: the fields of a split, without its methods
SplitResult = SimpleNamespace


def split_graph(
    graph: ElectricGraph,
    partition: Partition,
    strategy: SplitStrategy | None = None,
    twin_topology: str = "tree",
) -> SplitResult:
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
            notes.append(
                f"isolated separator vertex {v} kept in its home part"
            )
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
                    f"extended copies of boundary edge ({u}, {v}) into part {q}"
                )
            elif sep[u] or sep[v]:
                s, q = (u, int(labels[v])) if sep[u] else (v, int(labels[u]))
                copies[s] = sorted(set(copies[s]) | {q})
                notes.append(
                    f"extended copies of separator vertex {s} to cover part {q}"
                )
            else:  # pragma: no cover - already excluded by validate()
                raise PartitionError(
                    f"interior edge ({u}, {v}) crosses parts"
                )

    split_set = {v for v, parts in copies.items() if len(parts) >= 2}
    for v, parts in copies.items():
        if len(parts) == 1:
            notes.append(
                f"separator vertex {v} touches a single part "
                f"{parts[0]}; treated as inner"
            )

    # ---- steps 3-4: edge shares ---------------------------------------
    # edge_entries[(part)] collects (local COO in *global* vertex ids)
    edge_share: list[tuple[int, int, int, float]] = []  # (u, v, part, w)
    loads: dict[int, dict[int, float]] = {
        v: {q: 0.0 for q in copies[v]} for v in split_set
    }
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
        wfrac = strategy.vertex_fractions(
            v, float(graph.vertex_weights[v]), loads[v]
        )
        _check_fractions(wfrac, copies[v], f"vertex {v} weight")
        sfrac = strategy.source_fractions(v, float(graph.sources[v]), wfrac)
        _check_fractions(sfrac, copies[v], f"vertex {v} source")
        source_fractions[v] = {q: float(sfrac[q]) for q in copies[v]}
        vertex_share[v] = {
            q: (
                float(graph.vertex_weights[v]) * wfrac[q],
                float(graph.sources[v]) * sfrac[q],
            )
            for q in copies[v]
        }

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
                wgt, src = (
                    float(graph.vertex_weights[v]), float(graph.sources[v])
                )
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
                    "endpoint has no copy there"
                )
            rows.extend((iu, iv))
            cols.extend((iv, iu))
            vals.extend((w, w))
        matrix = CsrMatrix.from_coo(rows, cols, vals, (m, m))
        subdomains.append(
            Subdomain(
                part=q,
                matrix=matrix,
                rhs=rhs,
                global_vertices=np.asarray(locs, dtype=np.int64),
                n_ports=len(port_lists[q]),
            )
        )

    # ---- twin links -----------------------------------------------------
    links: list[TwinLink] = []
    for v in sorted(split_set):
        parts = copies[v]
        for ia, ib in twin_pairs(len(parts), twin_topology):
            qa, qb = parts[ia], parts[ib]
            links.append(
                TwinLink(
                    vertex=v,
                    part_a=qa,
                    port_a=local_index[qa][v],
                    part_b=qb,
                    port_b=local_index[qb][v],
                )
            )

    result = SplitResult(
        graph=graph,
        partition=partition,
        subdomains=subdomains,
        twin_links=links,
        copies={v: list(p) for v, p in copies.items()},
        notes=notes,
        source_fractions=source_fractions,
    )
    return result


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
