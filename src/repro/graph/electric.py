"""The electric graph of a symmetric linear system (paper §3).

A symmetric system ``A x = b`` maps one-to-one onto an *electric graph*:

* vertex *i* carries **weight** ``a_ii``, **source** ``b_i`` and the
  unknown **potential** ``x_i``;
* an edge between *i* and *j* (i≠j) carries **weight** ``a_ij``.

The paper states the mapping is bijective; :class:`ElectricGraph`
implements both directions (:meth:`from_system`, :meth:`to_system`) and
the graph-side queries (adjacency, degrees) the partitioner and EVS
need.  Edge weights are stored once per undirected edge with ``u < v``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..linalg.sparse import CsrMatrix, is_symmetric
from ..utils.validation import as_float_vector, require


@dataclass
class ElectricGraph:
    """Electric-graph representation of a symmetric linear system.

    Attributes
    ----------
    vertex_weights:
        Diagonal entries ``a_ii`` (length n).
    sources:
        Right-hand-side entries ``b_i`` (length n).
    edge_u, edge_v, edge_weights:
        Undirected edges with ``edge_u < edge_v`` and their off-diagonal
        weights ``a_uv``.
    """

    vertex_weights: np.ndarray
    sources: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_weights: np.ndarray
    _adjacency: list[np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.vertex_weights = as_float_vector(self.vertex_weights,
                                              "vertex_weights")
        n = self.n
        self.sources = as_float_vector(self.sources, "sources", n)
        self.edge_u = np.asarray(self.edge_u, dtype=np.int64)
        self.edge_v = np.asarray(self.edge_v, dtype=np.int64)
        self.edge_weights = as_float_vector(self.edge_weights, "edge_weights")
        require(self.edge_u.shape == self.edge_v.shape == self.edge_weights.shape,
                "edge arrays must have identical length")
        if self.edge_u.size:
            require(int(self.edge_u.min()) >= 0 and int(self.edge_v.max()) < n,
                    "edge endpoints out of range")
            require(bool(np.all(self.edge_u < self.edge_v)),
                    "edges must be stored with u < v (no self-loops)")
            key = self.edge_u * n + self.edge_v
            require(np.unique(key).size == key.size,
                    "duplicate edges are not allowed")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_system(cls, a, b) -> "ElectricGraph":
        """Build the electric graph of ``A x = b`` (A symmetric)."""
        mat = a if isinstance(a, CsrMatrix) else CsrMatrix.from_dense(
            np.asarray(a, dtype=np.float64))
        require(mat.nrows == mat.ncols, "A must be square")
        if not is_symmetric(mat):
            raise ValidationError("A must be symmetric to have an electric graph")
        n = mat.nrows
        coo = mat.to_scipy().tocoo()
        rows, cols, vals = coo.row, coo.col, coo.data
        diag_mask = rows == cols
        weights = np.zeros(n)
        weights[rows[diag_mask]] = vals[diag_mask]
        upper = rows < cols
        return cls(
            vertex_weights=weights,
            sources=as_float_vector(b, "b", n),
            edge_u=rows[upper],
            edge_v=cols[upper],
            edge_weights=vals[upper],
        )

    @classmethod
    def from_edges(cls, n: int, edges, vertex_weights, sources
                   ) -> "ElectricGraph":
        """Build from an iterable of ``(u, v, weight)`` triples."""
        if edges:
            eu, ev, ew = zip(*[(min(u, v), max(u, v), w) for u, v, w in edges])
        else:
            eu, ev, ew = (), (), ()
        return cls(np.asarray(vertex_weights, dtype=np.float64),
                   np.asarray(sources, dtype=np.float64),
                   np.asarray(eu, dtype=np.int64),
                   np.asarray(ev, dtype=np.int64),
                   np.asarray(ew, dtype=np.float64))

    def with_sources(self, sources) -> "ElectricGraph":
        """This graph carrying another right-hand side.

        The topology was validated when *self* was built and cannot
        have changed, so the copy shares the vertex/edge arrays and the
        cached adjacency instead of re-running ``__post_init__`` over
        every edge; only *sources* is checked (length, finiteness).
        """
        graph = copy.copy(self)
        graph.sources = as_float_vector(sources, "sources", self.n)
        return graph

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices (dimension of the linear system)."""
        return int(self.vertex_weights.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_u.shape[0])

    def adjacency(self) -> list[np.ndarray]:
        """Neighbour lists (cached; arrays are sorted ascending)."""
        if self._adjacency is None:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in zip(self.edge_u, self.edge_v):
                nbrs[u].append(int(v))
                nbrs[v].append(int(u))
            self._adjacency = [np.asarray(sorted(x), dtype=np.int64)
                               for x in nbrs]
        return self._adjacency

    def degrees(self) -> np.ndarray:
        """Vertex degrees (number of incident edges)."""
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.edge_u, 1)
        np.add.at(deg, self.edge_v, 1)
        return deg

    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map ``(u, v)`` with u<v to the edge's position."""
        return {(int(u), int(v)): k
                for k, (u, v) in enumerate(zip(self.edge_u, self.edge_v))}

    # ------------------------------------------------------------------
    # conversion back to a linear system
    # ------------------------------------------------------------------
    def to_matrix(self) -> CsrMatrix:
        """Coefficient matrix A of this electric graph."""
        n = self.n
        diag_idx = np.arange(n, dtype=np.int64)
        rows = np.concatenate([diag_idx, self.edge_u, self.edge_v])
        cols = np.concatenate([diag_idx, self.edge_v, self.edge_u])
        vals = np.concatenate([self.vertex_weights, self.edge_weights,
                               self.edge_weights])
        return CsrMatrix.from_coo(rows, cols, vals, (n, n))

    def to_system(self) -> tuple[CsrMatrix, np.ndarray]:
        """``(A, b)`` of this electric graph."""
        return self.to_matrix(), self.sources.copy()

    # ------------------------------------------------------------------
    # properties of the represented system
    # ------------------------------------------------------------------
    def is_spd(self) -> bool:
        """True iff the represented matrix is SPD (paper's setting)."""
        from ..linalg.spd import is_spd

        return is_spd(self.to_matrix())

    def is_connected(self) -> bool:
        """True iff the graph is connected (single electric network)."""
        if self.n == 0:
            return True
        adj = self.adjacency()
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(int(u))
        return count == self.n

    def subgraph_vertices_touching(self, vertices) -> np.ndarray:
        """All vertices adjacent to the given set (incl. the set itself)."""
        adj = self.adjacency()
        out = set(int(v) for v in vertices)
        for v in list(out):
            out.update(int(u) for u in adj[v])
        return np.asarray(sorted(out), dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ElectricGraph(n={self.n}, edges={self.n_edges})"
