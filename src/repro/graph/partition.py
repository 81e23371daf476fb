"""Partition data structures: labels + vertex separator (paper §4 step 1).

EVS needs two pieces of information:

* a **label** per vertex assigning it to one of N subdomains (the home
  of inner vertices, and a tie-break owner for separator vertices), and
* a **separator set** ``G_B`` of boundary vertices such that every edge
  between different subdomains has at least one endpoint in the set —
  i.e. removing ``G_B`` disconnects the subdomain interiors.

:class:`Partition` bundles and validates both against an
:class:`~repro.graph.electric.ElectricGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PartitionError
from ..linalg.sparse import CsrMatrix
from .electric import ElectricGraph


@dataclass
class Partition:
    """Vertex labels plus separator mask for an electric graph.

    Attributes
    ----------
    labels:
        ``labels[v]`` is the home subdomain of vertex *v* (0..n_parts-1).
    separator:
        Boolean mask; ``separator[v]`` marks *v* as a boundary vertex to
        be split by EVS.
    """

    labels: np.ndarray
    separator: np.ndarray
    n_parts: int = field(default=0)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.separator = np.asarray(self.separator, dtype=bool)
        if self.labels.ndim != 1 or self.separator.shape != self.labels.shape:
            raise PartitionError("labels and separator must be equal-length 1-D")
        if self.labels.size and self.labels.min() < 0:
            raise PartitionError("labels must be non-negative")
        inferred = int(self.labels.max()) + 1 if self.labels.size else 0
        if self.n_parts == 0:
            self.n_parts = inferred
        elif self.n_parts < inferred:
            raise PartitionError(
                f"n_parts={self.n_parts} smaller than max label {inferred - 1}")

    @property
    def n(self) -> int:
        """Number of vertices."""
        return int(self.labels.shape[0])

    def interior_vertices(self, part: int) -> np.ndarray:
        """Non-separator vertices homed in *part* (ascending)."""
        return np.nonzero((self.labels == part) & ~self.separator)[0]

    def separator_vertices(self) -> np.ndarray:
        """All separator vertices (ascending)."""
        return np.nonzero(self.separator)[0]

    def part_sizes(self) -> np.ndarray:
        """Interior size of each part."""
        sizes = np.zeros(self.n_parts, dtype=np.int64)
        interior_labels = self.labels[~self.separator]
        np.add.at(sizes, interior_labels, 1)
        return sizes

    # ------------------------------------------------------------------
    # validation against a graph
    # ------------------------------------------------------------------
    def validate(self, graph: ElectricGraph) -> None:
        """Check the separator property; raise :class:`PartitionError`.

        Every edge whose endpoints are both *interior* must connect
        vertices of the same part — otherwise ``G_B`` does not separate
        the subgraphs and EVS would silently change the system.
        """
        if self.n != graph.n:
            raise PartitionError(
                f"partition covers {self.n} vertices but graph has {graph.n}")
        eu, ev = graph.edge_u, graph.edge_v
        both_interior = ~self.separator[eu] & ~self.separator[ev]
        bad = both_interior & (self.labels[eu] != self.labels[ev])
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            raise PartitionError(
                "separator does not cover all cut edges: edge "
                f"({int(eu[k])}, {int(ev[k])}) joins interiors of parts "
                f"{int(self.labels[eu[k]])} and {int(self.labels[ev[k]])}")

    def cut_edges(self, graph: ElectricGraph) -> np.ndarray:
        """Indices of edges whose endpoints have different home labels."""
        return np.nonzero(self.labels[graph.edge_u]
                          != self.labels[graph.edge_v])[0]

    def summary(self) -> str:
        sizes = self.part_sizes()
        return (f"Partition(n={self.n}, parts={self.n_parts}, "
                f"separator={int(self.separator.sum())}, "
                f"interior sizes {sizes.min()}..{sizes.max()})")


@dataclass(frozen=True)
class TwinLink:
    """One DTLP endpoint pairing produced by EVS (paper §5).

    A split vertex with copies in parts ``part_a`` and ``part_b`` gets a
    DTLP between local port ``port_a`` of subdomain ``part_a`` and local
    port ``port_b`` of subdomain ``part_b``.
    """

    vertex: int
    part_a: int
    port_a: int
    part_b: int
    port_b: int

    def endpoints(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """((part_a, port_a), (part_b, port_b))."""
        return (self.part_a, self.port_a), (self.part_b, self.port_b)


@dataclass
class Subdomain:
    """One subgraph produced by EVS — a self-contained electric system.

    Local ordering puts the ports (split-vertex copies) first, matching
    the block structure of the paper's equation (4.3):

    .. math:: \\begin{bmatrix} C & E \\\\ F & D \\end{bmatrix}
              \\begin{bmatrix} u \\\\ y \\end{bmatrix} =
              \\begin{bmatrix} f \\\\ g \\end{bmatrix} +
              \\begin{bmatrix} \\omega \\\\ 0 \\end{bmatrix}

    Attributes
    ----------
    part:
        Subdomain index.
    matrix, rhs:
        The local system ``[C E; F D]`` and ``[f; g]``.
    global_vertices:
        Global vertex id of each local row.
    n_ports:
        Number of ports; local rows ``0..n_ports-1`` are ports.
    """

    part: int
    matrix: CsrMatrix
    rhs: np.ndarray
    global_vertices: np.ndarray
    n_ports: int

    def __post_init__(self) -> None:
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.global_vertices = np.asarray(self.global_vertices, dtype=np.int64)
        n = self.matrix.nrows
        if not (self.matrix.ncols == n == self.rhs.size
                == self.global_vertices.size):
            raise PartitionError("inconsistent subdomain arrays")
        if not 0 <= self.n_ports <= n:
            raise PartitionError("n_ports out of range")

    @property
    def n_local(self) -> int:
        """Local dimension (ports + inner)."""
        return int(self.rhs.size)

    @property
    def n_inner(self) -> int:
        return self.n_local - self.n_ports

    @property
    def port_vertices(self) -> np.ndarray:
        """Global vertex ids of the ports."""
        return self.global_vertices[: self.n_ports]

    def local_index_of(self, global_vertex: int) -> int:
        """Local row of *global_vertex* (raises if absent)."""
        hits = np.nonzero(self.global_vertices == global_vertex)[0]
        if hits.size != 1:
            raise PartitionError(
                f"vertex {global_vertex} appears {hits.size} times in "
                f"subdomain {self.part}")
        return int(hits[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Subdomain(part={self.part}, n={self.n_local}, "
                f"ports={self.n_ports})")
