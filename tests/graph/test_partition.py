"""Tests for Partition / Subdomain / TwinLink data structures."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.partition import Partition, Subdomain, TwinLink
from repro.linalg.sparse import CsrMatrix
from repro.workloads.paper import paper_partition, paper_system_3_2


def test_paper_partition_shape():
    p = paper_partition()
    assert p.n == 4
    assert p.n_parts == 2
    assert np.array_equal(p.separator_vertices(), [1, 2])
    assert np.array_equal(p.interior_vertices(0), [0])
    assert np.array_equal(p.interior_vertices(1), [3])
    assert np.array_equal(p.part_sizes(), [1, 1])


def test_validate_accepts_paper_partition():
    paper_partition().validate(paper_system_3_2().graph)


def test_validate_rejects_uncovered_cut_edge():
    g = paper_system_3_2().graph
    bad = Partition(labels=np.array([0, 0, 1, 1]),
                    separator=np.zeros(4, dtype=bool), n_parts=2)
    with pytest.raises(PartitionError, match="separator does not cover"):
        bad.validate(g)


def test_validate_size_mismatch():
    g = paper_system_3_2().graph
    p = Partition(labels=np.zeros(3, dtype=int),
                  separator=np.zeros(3, dtype=bool))
    with pytest.raises(PartitionError, match="covers 3"):
        p.validate(g)


def test_partition_constructor_validation():
    with pytest.raises(PartitionError):
        Partition(labels=np.array([0, -1]), separator=np.zeros(2, dtype=bool))
    with pytest.raises(PartitionError):
        Partition(labels=np.array([0, 1]), separator=np.zeros(3, dtype=bool))
    with pytest.raises(PartitionError):
        Partition(labels=np.array([0, 3]), separator=np.zeros(2, dtype=bool),
                  n_parts=2)


def test_n_parts_inferred():
    p = Partition(labels=np.array([0, 2, 1]), separator=np.zeros(3, dtype=bool))
    assert p.n_parts == 3


def test_cut_edges():
    g = paper_system_3_2().graph
    p = paper_partition()
    cut = p.cut_edges(g)
    # label vector [0,0,1,1]: cut edges are (0,2),(1,2),(1,3)
    pairs = {(int(g.edge_u[k]), int(g.edge_v[k])) for k in cut}
    assert pairs == {(0, 2), (1, 2), (1, 3)}


def test_summary_contains_counts():
    s = paper_partition().summary()
    assert "parts=2" in s and "separator=2" in s


def test_twin_link_endpoints():
    tl = TwinLink(vertex=5, part_a=0, port_a=1, part_b=2, port_b=0)
    assert tl.endpoints() == ((0, 1), (2, 0))


def test_subdomain_validation():
    m = CsrMatrix.from_dense(np.eye(3))
    with pytest.raises(PartitionError):
        Subdomain(part=0, matrix=m, rhs=np.zeros(2),
                  global_vertices=np.arange(3), n_ports=1)
    with pytest.raises(PartitionError):
        Subdomain(part=0, matrix=m, rhs=np.zeros(3),
                  global_vertices=np.arange(3), n_ports=4)


def test_subdomain_accessors():
    m = CsrMatrix.from_dense(np.eye(3))
    sub = Subdomain(part=1, matrix=m, rhs=np.array([1.0, 2.0, 3.0]),
                    global_vertices=np.array([7, 4, 9]), n_ports=2)
    assert sub.n_local == 3
    assert sub.n_inner == 1
    assert np.array_equal(sub.port_vertices, [7, 4])
    assert sub.local_index_of(9) == 2
    with pytest.raises(PartitionError):
        sub.local_index_of(100)
