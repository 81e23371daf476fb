"""Tests for the constant local system (paper (5.8)/(5.9))."""

import numpy as np
import pytest

from repro.core.dtl import build_dtlp_network
from repro.core.local import (
    build_all_local_systems,
    build_local_system,
    validate_local_system,
)
from repro.errors import NotSpdError, SingularMatrixError, ValidationError
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import grid_block_partition
from repro.workloads.paper import (
    example_5_1_impedances,
    paper_split,
)
from repro.workloads.poisson import grid2d_poisson, grid2d_random


@pytest.fixture(scope="module")
def paper_locals():
    split = paper_split()
    net = build_dtlp_network(split, example_5_1_impedances(), 1.0)
    return split, net, build_all_local_systems(split, net)


def test_paper_merged_matrix_matches_5_4(paper_locals):
    """(5.4): merged diagonal of subgraph 1 is 7.5 and 13.3."""
    split, net, locals_ = paper_locals
    sub0 = split.subdomains[0]
    k = sub0.matrix.to_dense().copy()
    for port, inv_z in zip(locals_[0].slot_ports, locals_[0].slot_inv_z):
        k[port, port] += inv_z
    # ports are (V2a, V3a): diagonal 2.5 + 1/0.2 = 7.5, 3.3 + 1/0.1 = 13.3
    assert k[0, 0] == pytest.approx(7.5)
    assert k[1, 1] == pytest.approx(13.3)
    # (5.5): subgraph 2 diagonals 3.5 + 5 = 8.5 and 3.7 + 10 = 13.7
    sub1 = split.subdomains[1]
    k1 = sub1.matrix.to_dense().copy()
    for port, inv_z in zip(locals_[1].slot_ports, locals_[1].slot_inv_z):
        k1[port, port] += inv_z
    assert k1[0, 0] == pytest.approx(8.5)
    assert k1[1, 1] == pytest.approx(13.7)


def test_local_system_satisfies_4_3(paper_locals):
    """(5.9) states must satisfy the original block system (4.3)."""
    split, _net, locals_ = paper_locals
    for local, sub in zip(locals_, split.subdomains):
        validate_local_system(local, sub)


def test_solve_ports_matches_direct_solve(paper_locals):
    split, _net, locals_ = paper_locals
    rng = np.random.default_rng(1)
    for local, sub in zip(locals_, split.subdomains):
        k = sub.matrix.to_dense().copy()
        for port, inv_z in zip(local.slot_ports, local.slot_inv_z):
            k[port, port] += inv_z
        waves = rng.standard_normal(local.n_slots)
        rhs = sub.rhs.copy()
        for l, (port, inv_z) in enumerate(zip(local.slot_ports,
                                              local.slot_inv_z)):
            rhs[port] += inv_z * waves[l]
        x_direct = np.linalg.solve(k, rhs)
        assert np.allclose(local.full_state(waves), x_direct, atol=1e-9)
        assert np.allclose(local.solve_ports(waves),
                           x_direct[: local.n_ports], atol=1e-9)


def test_currents_and_outgoing_waves(paper_locals):
    _split, _net, locals_ = paper_locals
    local = locals_[0]
    waves = np.array([0.3, -0.2])
    u = local.solve_ports(waves)
    cur = local.slot_currents(waves)
    assert np.allclose(u[local.slot_ports] + cur / local.slot_inv_z, waves)
    out = local.outgoing_waves(waves)
    assert np.allclose(out, 2 * u[local.slot_ports] - waves)


def test_port_currents_sum_multi_dtl():
    """A port with several DTLs sums their currents (level-2 tearing)."""
    g = grid2d_poisson(9)
    p = grid_block_partition(9, 9, 2, 2)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    net = build_dtlp_network(split, 1.0, 1.0)
    locals_ = build_all_local_systems(split, net)
    # find a subdomain with a port carrying >= 2 slots (the cross point)
    multi = None
    for local in locals_:
        counts = np.bincount(local.slot_ports, minlength=local.n_ports)
        if np.any(counts >= 2):
            multi = (local, counts)
            break
    assert multi is not None, "expected a level-2 port"
    local, counts = multi
    waves = np.random.default_rng(0).standard_normal(local.n_slots)
    per_slot = local.slot_currents(waves)
    per_port = local.port_currents(waves)
    port = int(np.argmax(counts))
    assert per_port[port] == pytest.approx(
        per_slot[local.slot_ports == port].sum())


def test_validate_local_system_catches_corruption(paper_locals):
    split, _net, locals_ = paper_locals
    local = locals_[0]
    broken = type(local)(
        part=local.part, n_local=local.n_local, n_ports=local.n_ports,
        attachments=local.attachments, slot_ports=local.slot_ports,
        slot_inv_z=local.slot_inv_z, x0=local.x0 + 0.1, X=local.X)
    with pytest.raises(ValidationError, match="violates"):
        validate_local_system(broken, split.subdomains[0])


def test_rejects_bad_attachments(paper_locals):
    split, _net, _ = paper_locals
    sub = split.subdomains[0]
    with pytest.raises(ValidationError):
        build_local_system(sub, [(0, 99, 1.0)])  # port out of range
    with pytest.raises(ValidationError):
        build_local_system(sub, [(0, 0, -1.0)])  # negative impedance


def test_snnd_subgraph_becomes_spd_with_impedance():
    """An SNND (singular) subgraph is solvable once DTLs add 1/Z."""
    g = grid2d_poisson(5, ground=0.0)  # pure Laplacian: only SNND
    p = grid_block_partition(5, 5, 1, 2)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    net = build_dtlp_network(split, 1.0, 1.0)
    # each subgraph is singular alone, SPD after the port regularisation
    locals_ = build_all_local_systems(split, net)
    for local, sub in zip(locals_, split.subdomains):
        validate_local_system(local, sub)


def test_not_spd_error_message_mentions_theorem():
    """An indefinite subgraph raises a NotSpdError mentioning 6.1."""
    from repro.graph.electric import ElectricGraph
    from repro.graph.partition import Partition

    # matrix with a negative diagonal entry in part 0's interior
    a = np.array([
        [-2.0, 1.0, 0.0],
        [1.0, 3.0, 1.0],
        [0.0, 1.0, 3.0],
    ])
    g = ElectricGraph.from_system(a, np.zeros(3))
    part = Partition(labels=np.array([0, 0, 1]),
                     separator=np.array([False, True, False]), n_parts=2)
    split = split_graph(g, part)
    net = build_dtlp_network(split, 1.0, 1.0)
    with pytest.raises(NotSpdError, match="6.1"):
        build_all_local_systems(split, net)
    # with allow_indefinite the indefinite factor must still satisfy
    # (4.3)
    locals_ = build_all_local_systems(split, net, allow_indefinite=True)
    for local, sub in zip(locals_, split.subdomains):
        validate_local_system(local, sub)


def _with_interior_block(block):
    """Subdomain 0 of an 8x8 grid whose matrix is the identity except
    for *block* on its last interior rows and columns."""
    import dataclasses

    from repro.linalg.sparse import CsrMatrix

    g = grid2d_poisson(8)
    split = split_graph(g, grid_block_partition(8, 8, 2, 1),
                        strategy=DominancePreservingSplit())
    sub = split.subdomains[0]
    n, k = sub.n_local, len(block)
    assert sub.n_ports <= n - k  # the block sits in the interior
    a = np.eye(n)
    a[n - k:, n - k:] = block
    return dataclasses.replace(sub, matrix=CsrMatrix.from_dense(a))


def test_singular_local_error_names_subdomain_and_theorem():
    """A structurally singular local (an interior row with nothing in
    it) is a SingularMatrixError naming its subdomain and 6.1."""
    sub = _with_interior_block([[0.0]])
    with pytest.raises(SingularMatrixError, match="subdomain 0.*6.1"):
        build_local_system(sub, [])


@pytest.mark.parametrize("allow_indefinite", [False, True])
def test_zero_pivot_indefinite_local_names_subdomain(allow_indefinite):
    """An indefinite local with a zero diagonal pivot is never factored,
    not even with allow_indefinite: the SuperLU pivot check names it."""
    sub = _with_interior_block([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrixError, match="subdomain 0.*6.1"):
        build_local_system(sub, [], allow_indefinite=allow_indefinite)


def test_empty_subdomain():
    from repro.graph.partition import Partition

    g = grid2d_poisson(3)
    p = Partition(labels=np.zeros(9, dtype=int),
                  separator=np.zeros(9, dtype=bool), n_parts=2)
    split = split_graph(g, p)
    net = build_dtlp_network(split, 1.0, 1.0)
    locals_ = build_all_local_systems(split, net)
    assert locals_[1].n_local == 0
    assert locals_[1].solve_ports(np.zeros(0)).size == 0


def test_random_grid_consistency():
    g = grid2d_random(9, seed=3)
    p = grid_block_partition(9, 9, 3, 3)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    net = build_dtlp_network(split, 0.8, 2.0)
    locals_ = build_all_local_systems(split, net)
    for local, sub in zip(locals_, split.subdomains):
        validate_local_system(local, sub, n_probe=2)
