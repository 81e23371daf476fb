"""SuperLU local factorizations at build level.

Every local system is factored by SuperLU on its CSR arrays: its
``x0`` and ``X`` agree with a ``scipy.linalg`` dense solve of the same
system to 1e-10 relative, and the build never densifies.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.core.dtl import build_dtlp_network
from repro.core.local import (
    build_all_local_systems,
    build_local_system,
    validate_local_system,
)
from repro.errors import NotSpdError
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import (
    greedy_grow_partition,
    grid_block_partition,
)
from repro.linalg.sparse import CsrMatrix, forbid_densify
from repro.linalg.sparse_cholesky import SparseSpdFactor
from repro.workloads.circuits import resistor_grid
from repro.workloads.poisson import grid2d_poisson


def _split_poisson(nx=16, pr=2, pc=2):
    g = grid2d_poisson(nx)
    p = grid_block_partition(nx, nx, pr, pc)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    net = build_dtlp_network(split, 1.0, 1.0)
    return split, net


def _split_circuit(rows=12, cols=12, n_parts=4):
    g = resistor_grid(rows, cols, seed=3)
    p = greedy_grow_partition(g, n_parts, seed=0)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    net = build_dtlp_network(split, 1.0, 1.0)
    return split, net


makers = pytest.mark.parametrize("maker", [_split_poisson, _split_circuit],
                                ids=["poisson", "circuit"])


def _max_rel(a, b):
    scale = max(float(np.max(np.abs(a))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


# ----------------------------------------------------------------------
# SuperLU against a dense solve, per subdomain
# ----------------------------------------------------------------------
@makers
def test_locals_match_dense_solve(maker):
    split, net = maker()
    locals_ = build_all_local_systems(split, net)
    for loc, sub in zip(locals_, split.subdomains):
        assert isinstance(loc.factor, SparseSpdFactor)
        n = sub.n_local
        k = sub.matrix.to_dense()
        k[np.arange(n), np.arange(n)] += np.bincount(
            loc.slot_ports, weights=loc.slot_inv_z, minlength=n)
        rhs = np.zeros((n, 1 + loc.n_slots))
        rhs[:, 0] = sub.rhs
        rhs[loc.slot_ports, 1 + np.arange(loc.n_slots)] = loc.slot_inv_z
        dense = scipy.linalg.solve(k, rhs, assume_a="pos")
        assert _max_rel(dense[:, 0], loc.x0) <= 1e-10
        assert _max_rel(dense[:, 1:], loc.X) <= 1e-10
        validate_local_system(loc, sub)


@makers
def test_sparse_local_matrix_is_k_plus_slot_diagonal_bitwise(maker):
    # K + diag(1/z) is built through scipy: its values must be the
    # dense sum's bits and its pattern K's own, so a binop that drops a
    # stored entry cannot go unnoticed
    split, net = maker()
    locals_ = build_all_local_systems(split, net)
    for loc, sub in zip(locals_, split.subdomains):
        k, f = sub.matrix, loc.factor
        v = np.bincount(loc.slot_ports, weights=loc.slot_inv_z,
                        minlength=k.nrows)
        assert np.count_nonzero(v) > 0
        assert f.a_indices.dtype == f.a_indptr.dtype == np.int64
        assert np.array_equal(f.a_indptr, k.indptr)
        assert np.array_equal(f.a_indices, k.indices)
        kz = CsrMatrix(f.a_data, f.a_indices, f.a_indptr, k.shape)
        assert np.array_equal(kz.to_dense(), k.to_dense() + np.diag(v))


@makers
def test_sparse_build_never_densifies(maker):
    # the acceptance guard: a sparse build must not materialize any
    # dense subdomain matrix
    split, net = maker()
    with forbid_densify("sparse plan build must stay sparse"):
        locals_ = build_all_local_systems(split, net)
    assert all(isinstance(l.factor, SparseSpdFactor) for l in locals_)


def test_sparse_not_spd_names_subdomain():
    import dataclasses

    split, net = _split_poisson(nx=8, pr=2, pc=1)
    sub = split.subdomains[0]
    n = sub.matrix.nrows
    bad = CsrMatrix.from_dense(sub.matrix.to_dense() - 50.0 * np.eye(n))
    sub = dataclasses.replace(sub, matrix=bad)
    with pytest.raises(NotSpdError, match="subdomain"):
        build_local_system(sub, [])


# ----------------------------------------------------------------------
# fork sharing
# ----------------------------------------------------------------------
@makers
def test_fork_shares_immutable_factor_and_response(maker):
    split, net = maker()
    base = build_all_local_systems(split, net)
    for loc in base:
        f = loc.fork()
        assert f.factor is loc.factor  # shared, never deep-copied
        assert f.X is loc.X
        assert f.x0 is not loc.x0  # per-session state is private
        assert np.array_equal(f.x0, loc.x0)


def test_build_all_local_systems_takes_no_worker_count():
    # every local is factored in the calling process; the retired
    # process-pool keyword is an unknown one, named in the error
    split, net = _split_poisson(nx=8, pr=2, pc=1)
    with pytest.raises(TypeError, match="workers"):
        build_all_local_systems(split, net, workers=2)
