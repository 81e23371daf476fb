"""The halo look: a solve's stopping residual from port and halo rows.

A shard worker holds and publishes only its ports and its *halo* — the
inner rows adjacent to a port (:func:`repro.plan.shard.look_rows`).
That is enough to measure the relative residual of the gathered
solution ``x̄`` (split vertices averaged over their copies, paper §4):

* on a split vertex ``v``, ``r_v = b_v − A[v, :] x̄`` reads only split
  vertices and halo rows — every neighbor of a port is one or the other;
* on a halo row ``h`` of part ``q``, the local solve meets ``A[h, :]``
  against *its own* port copies, so ``r_h = Σ_j a_hj (x_q,j − x̄_j)``:
  the disagreement of the copies it sees;
* on every other inner row the local solve meets ``A`` exactly, and
  ``r = 0`` to rounding.

:class:`HaloLook` folds the first two into one sparse operator ``M``
over the published look vector ``p`` and a per-solve ``c``, so a look
measures ``‖c − M p‖ / ‖b‖`` in O(ports) — no interior row, no gather,
no ``A x − b`` over every unknown.  The interiors are built only for an
answer (:meth:`HaloLook.answer`), from the plan's own stacks, shard cut
by shard cut on the cores the parked workers free; that answer is then
re-checked whole, once (:meth:`HaloLook.recheck`).
"""

from __future__ import annotations

from concurrent import futures

import numpy as np

from ..core.convergence import _norm2, relative_residual
from ..core.shard_kernel import _offsets
from ..errors import ValidationError


class HaloLook:
    """Look operator and answer builder of one runner.

    Parameters
    ----------
    plan:
        A dtm-mode :class:`~repro.plan.SolverPlan` (its ``a_mat``,
        ``split`` and fleet kernel are read, never written).
    rows:
        Per part, the local rows its worker publishes — ports first —
        as :func:`repro.plan.shard.look_rows` returns them.
    cuts, helpers:
        The shards' ``[lo, hi)`` part ranges (default: one over every
        part), and with more than one cut a
        :class:`concurrent.futures.Executor` with a thread for each cut
        after the first (the caller's own).
    """

    def __init__(self, plan, rows, cuts=None, helpers=None) -> None:
        from scipy import sparse

        split = plan.split
        subs = split.subdomains
        n = plan.n
        state_off = _offsets([sub.n_local for sub in subs])
        #: look row -> row of the full state layout (ports first per part)
        self.state_rows = np.concatenate(
            [state_off[q] + r for q, r in enumerate(rows)]
        )
        look_off = _offsets([r.size for r in rows])
        #: look rows holding port potentials, in the fleet's port order
        self.port_rows = np.concatenate(
            [look_off[q] + np.arange(s.n_ports) for q, s in enumerate(subs)]
        )
        vertex = np.concatenate([sub.global_vertices for sub in subs])
        vertex = vertex[self.state_rows]
        part = np.repeat(np.arange(len(subs)), [r.size for r in rows])
        is_port = np.zeros(vertex.size, dtype=bool)
        is_port[self.port_rows] = True
        #: the global vertex of every look row (its value in ``x̄``)
        self.vertex = vertex
        L = vertex.size
        split_v = np.unique(vertex[is_port])
        halo_v = vertex[~is_port]
        n_s = split_v.size
        col = np.full(n, -1, dtype=np.int64)
        col[split_v] = np.arange(n_s)
        col[halo_v] = n_s + np.arange(halo_v.size)
        copies = np.bincount(vertex[is_port], minlength=n)
        # G: look vector -> x̄ on the split vertices, then the halo rows
        weight = np.where(is_port, 1.0 / np.maximum(copies[vertex], 1), 1.0)
        gather = sparse.csr_matrix(
            (weight, (col[vertex], np.arange(L))),
            shape=(n_s + halo_v.size, L),
        )
        a = plan.a_mat.to_scipy()
        on_split = a[split_v]
        if np.any(col[on_split.indices] < 0):
            raise ValidationError(
                "a split vertex couples to a row no worker publishes"
            )
        on_split = sparse.csr_matrix(
            (on_split.data, col[on_split.indices], on_split.indptr),
            shape=(n_s, gather.shape[0]),
        )
        # halo rows: A[h, j] (x̄_j − x_q,j) over the split neighbors j
        on_halo = a[halo_v].tocoo()
        keep = (col[on_halo.col] >= 0) & (col[on_halo.col] < n_s)
        i, j, w = on_halo.row[keep], on_halo.col[keep], on_halo.data[keep]
        halo_part = part[~is_port][i]
        key = part[is_port] * n + vertex[is_port]
        order = np.argsort(key)
        at = np.searchsorted(key[order], halo_part * n + j)
        own = np.flatnonzero(is_port)[order][np.minimum(at, order.size - 1)]
        if i.size and not np.array_equal(vertex[own], j):
            raise ValidationError(
                "a halo row couples to a split vertex its part holds no "
                "copy of"
            )
        to_mean = sparse.csr_matrix(
            (w, (i, col[j])), shape=(halo_v.size, gather.shape[0])
        )
        to_own = sparse.csr_matrix((w, (i, own)), shape=(halo_v.size, L))
        on_halo = to_mean @ gather - to_own
        self._m = sparse.vstack([on_split @ gather, on_halo]).tocsr()
        self._split_v = split_v
        self._n_halo = halo_v.size
        self._plan = plan
        self._a = a
        kernel = plan.fleet_template.kernel
        off = (kernel.state_off, kernel.slot_off)
        #: per cut, a private kernel slice, its state rows and its slots
        self._cuts = [
            (kernel.slice(lo, hi), *(slice(o[lo], o[hi]) for o in off))
            for lo, hi in cuts or [(0, kernel.parts.size)]
        ]
        self._helpers = helpers
        self._c = np.zeros(self._m.shape[0])
        self._b_norm = 1.0

    @property
    def n_rows(self) -> int:
        """Length of the published look vector."""
        return int(self.vertex.size)

    def start(self, b: np.ndarray) -> None:
        """Begin a solve against right-hand side *b*."""
        self._c = np.concatenate([b[self._split_v], np.zeros(self._n_halo)])
        self._b = b
        self._b_norm = _norm2(b) or 1.0

    def residual(self, p: np.ndarray) -> float:
        """``‖b − A x̄‖ / ‖b‖`` of the solution the look vector *p*
        gathers to (inner rows below the halo read as met)."""
        return _norm2(self._c - self._m @ p) / self._b_norm

    def recheck(self, x: np.ndarray) -> float:
        """``‖b − A x‖ / ‖b‖`` of an answer *x*, every row: the
        :func:`~repro.core.convergence.relative_residual` of every
        other result, on this look's scipy view of ``A``."""
        return relative_residual(self._a, x, self._b)

    def answer(
        self, x0_full: np.ndarray, snapshots: np.ndarray
    ) -> np.ndarray:
        """The gathered solution of the shards' wave *snapshots*.

        Every member's full states, cut by cut on private slices of the
        plan's fleet kernel (the first on the caller, the others on the
        helpers): bit for bit one slice over every part, or the workers'
        own stacks (a member's product does not depend on its batch).
        """
        states = np.empty_like(x0_full)

        def build(kernel, rows, slots) -> None:
            kernel.load_x0(x0_full[rows])
            states[rows] = kernel.full_states(snapshots[slots])

        jobs = [self._helpers.submit(build, *cut) for cut in self._cuts[1:]]
        try:
            build(*self._cuts[0])
        finally:
            futures.wait(jobs)
        for job in jobs:
            job.result()  # a helper's exception is the caller's
        return self._plan.split.gather_flat(states)
