"""The numeric kernel: Table 1 steps 3.1–3.2 over array stacks.

Every processor of the paper runs the same step — resolve
``u = u0 + W a`` against its latest incoming waves, emit
``b = 2u − a`` — whether it is a simulated processor of §7 or a
subdomain of a multiprocess shard.  :class:`ShardKernel` is that step,
written once: the wave-response stacks and index tables of a
*contiguous* run of subdomains, and nothing but numpy over them.  The
in-process fleet (:class:`repro.core.fleet.FleetKernel`) owns one over
all parts, packed by :func:`pack_shard_kernel`; a shard is a slice of
it (:meth:`ShardKernel.slice`: views of the stacks, rebased index
tables), whose port and halo rows a worker decodes as read-only views
of its payload (:meth:`repro.plan.shard.ShardSpec.from_payload`).

Bitwise contract (structural): a subdomain's resolve is its row of an
un-padded same-shape batched ``np.matmul``, and that row does not
depend on the batch around it — zero padding to a common shape would
change the accumulation grouping and is avoided for that reason.  This
is an empirical property of the BLAS builds numpy ships, asserted by
the per-message oracle in ``tests/per_kernel.py`` (one GEMV per
subdomain) and the lockstep shard-vs-fleet test.

The module imports numpy only, so a worker pays no local system,
factorization or graph import (PERFORMANCE.md "Cold start"); packing
reads the attributes of each local and never imports
:mod:`repro.core.local`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..errors import ValidationError


class _ShardGroup(NamedTuple):
    """The members of a kernel sharing one ``(n_local, n_ports,
    n_slots)`` shape, batched into one stack.

    Immutable: the per-epoch zero-wave states live on the kernel
    (:meth:`ShardKernel.load_x0`).  The port wave responses are the
    first ``r`` rows of each ``X3`` block — never stored apart.
    """

    n: int  # rows held per member: all, or a worker's ports and halo
    r: int
    s: int
    members: np.ndarray  # (g,) ascending member positions
    X3: np.ndarray  # (g, n, s) wave responses of the held rows
    slot_idx: np.ndarray  # (g, s) kernel-local slot index
    port_idx: np.ndarray  # (g, r) kernel-local port index
    state_idx: np.ndarray  # (g, n) kernel-local state row


def _offsets(counts) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


class ShardKernel:
    """Struct-of-arrays stacks of one *contiguous* run of subdomains.

    Kernel-local (zero-based) addressing and *no* retained factors: the
    zero-wave states of a right-hand side arrive through
    :meth:`load_x0`.  The kernel only reads its stacks, so they may be
    read-only views of a buffer shared between processes.

    Parameters
    ----------
    parts:
        Global indices of the kernel's subdomains (contiguous).
    slot_port:
        Kernel-local port index each owned slot's wave acts on.
    groups:
        The shape groups; between them they index every slot, port and
        state row of the kernel exactly once.
    """

    def __init__(
        self, parts: np.ndarray, slot_port: np.ndarray, groups: Sequence
    ) -> None:
        if parts.size == 0:
            raise ValidationError("a shard needs at least one subdomain")
        if parts.size > 1 and np.any(np.diff(parts) != 1):
            raise ValidationError("shard parts must be contiguous")
        self.parts = parts
        self.slot_port = slot_port
        self.groups = list(groups)
        self.n_slots = int(slot_port.size)
        self.n_ports = sum(int(g.port_idx.size) for g in self.groups)
        self.n_states = sum(int(g.state_idx.size) for g in self.groups)
        #: member position → (shape group, row in that group's stacks)
        self.part_group = np.zeros(parts.size, dtype=np.int64)
        self.part_row = np.zeros(parts.size, dtype=np.int64)
        widths = np.zeros((3, parts.size), dtype=np.int64)
        for gid, g in enumerate(self.groups):
            self.part_group[g.members] = gid
            self.part_row[g.members] = np.arange(g.members.size)
            widths[:, g.members] = [[g.s], [g.r], [g.n]]
        #: CSR-style offsets: member i owns slots
        #: [slot_off[i], slot_off[i+1]), likewise ports and state rows
        self.slot_off, self.port_off, self.state_off = map(_offsets, widths)
        #: each group's port wave responses: views of its X3's first r rows
        self._W = [g.X3[:, : g.r, :] for g in self.groups]
        #: per-epoch state (:meth:`load_x0`): each group's (g, n)
        #: zero-wave states and their (g, r) port rows, and the port
        #: scratch of :meth:`sweep`
        self._x0: Optional[list] = None
        self._u0: Optional[list] = None
        self._u: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        # the port responses are views of X3: pickle the stacks only
        return {k: v for k, v in self.__dict__.items() if k != "_W"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._W = [g.X3[:, : g.r, :] for g in self.groups]

    def load_x0(self, x0_flat: np.ndarray) -> None:
        """Stack the per-epoch zero-wave states from *x0_flat*, the
        kernel's rows of the global state layout (ports first per
        subdomain) — what a right-hand-side swap's back-substitutions
        produce."""
        x0_flat = np.asarray(x0_flat, dtype=np.float64)
        if x0_flat.shape != (self.n_states,):
            raise ValidationError(
                f"x0 block must have shape ({self.n_states},), got "
                f"{x0_flat.shape}"
            )
        self._x0 = [x0_flat[g.state_idx] for g in self.groups]
        self._u0 = [
            x0[:, : g.r].copy() for g, x0 in zip(self.groups, self._x0)
        ]
        self._u = np.zeros(self.n_ports)

    def _loaded_x0(self) -> list:
        if self._x0 is None:
            raise ValidationError(
                "ShardKernel.load_x0 must run before sweeping (the "
                "zero-wave states are per-epoch state)"
            )
        return self._x0

    def resolve(self, waves: np.ndarray, u: np.ndarray, parts=None) -> None:
        """Table 1 step 3.1: ``u ← u0 + W a`` into the port vector *u*.

        Every member, or only the member positions *parts*; one
        un-padded batched mat-vec per shape group, ``W`` being a view
        of the first ``r`` rows of ``X3``.
        """
        self._loaded_x0()
        gids = None if parts is None else self.part_group[parts]
        groups = zip(self.groups, self._W, self._u0)
        for gid, (g, W, u0) in enumerate(groups):
            ports, slots = g.port_idx, g.slot_idx
            if gids is not None:
                rows = self.part_row[parts[gids == gid]]
                ports, slots = ports[rows], slots[rows]
                W, u0 = W[rows], u0[rows]
            if g.s == 0:
                u[ports] = u0
            else:
                wv = waves[slots]
                u[ports] = u0 + np.matmul(W, wv[:, :, None])[:, :, 0]

    def sweep(self, waves: np.ndarray) -> np.ndarray:
        """One resolve+emit: the kernel's incoming waves (a latest-wins
        snapshot of its slots) → the outgoing ``b = 2u − a`` per slot."""
        self.resolve(waves, self._u)
        return 2.0 * self._u[self.slot_port] - waves

    def full_states(self, waves: np.ndarray) -> np.ndarray:
        """Flat ``[u; y]`` state block of every member for *waves*,
        one contiguous vector in member order."""
        out = np.empty(self.n_states)
        for g, x0 in zip(self.groups, self._loaded_x0()):
            if g.n == 0:
                continue
            if g.s == 0:
                out[g.state_idx] = x0
            else:
                wv = waves[g.slot_idx]
                product = np.matmul(g.X3, wv[:, :, None])
                out[g.state_idx] = x0 + product[:, :, 0]
        return out

    def look_states(self, waves: np.ndarray) -> np.ndarray:
        """:meth:`full_states` as a shard worker publishes them: every
        held row for *waves*, the port rows by the sweep's own product.

        A worker's kernel holds each member's port rows and halo rows
        only (:meth:`repro.plan.shard.ShardSpec.encode_payload`); its
        port rows come out bit for bit as :meth:`resolve` writes them,
        its halo rows from one product over the rows below the ports.
        """
        out = np.empty(self.n_states)
        for g, x0, W, u0 in zip(
            self.groups, self._loaded_x0(), self._W, self._u0
        ):
            if g.n == 0:
                continue
            if g.s == 0:
                out[g.state_idx] = x0
                continue
            wv = waves[g.slot_idx][:, :, None]
            out[g.state_idx[:, : g.r]] = u0 + np.matmul(W, wv)[:, :, 0]
            halo = np.matmul(g.X3[:, g.r :, :], wv)[:, :, 0]
            out[g.state_idx[:, g.r :]] = x0[:, g.r :] + halo
        return out

    def slice(self, lo: int, hi: int) -> "ShardKernel":
        """Member positions ``[lo, hi)`` as a kernel of their own.

        The stacks are views of this kernel's (each group's members in
        range are one contiguous run); only the index tables are
        rebased.  The slice starts unloaded.
        """
        if not 0 <= lo < hi <= self.parts.size:
            raise ValidationError(
                f"shard range [{lo}, {hi}) out of [0, {self.parts.size})"
            )
        base = (self.slot_off[lo], self.port_off[lo], self.state_off[lo])
        groups = []
        for n, r, s, members, X3, *tables in self.groups:
            a, b = np.searchsorted(members, (lo, hi))
            if a == b:
                continue
            tables = [idx[a:b] - off for idx, off in zip(tables, base)]
            groups.append(
                _ShardGroup(n, r, s, members[a:b] - lo, X3[a:b], *tables)
            )
        slot_port = self.slot_port[base[0] : self.slot_off[hi]] - base[1]
        return ShardKernel(self.parts[lo:hi], slot_port, groups)


def pack_shard_kernel(locals_: Sequence) -> ShardKernel:
    """Stack factored local systems, in part order, into an unloaded
    kernel over parts ``[0, len(locals_))``.

    Reads ``n_local``, ``n_ports``, ``n_slots``, ``slot_ports`` and
    ``X`` of each local.  Groups come in sorted shape order, members
    ascending — the order :meth:`ShardKernel.slice` relies on.
    """
    widths = [(loc.n_slots, loc.n_ports, loc.n_local) for loc in locals_]
    offs = [_offsets(w) for w in zip(*widths)]
    slot_port = np.concatenate(
        [loc.slot_ports + offs[1][i] for i, loc in enumerate(locals_)]
    )
    by_shape: dict[tuple[int, int, int], list[int]] = {}
    for i, (s, r, n) in enumerate(widths):
        by_shape.setdefault((n, r, s), []).append(i)
    groups = []
    for (n, r, s), members in sorted(by_shape.items()):
        members = np.asarray(members, dtype=np.int64)
        X3 = np.stack([locals_[i].X for i in members])
        tables = (
            off[members, None] + np.arange(width)
            for off, width in zip(offs, (s, r, n))
        )
        groups.append(_ShardGroup(n, r, s, members, X3, *tables))
    return ShardKernel(np.arange(len(locals_)), slot_port, groups)
