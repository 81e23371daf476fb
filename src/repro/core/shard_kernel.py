"""The shard loop's kernel: one worker's subdomains as array stacks.

:class:`ShardKernel` is what a multiprocess shard worker executes —
nothing but numpy over the wave-response stacks and index tables of a
*contiguous* group of subdomains.  It lives apart from
:mod:`repro.core.fleet` so that a worker process imports no local
system, factorization or graph code on its way up (PERFORMANCE.md
"Cold start"): the stacks are packed from factored
:class:`~repro.core.local.LocalSystem` objects where those live
(:func:`repro.core.fleet.pack_shard_kernel`) and reach the worker as
read-only views of a flat buffer
(:meth:`repro.plan.shard.ShardSpec.from_payload`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError


class _ShardGroup:
    """Members of one shard sharing a ``(n_local, n_ports, n_slots)``
    shape, batched like the fleet's ``_ShapeGroup``.

    ``u0``/``x0`` are *not* stacked at build time: they depend on the
    right-hand side, which the worker loads from shared memory at each
    solve epoch (:meth:`ShardKernel.load_x0`).
    """

    __slots__ = (
        "n",
        "r",
        "s",
        "members",
        "W3",
        "X3",
        "slot_idx",
        "port_idx",
        "state_idx",
        "u0",
        "x0",
    )

    def __init__(
        self,
        n: int,
        r: int,
        s: int,
        members: np.ndarray,
        W3: np.ndarray,
        X3: np.ndarray,
        slot_idx: np.ndarray,
        port_idx: np.ndarray,
        state_idx: np.ndarray,
    ) -> None:
        self.n = n
        self.r = r
        self.s = s
        self.members = members  # member positions within the shard
        self.W3 = W3  # (g, r, s) port wave responses
        self.X3 = X3  # (g, n, s) full-state responses
        self.slot_idx = slot_idx  # (g, s) shard-local slot index
        self.port_idx = port_idx  # (g, r) shard-local port index
        self.state_idx = state_idx  # (g, n) shard-local state row
        self.u0: Optional[np.ndarray] = None  # (g, r), per-epoch
        self.x0: Optional[np.ndarray] = None  # (g, n), per-epoch


class ShardKernel:
    """Struct-of-arrays repack of one *contiguous* group of subdomains.

    The compute payload a multiprocess worker executes: the
    wave-response stacks and index tables of its subdomains, shard-local
    (zero-based) addressing, and *no* retained factors — right-hand-side
    swaps happen in the coordinator process against the plan's factored
    locals, and the resulting zero-wave states arrive through shared
    memory (:meth:`load_x0`).  The kernel only ever reads its stacks, so
    they may be read-only views of a buffer shared between processes.

    Bitwise contract: :meth:`sweep` computes exactly what
    ``FleetKernel.solve_all`` + ``FleetKernel.emit_all`` compute for
    these subdomains — same-shape batched GEMM results are independent
    of batch composition (see :mod:`repro.core.fleet`), so regrouping a
    fleet into shards changes nothing per subdomain.  The test-suite
    asserts that lockstep shard sweeps reproduce the fleet sweep bit
    for bit.

    Parameters
    ----------
    parts:
        Global indices of the shard's subdomains (contiguous).
    slot_port:
        Shard-local port index each owned slot's wave acts on.
    groups:
        The shape groups; between them they index every slot, port and
        state row of the shard exactly once.
    """

    def __init__(
        self,
        parts: np.ndarray,
        slot_port: np.ndarray,
        groups: Sequence[_ShardGroup],
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
        self._u = np.zeros(self.n_ports)
        self._loaded = False

    @property
    def n_parts(self) -> int:
        return int(self.parts.size)

    def load_x0(self, x0_flat: np.ndarray) -> None:
        """Stack the per-epoch zero-wave states from a flat state block.

        *x0_flat* is this shard's slice of the global zero-wave state
        buffer, in the shard's (ports-first per subdomain) row layout —
        exactly what the coordinator's per-subdomain back-substitutions
        produce on a right-hand-side swap.
        """
        x0_flat = np.asarray(x0_flat, dtype=np.float64)
        if x0_flat.shape != (self.n_states,):
            raise ValidationError(
                f"x0 block must have shape ({self.n_states},), got "
                f"{x0_flat.shape}"
            )
        for g in self.groups:
            g.x0 = x0_flat[g.state_idx]
            g.u0 = g.x0[:, : g.r]
        self._loaded = True

    def _require_loaded(self) -> None:
        if not self._loaded:
            raise ValidationError(
                "ShardKernel.load_x0 must run before sweeping (the "
                "zero-wave states are per-epoch shared-memory state)"
            )

    def sweep(self, waves: np.ndarray) -> np.ndarray:
        """One resolve+emit over the shard: incoming waves → outgoing.

        *waves* is the shard's owned slice of the global wave vector
        (one latest-wins snapshot); the return value is the outgoing
        wave ``b = 2u − a`` of every owned slot, in slot order —
        bitwise-identical to the fleet's ``solve_all``/``emit_all`` on
        these subdomains.
        """
        self._require_loaded()
        for g in self.groups:
            if g.r == 0:
                continue
            if g.s == 0:
                self._u[g.port_idx] = g.u0
            else:
                wv = waves[g.slot_idx]
                product = np.matmul(g.W3, wv[:, :, None])
                self._u[g.port_idx] = g.u0 + product[:, :, 0]
        return 2.0 * self._u[self.slot_port] - waves

    def full_states(self, waves: np.ndarray) -> np.ndarray:
        """Flat ``[u; y]`` state block of every member for *waves*.

        The shard-local analogue of per-subdomain ``full_state`` calls,
        written into one contiguous vector in member order — the layout
        the coordinator's gather expects.
        """
        self._require_loaded()
        out = np.empty(self.n_states)
        for g in self.groups:
            if g.n == 0:
                continue
            if g.s == 0:
                out[g.state_idx] = g.x0
            else:
                wv = waves[g.slot_idx]
                product = np.matmul(g.X3, wv[:, :, None])
                out[g.state_idx] = g.x0 + product[:, :, 0]
        return out
