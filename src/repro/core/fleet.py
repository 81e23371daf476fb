"""The in-process fleet: every subdomain of a plan over one kernel.

After EVS/DTLP insertion each subdomain's resolve is a constant-
coefficient affine map ``u = u0 + W a`` (see :mod:`repro.core.local`),
so a wave-relaxation sweep over P subdomains is data parallel.
:class:`FleetKernel` owns one
:class:`~repro.core.shard_kernel.ShardKernel` over all parts
``[0, P)`` — the kernel a multiprocess shard runs a slice of — and
keeps what belongs to the owner of the subdomains: the factored locals
and the right-hand-side swap, the mutable state (waves, port
potentials, per-part counters, dirty flags, ``last_sent`` under
``send_threshold``), the single-subdomain GEMV the simulator's
processors drive, and the routing tables.  The wave emitted on global
slot ``l`` lands in slot ``route_dest_slot_global[l]``, so "emit then
deliver" is one fancy-indexed scatter (:meth:`FleetKernel.emit_all`,
:meth:`FleetKernel.receive_batch`, latest occurrence wins).

Packing rebinds each local's ``X`` to its row of the kernel's group
stack: the wave-response stacks exist once, and forks and extracted
shards view them.  Bitwise reproducibility is structural — batched,
masked and single-subdomain resolves each compute a subdomain's row of
an un-padded same-shape ``np.matmul`` or GEMV, which the kernel's
contract makes batch-independent (checked against the per-message
oracle in ``tests/per_kernel.py``) — so the fleet is the only
execution path.

:class:`FleetKernelView` is one subdomain's view: ``waves``/``u_ports``
are numpy views into the fleet arrays, and :meth:`FleetKernelView.solve`
resolves one subdomain and returns its emitted waves as arrays — the
protocol the simulator's processors, observers and probes drive.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError
from .local import LocalSystem
from .shard_kernel import pack_shard_kernel


class FleetKernel:
    """Every subdomain's DTM hot path: one kernel plus owner state.

    Parameters
    ----------
    locals_:
        Factored local systems, one per subdomain, in part order.
        Packing rebinds each one's ``X`` to its row of the kernel's
        group stack.
    routes:
        ``routes[q]`` is subdomain *q*'s outgoing routing in slot order:
        ``(dest_part, dest_slot, dtlp_index, delay)`` tuples, exactly as
        :meth:`repro.core.dtl.DtlpNetwork.routes_from` produces them.
    send_threshold:
        Suppress re-sending waves that changed by no more than this
        (0 = always send, the paper's behaviour).
    """

    def __init__(self, locals_: Sequence[LocalSystem],
                 routes: Sequence[Sequence[tuple[int, int, int, float]]],
                 *, send_threshold: float = 0.0) -> None:
        if len(routes) != len(locals_):
            raise ValidationError(
                f"{len(locals_)} local systems but {len(routes)} route "
                "tables")
        if send_threshold < 0:
            raise ValidationError("send_threshold must be >= 0")
        for loc, rts in zip(locals_, routes):
            if loc.n_slots != len(rts):
                raise ValidationError(
                    f"part {loc.part} has {loc.n_slots} slots but "
                    f"{len(rts)} routes")
        self.locals = list(locals_)
        self.send_threshold = float(send_threshold)
        P = self.n_parts = len(self.locals)
        self.kernel = pack_shard_kernel(self.locals)
        # the stacks exist once: each local's X becomes its stack row
        for g in self.kernel.groups:
            for row, q in zip(g.X3, g.members):
                self.locals[q].X = row
        self.kernel.load_x0(self._x0_flat())

        #: CSR-style offsets: part q owns slots [so[q], so[q+1]) and
        #: ports [po[q], po[q+1]) of the flat arrays.
        self.slot_offsets = self.kernel.slot_off
        self.port_offsets = self.kernel.port_off
        S = self.n_slots_total = self.kernel.n_slots
        self.n_ports_total = self.kernel.n_ports
        #: owning part of every global slot
        self.slot_part = np.repeat(np.arange(P, dtype=np.int64),
                                   np.diff(self.slot_offsets))
        #: global port row each slot's wave acts on
        self.slot_port_global = self.kernel.slot_port

        # global slot-routing permutation: the wave emitted on slot l is
        # delivered into global slot route_dest_slot_global[l]
        dest_part, dest_local, dtlp = np.array(
            [rt[:3] for rts in routes for rt in rts],
            dtype=np.int64).reshape(S, 3).T.copy()
        if np.any(dest_part >= P) or np.any(dest_part < 0):
            raise ValidationError("route destination part out of range")
        if S and np.any((dest_local < 0) | (
                dest_local >= np.diff(self.slot_offsets)[dest_part])):
            raise ValidationError("route destination slot out of range")
        self.route_dest_part = dest_part
        self.route_dest_slot_global = self.slot_offsets[dest_part] + \
            dest_local
        self.route_dtlp = dtlp

        self._alloc_state()
        self._all_slots = np.arange(S, dtype=np.int64)
        self._views: Optional[list[FleetKernelView]] = None

    #: class-level default: telemetry is off until :meth:`install_obs`
    #: (a :meth:`fork` drops the instance's counter again)
    _c_solves = None

    def _alloc_state(self) -> None:
        """Fresh mutable state: zero boundary conditions, u = ω = 0."""
        S, P = self.n_slots_total, self.n_parts
        self.waves, self.u = np.zeros(S), np.zeros(self.n_ports_total)
        self.last_sent = np.full(S, np.nan)
        self.n_solves = np.zeros(P, dtype=np.int64)
        self.n_received = np.zeros(P, dtype=np.int64)
        self.dirty = np.ones(P, dtype=bool)

    def _x0_flat(self) -> np.ndarray:
        """The locals' zero-wave states in the kernel's row layout."""
        return np.concatenate([loc.x0 for loc in self.locals])

    def install_obs(self, registry) -> None:
        """Count subdomain solves on *registry*; uninstalled, the sweep
        pays one attribute check per batch (hot path: guarded)."""
        self._c_solves = registry.counter(
            "repro_fleet_solves_total",
            "subdomain solves executed by the in-process fleet")

    def _normalize_parts(self, parts) -> np.ndarray:
        arr = np.asarray(parts)
        if arr.dtype == bool:
            if arr.shape != (self.n_parts,):
                raise ValidationError(
                    f"active mask must have shape ({self.n_parts},)")
            return np.flatnonzero(arr)
        arr = arr.astype(np.int64).ravel()
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_parts):
            raise ValidationError("part index out of range")
        return arr

    # ------------------------------------------------------------------
    # Table 1 steps 3.1: the batched resolve
    # ------------------------------------------------------------------
    def solve_all(self, active_mask=None) -> None:
        """Resolve every (or the masked subset of) subdomain at once:
        the kernel's batched resolve, one mat-vec per shape group."""
        parts = None if active_mask is None else \
            self._normalize_parts(active_mask)
        if parts is not None and parts.size == 0:
            return
        self.kernel.resolve(self.waves, self.u, parts)
        solved = slice(None) if parts is None else parts
        self.n_solves[solved] += 1
        self.dirty[solved] = False
        if self._c_solves is not None:
            self._c_solves.inc(self.n_parts if parts is None
                               else int(parts.size))

    def _solve_part(self, q: int) -> None:
        """Single-subdomain resolve (simulator path; GEMV on slices)."""
        loc = self.locals[q]
        p0, p1 = self.port_offsets[q], self.port_offsets[q + 1]
        if loc.n_slots == 0:
            self.u[p0:p1] = loc.u0
        else:
            s0, s1 = self.slot_offsets[q], self.slot_offsets[q + 1]
            self.u[p0:p1] = loc.u0 + loc.W @ self.waves[s0:s1]
        self.n_solves[q] += 1
        self.dirty[q] = False
        if self._c_solves is not None:
            self._c_solves.inc()

    # ------------------------------------------------------------------
    # Table 1 step 3.2: emit new boundary conditions
    # ------------------------------------------------------------------
    def emit_slots(self, slot_idx: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Outgoing waves of the given *emission* slots.

        Returns ``(kept_slot_idx, values)`` where suppression by
        ``send_threshold`` may drop entries; ``last_sent`` is updated
        for the kept ones (per slot, as Table 1 step 3.2 reads).
        """
        out = 2.0 * self.u[self.slot_port_global[slot_idx]] \
            - self.waves[slot_idx]
        if self.send_threshold > 0.0:
            prev = self.last_sent[slot_idx]
            keep = ~(np.isfinite(prev)
                     & (np.abs(out - prev) <= self.send_threshold))
            slot_idx = slot_idx[keep]
            out = out[keep]
        self.last_sent[slot_idx] = out
        return slot_idx, out

    def emit_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Every slot's wave, routed: ``(dest_slot_global, values)``
        ready for :meth:`receive_batch`."""
        idx, values = self.emit_slots(self._all_slots)
        return self.route_dest_slot_global[idx], values

    def part_slots(self, q: int) -> np.ndarray:
        """Global emission-slot indices of subdomain *q*."""
        return self._all_slots[self.slot_offsets[q]:self.slot_offsets[q + 1]]

    # ------------------------------------------------------------------
    # Table 1 step 3: receive remote boundary conditions, batched
    # ------------------------------------------------------------------
    def receive_batch(self, dest_slot_global, values, *,
                      notify: bool = False):
        """Deliver many waves at once (latest occurrence wins per slot).

        With ``notify=True`` returns ``(parts, counts)``: the affected
        subdomains in first-occurrence order plus their arrival counts,
        which is what an executor needs to wake its processors in the
        same order the per-message path would have.
        """
        dest = np.asarray(dest_slot_global, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        # sequential fancy assignment: the last write to a repeated slot
        # wins, matching per-message latest-wins semantics
        self.waves[dest] = vals
        parts = self.slot_part[dest]
        counts = np.bincount(parts, minlength=self.n_parts)
        self.n_received += counts
        self.dirty |= counts > 0
        if not notify:
            return None
        _, first = np.unique(parts, return_index=True)
        order = parts[np.sort(first)]
        return order, counts[order]

    # ------------------------------------------------------------------
    # plan/session support: RHS swap, state reset, structural fork
    # ------------------------------------------------------------------
    def reset_state(self, waves=None) -> None:
        """Return the mutable state to t = 0 (optionally warm-started).

        *waves* seeds the incoming-wave state (a previous solve's final
        waves = warm start); default is the zero boundary conditions a
        freshly built fleet carries.  Counters, ``last_sent`` and the
        dirty flags reset exactly as construction leaves them, so a
        reset fleet is indistinguishable from a newly packed one.
        """
        if waves is None:
            self.waves[:] = 0.0
        else:
            w = np.asarray(waves, dtype=np.float64)
            if w.shape != (self.n_slots_total,):
                raise ValidationError(
                    f"warm-start waves must have shape "
                    f"({self.n_slots_total},), got {w.shape}")
            self.waves[:] = w
        self.u[:] = 0.0
        self.last_sent[:] = np.nan
        self.n_solves[:] = 0
        self.n_received[:] = 0
        self.dirty[:] = True

    def swap_rhs(self, rhs_list=None, *, x0_list=None,
                 reset: bool = True) -> None:
        """Re-point the fleet at a new right-hand side, factors kept.

        Either *rhs_list* (per-subdomain local right-hand sides; one
        back-substitution each against the retained factors) or
        *x0_list* (precomputed zero-wave states, e.g. a batched
        multi-RHS block solve's columns) — in part order.  With
        ``reset`` (default) the mutable wave state is also zeroed so the
        next run starts from fresh boundary conditions.
        """
        if (rhs_list is None) == (x0_list is None):
            raise ValidationError("pass exactly one of rhs_list / x0_list")
        vecs = rhs_list if rhs_list is not None else x0_list
        if len(vecs) != self.n_parts:
            raise ValidationError(
                f"expected {self.n_parts} vectors, got {len(vecs)}")
        for loc, vec in zip(self.locals, vecs):
            if loc.n_local == 0:
                continue
            if rhs_list is not None:
                loc.set_rhs(vec)
            else:
                loc.set_x0(vec)
        self.kernel.load_x0(self._x0_flat())
        if reset:
            self.reset_state()

    def fork(self, *, send_threshold: Optional[float] = None
             ) -> "FleetKernel":
        """Structural copy sharing every immutable packed array — the
        routing tables and the kernel's stacks and index tables — with
        forked locals (own ``x0``), a kernel reloaded from them and
        fresh mutable state: each session's own runnable fleet.
        """
        st = self.send_threshold if send_threshold is None \
            else float(send_threshold)
        if st < 0:
            raise ValidationError("send_threshold must be >= 0")
        new = copy.copy(self)  # shares every packed, immutable array
        new.__dict__.pop("_c_solves", None)  # telemetry stays per fleet
        new.send_threshold = st
        new.locals = [loc.fork() for loc in self.locals]
        new._alloc_state()
        new.kernel = copy.copy(self.kernel)
        new.kernel.load_x0(new._x0_flat())
        new._views = None
        return new

    # ------------------------------------------------------------------
    # per-subdomain views
    # ------------------------------------------------------------------
    def views(self) -> "list[FleetKernelView]":
        """One :class:`FleetKernelView` per subdomain (cached)."""
        if self._views is None:
            self._views = [FleetKernelView(self, q)
                           for q in range(self.n_parts)]
        return self._views


class FleetKernelView:
    """One subdomain of a :class:`FleetKernel`.

    ``waves`` and ``u_ports`` are numpy *views* into the fleet's flat
    arrays, and the counters read the fleet's per-part arrays.  A
    simulated processor drives it through ``solve`` / ``dirty``
    (arrivals land in batches through :meth:`FleetKernel.receive_batch`);
    ``solve`` returns raw emission arrays, never a message object.
    """

    __slots__ = ("fleet", "part", "local", "_s0", "_s1", "_p0", "_p1")

    def __init__(self, fleet: FleetKernel, part: int) -> None:
        self.fleet = fleet
        self.part = part
        self.local = fleet.locals[part]
        self._s0 = int(fleet.slot_offsets[part])
        self._s1 = int(fleet.slot_offsets[part + 1])
        self._p0 = int(fleet.port_offsets[part])
        self._p1 = int(fleet.port_offsets[part + 1])

    # -- state views ----------------------------------------------------
    @property
    def waves(self) -> np.ndarray:
        return self.fleet.waves[self._s0:self._s1]

    @property
    def u_ports(self) -> np.ndarray:
        return self.fleet.u[self._p0:self._p1]

    @property
    def dirty(self) -> bool:
        return bool(self.fleet.dirty[self.part])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self.fleet.dirty[self.part] = bool(value)

    @property
    def n_solves(self) -> int:
        return int(self.fleet.n_solves[self.part])

    @property
    def n_received(self) -> int:
        return int(self.fleet.n_received[self.part])

    # -- Table 1 steps 3.1-3.2 --------------------------------------------
    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Resolve and emit: ``(emission_slot_global, values)``."""
        fleet = self.fleet
        fleet._solve_part(self.part)
        return fleet.emit_slots(fleet.part_slots(self.part))

    # -- state inspection -------------------------------------------------
    def full_state(self) -> np.ndarray:
        """Current full local state ``[u; y]`` (materialises interiors)."""
        return self.local.full_state(self.waves)

    def port_potentials(self) -> np.ndarray:
        """Latest computed port potentials u_j(t)."""
        return self.u_ports.copy()

    def port_currents(self) -> np.ndarray:
        """Latest inflow currents ω_j(t) (per port, summed over DTLs)."""
        return self.local.port_currents(self.waves, self.u_ports)


def build_fleet(split, network, locals_: Sequence[LocalSystem], *,
                send_threshold: float = 0.0) -> FleetKernel:
    """Pack a split's local systems into one :class:`FleetKernel`.

    *network* supplies the routing tables.
    """
    routes = [network.routes_from(sub.part) for sub in split.subdomains]
    return FleetKernel(locals_, routes, send_threshold=send_threshold)
