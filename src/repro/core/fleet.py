"""Struct-of-arrays fleet kernel: every subdomain's hot path in flat arrays.

After EVS/DTLP insertion each subdomain's resolve is a constant-
coefficient affine map ``u = u0 + W a`` (see :mod:`repro.core.local`),
and a wave-relaxation sweep over P subdomains is therefore data
parallel.  :class:`FleetKernel` packs every subdomain's
``(u0, W, slot_ports, slot_inv_z, routes)`` into contiguous arrays with
CSR-style offsets so that one sweep is O(1) numpy calls instead of
O(P·s) Python:

* :meth:`solve_all` — all (or a masked subset of) port resolves as one
  batched mat-vec per *shape group*;
* :meth:`emit_all` — the outgoing waves ``b = 2u − a`` of every slot,
  already translated to their destination through a precomputed global
  slot-routing permutation, so "emit then deliver" is a single
  fancy-indexed scatter;
* :meth:`receive_batch` — delivery of many waves at once
  (latest-occurrence-wins, matching the per-message FIFO semantics).

Bitwise reproducibility
-----------------------
Subdomains are grouped by identical ``(n_ports, n_slots)`` shape and
each group is solved with one un-padded batched ``np.matmul``.  Zero
padding to a common shape is deliberately avoided: padded GEMMs are
*not* bitwise-identical to the per-subdomain mat-vec (the accumulation
grouping changes), whereas same-shape batched GEMM, GEMM with one
column, and GEMV agree bit for bit on the BLAS builds numpy ships
(this is an empirical property, not an API guarantee — the test-suite
and the micro-benchmark's equivalence guard assert it against the
per-subdomain oracle in ``tests/per_kernel.py`` on every platform they
run on).  The fleet is therefore the only execution path: batching
changes no bit of the wave trajectory.

:class:`FleetKernelView` is a thin per-subdomain view over fleet
slices: ``waves``/``u_ports`` are numpy views into the fleet arrays,
and :meth:`FleetKernelView.solve` resolves one subdomain and returns
its emitted waves as arrays — the protocol the simulator's processors,
observers and probes drive.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ValidationError
from .local import LocalSystem
from .shard_kernel import ShardKernel, _ShardGroup


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s+c) for s, c in zip(starts, counts)]``."""
    nz = counts > 0
    starts, counts = starts[nz], counts[nz]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    step = np.ones(total, dtype=np.int64)
    step[0] = starts[0]
    pos = np.cumsum(counts)[:-1]
    step[pos] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(step)


class _ShapeGroup:
    """All subdomains sharing one ``(n_ports, n_slots)`` block shape."""

    __slots__ = ("gid", "parts", "r", "s", "W3", "u0", "slot_idx",
                 "port_idx")

    def __init__(self, gid: int, parts: np.ndarray, r: int, s: int,
                 W3: np.ndarray, u0: np.ndarray, slot_idx: np.ndarray,
                 port_idx: np.ndarray) -> None:
        self.gid = gid
        self.parts = parts
        self.r = r
        self.s = s
        self.W3 = W3          # (g, r, s) stacked wave-response blocks
        self.u0 = u0          # (g, r) stacked zero-wave port potentials
        self.slot_idx = slot_idx  # (g, s) global slot index per member
        self.port_idx = port_idx  # (g, r) global port index per member


class FleetKernel:
    """Struct-of-arrays packing of every subdomain's DTM hot path.

    Parameters
    ----------
    locals_:
        Factored local systems, one per subdomain, in part order.
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
        self.locals = list(locals_)
        self.send_threshold = float(send_threshold)
        P = len(self.locals)
        self.n_parts = P

        slot_counts = np.asarray([loc.n_slots for loc in self.locals],
                                 dtype=np.int64)
        port_counts = np.asarray([loc.n_ports for loc in self.locals],
                                 dtype=np.int64)
        for loc, rts in zip(self.locals, routes):
            if loc.n_slots != len(rts):
                raise ValidationError(
                    f"part {loc.part} has {loc.n_slots} slots but "
                    f"{len(rts)} routes")
        #: CSR-style offsets: part q owns slots [so[q], so[q+1]) and
        #: ports [po[q], po[q+1]) of the flat arrays.
        self.slot_offsets = np.concatenate(
            [[0], np.cumsum(slot_counts)]).astype(np.int64)
        self.port_offsets = np.concatenate(
            [[0], np.cumsum(port_counts)]).astype(np.int64)
        S = int(self.slot_offsets[-1])
        R = int(self.port_offsets[-1])
        self.n_slots_total = S
        self.n_ports_total = R

        #: owning part of every global slot
        self.slot_part = np.repeat(np.arange(P, dtype=np.int64),
                                   slot_counts)
        #: global port row each slot's wave acts on
        self.slot_port_global = np.concatenate(
            [loc.slot_ports + self.port_offsets[q]
             for q, loc in enumerate(self.locals)]) if S else \
            np.zeros(0, dtype=np.int64)
        self.slot_inv_z = np.concatenate(
            [loc.slot_inv_z for loc in self.locals]) if S else np.zeros(0)

        # global slot-routing permutation: the wave emitted on slot l is
        # delivered into global slot route_dest_slot_global[l]
        dest_part = np.zeros(S, dtype=np.int64)
        dest_local = np.zeros(S, dtype=np.int64)
        dtlp = np.zeros(S, dtype=np.int64)
        for q, rts in enumerate(routes):
            o = int(self.slot_offsets[q])
            for l, (dp, ds, di, _delay) in enumerate(rts):
                dest_part[o + l] = dp
                dest_local[o + l] = ds
                dtlp[o + l] = di
        if np.any(dest_part >= P) or np.any(dest_part < 0):
            raise ValidationError("route destination part out of range")
        self.route_dest_part = dest_part
        self.route_dest_slot_local = dest_local
        self.route_dest_slot_global = (self.slot_offsets[dest_part]
                                       + dest_local)
        if S and np.any((dest_local < 0)
                        | (dest_local >= slot_counts[dest_part])):
            raise ValidationError("route destination slot out of range")
        self.route_dtlp = dtlp

        # mutable state: zero initial boundary conditions, u(0) = ω(0) = 0
        self.waves = np.zeros(S)
        self.u = np.zeros(R)
        self.last_sent = np.full(S, np.nan)
        self.n_solves = np.zeros(P, dtype=np.int64)
        self.n_received = np.zeros(P, dtype=np.int64)
        self.dirty = np.ones(P, dtype=bool)

        self._all_slots = np.arange(S, dtype=np.int64)
        self._build_groups()
        self._views: Optional[list[FleetKernelView]] = None

    #: class-level default so forked kernels (object.__new__ copies in
    #: :meth:`fork`) inherit the disabled state without extra work
    _c_solves = None

    def install_obs(self, registry) -> None:
        """Count subdomain solves on *registry* (hot path: guarded).

        Left uninstalled (the default), the sweep loop pays one
        attribute check per batch — the near-zero disabled cost the
        telemetry layer promises.
        """
        self._c_solves = registry.counter(
            "repro_fleet_solves_total",
            "subdomain solves executed by the in-process fleet")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_groups(self) -> None:
        by_shape: dict[tuple[int, int], list[int]] = {}
        for q, loc in enumerate(self.locals):
            by_shape.setdefault((loc.n_ports, loc.n_slots), []).append(q)
        self.groups: list[_ShapeGroup] = []
        self._part_group = np.zeros(self.n_parts, dtype=np.int64)
        self._part_pos = np.zeros(self.n_parts, dtype=np.int64)
        for gid, ((r, s), parts) in enumerate(sorted(by_shape.items())):
            parts_arr = np.asarray(parts, dtype=np.int64)
            W3 = np.stack([self.locals[q].W for q in parts]) if r else \
                np.zeros((len(parts), 0, s))
            u0 = np.stack([self.locals[q].u0 for q in parts]) if r else \
                np.zeros((len(parts), 0))
            slot_idx = np.stack(
                [np.arange(self.slot_offsets[q], self.slot_offsets[q + 1])
                 for q in parts]).astype(np.int64) if s else \
                np.zeros((len(parts), 0), dtype=np.int64)
            port_idx = np.stack(
                [np.arange(self.port_offsets[q], self.port_offsets[q + 1])
                 for q in parts]).astype(np.int64) if r else \
                np.zeros((len(parts), 0), dtype=np.int64)
            self.groups.append(_ShapeGroup(gid, parts_arr, r, s, W3, u0,
                                           slot_idx, port_idx))
            self._part_group[parts_arr] = gid
            self._part_pos[parts_arr] = np.arange(len(parts))

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
        """Resolve every (or the masked subset of) subdomain at once.

        One un-padded batched mat-vec per shape group — bitwise
        identical to one GEMV per subdomain (module docstring).
        """
        if active_mask is None:
            for g in self.groups:
                if g.s == 0:
                    self.u[g.port_idx] = g.u0
                else:
                    wv = self.waves[g.slot_idx]
                    self.u[g.port_idx] = g.u0 + np.matmul(
                        g.W3, wv[:, :, None])[:, :, 0]
            self.n_solves += 1
            self.dirty[:] = False
            if self._c_solves is not None:
                self._c_solves.inc(self.n_parts)
            return
        parts = self._normalize_parts(active_mask)
        if parts.size == 0:
            return
        gids = self._part_group[parts]
        for g in self.groups:
            sel = parts[gids == g.gid]
            if sel.size == 0:
                continue
            pos = self._part_pos[sel]
            if g.s == 0:
                self.u[g.port_idx[pos]] = g.u0[pos]
            else:
                wv = self.waves[g.slot_idx[pos]]
                self.u[g.port_idx[pos]] = g.u0[pos] + np.matmul(
                    g.W3[pos], wv[:, :, None])[:, :, 0]
        self.n_solves[parts] += 1
        self.dirty[parts] = False
        if self._c_solves is not None:
            self._c_solves.inc(int(parts.size))

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

    def emit_all(self, active_mask=None) -> tuple[np.ndarray, np.ndarray]:
        """Emit every slot's wave, routed to its destination.

        Returns ``(dest_slot_global, values)`` ready for
        :meth:`receive_batch` — the "emit then deliver" scatter.
        """
        if active_mask is None:
            idx = self._all_slots
        else:
            parts = self._normalize_parts(active_mask)
            starts = self.slot_offsets[parts]
            counts = self.slot_offsets[parts + 1] - starts
            idx = _concat_ranges(starts, counts)
        idx, values = self.emit_slots(idx)
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
        uniq, first, cnt = np.unique(parts, return_index=True,
                                     return_counts=True)
        order = np.argsort(first, kind="stable")
        return uniq[order], cnt[order]

    def receive_one(self, slot_global: int, value: float) -> None:
        """Deliver a single wave by global slot (scalar fast path).

        The per-arrival bookkeeping of the cluster kernel's receive path.
        """
        self.waves[slot_global] = value
        part = self.slot_part[slot_global]
        self.n_received[part] += 1
        self.dirty[part] = True

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

    def repack_u0(self) -> None:
        """Restack the shape groups' ``u0`` blocks from the locals.

        Called after the locals' zero-wave states changed (RHS swap):
        the wave-response stacks ``W3`` depend only on the matrix and
        stay shared, so re-packing is O(total ports) copying — no
        re-factorization, no re-grouping.
        """
        for g in self.groups:
            if g.r == 0:
                continue
            for i, q in enumerate(g.parts):
                g.u0[i, :] = self.locals[q].u0

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
            raise ValidationError(
                "pass exactly one of rhs_list / x0_list")
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
        self.repack_u0()
        if reset:
            self.reset_state()

    def fork(self, *, send_threshold: Optional[float] = None
             ) -> "FleetKernel":
        """Structural copy sharing every immutable packed array.

        The routing permutation, offsets, slot tables and the groups'
        ``W3`` wave-response stacks are shared (they only depend on the
        split and the impedances); the locals are forked (own ``x0``),
        the per-member ``u0`` stacks are restacked and all mutable state
        is fresh.  This is how a :class:`~repro.plan.SolverPlan` hands
        each session its own runnable fleet without re-packing.
        """
        new = object.__new__(FleetKernel)
        new.locals = [loc.fork() for loc in self.locals]
        st = self.send_threshold if send_threshold is None \
            else float(send_threshold)
        if st < 0:
            raise ValidationError("send_threshold must be >= 0")
        new.send_threshold = st
        new.n_parts = self.n_parts
        new.slot_offsets = self.slot_offsets
        new.port_offsets = self.port_offsets
        new.n_slots_total = self.n_slots_total
        new.n_ports_total = self.n_ports_total
        new.slot_part = self.slot_part
        new.slot_port_global = self.slot_port_global
        new.slot_inv_z = self.slot_inv_z
        new.route_dest_part = self.route_dest_part
        new.route_dest_slot_local = self.route_dest_slot_local
        new.route_dest_slot_global = self.route_dest_slot_global
        new.route_dtlp = self.route_dtlp
        new.waves = np.zeros(self.n_slots_total)
        new.u = np.zeros(self.n_ports_total)
        new.last_sent = np.full(self.n_slots_total, np.nan)
        new.n_solves = np.zeros(self.n_parts, dtype=np.int64)
        new.n_received = np.zeros(self.n_parts, dtype=np.int64)
        new.dirty = np.ones(self.n_parts, dtype=bool)
        new._all_slots = self._all_slots
        new._part_group = self._part_group
        new._part_pos = self._part_pos
        new.groups = [
            _ShapeGroup(g.gid, g.parts, g.r, g.s, g.W3,
                        np.empty_like(g.u0), g.slot_idx, g.port_idx)
            for g in self.groups]
        new.repack_u0()  # fills the fresh u0 stacks from new.locals
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
    arrays: mutating them mutates fleet state and vice versa.  Counters
    read/write the fleet's per-part counter arrays.
    A simulated processor drives it through ``solve`` / ``dirty``
    (arrivals land in batches through :meth:`FleetKernel.receive_batch`,
    never one ``receive`` per wave); ``solve`` returns the raw emission
    arrays the simulator's router understands, so the hot path never
    allocates a message object.
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


# ======================================================================
# per-shard repack: the multiprocess runtime's compute payload
# ======================================================================
def pack_shard_kernel(parts: np.ndarray,
                      locals_: Sequence[LocalSystem]) -> ShardKernel:
    """Stack the local systems of contiguous *parts* into a shard kernel.

    Same-shape batching as :meth:`FleetKernel._build_groups`, with
    ``n_local`` added to the key (the ``X3`` full-state stacks need
    it); per-member results are batch-composition independent (module
    docstring), and the lockstep bitwise test in
    ``tests/runtime/test_multiproc.py`` pins the two groupings to each
    other — if one changes, that test is the tripwire.
    """
    parts = np.asarray(parts, dtype=np.int64)
    if len(locals_) != parts.size:
        raise ValidationError(
            f"{parts.size} parts but {len(locals_)} local systems")

    def offsets(counts) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    slot_off = offsets([loc.n_slots for loc in locals_])
    port_off = offsets([loc.n_ports for loc in locals_])
    state_off = offsets([loc.n_local for loc in locals_])

    def index_rows(off: np.ndarray, members, width: int) -> np.ndarray:
        if not width:
            return np.zeros((len(members), 0), dtype=np.int64)
        return np.stack([np.arange(off[i], off[i + 1])
                         for i in members]).astype(np.int64)

    #: shard-local port index each owned slot's wave acts on
    slot_port = np.concatenate(
        [loc.slot_ports + port_off[i]
         for i, loc in enumerate(locals_)]) if slot_off[-1] else \
        np.zeros(0, dtype=np.int64)

    by_shape: dict[tuple[int, int, int], list[int]] = {}
    for i, loc in enumerate(locals_):
        key = (loc.n_local, loc.n_ports, loc.n_slots)
        by_shape.setdefault(key, []).append(i)
    groups = []
    for (n, r, s), members in sorted(by_shape.items()):
        g = len(members)
        W3 = np.stack([locals_[i].W for i in members]) if r else \
            np.zeros((g, 0, s))
        X3 = np.stack([locals_[i].X for i in members]) if n else \
            np.zeros((g, 0, s))
        groups.append(_ShardGroup(
            n, r, s, np.asarray(members, dtype=np.int64), W3, X3,
            index_rows(slot_off, members, s),
            index_rows(port_off, members, r),
            index_rows(state_off, members, n)))
    return ShardKernel(parts, slot_port, groups)


def extract_shard_kernel(fleet: FleetKernel, lo: int, hi: int
                         ) -> ShardKernel:
    """Repack fleet parts ``[lo, hi)`` into a :class:`ShardKernel`."""
    if not 0 <= lo < hi <= fleet.n_parts:
        raise ValidationError(
            f"shard range [{lo}, {hi}) out of [0, {fleet.n_parts})")
    parts = np.arange(lo, hi, dtype=np.int64)
    return pack_shard_kernel(parts, [fleet.locals[q] for q in parts])
