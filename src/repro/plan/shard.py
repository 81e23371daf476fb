"""Shard extraction: cutting an immutable plan into worker payloads.

The multiprocess runtime (:mod:`repro.runtime.multiproc`) executes one
:class:`~repro.core.fleet.ShardKernel` per worker process.  This module
computes the cut: contiguous, compute-balanced groups of subdomains,
each shard's slice of the global flat arrays (slots / ports / state
rows), and the **mailbox specs** — for every directed pair of shards
that exchange boundary waves, the emission positions on the source side
and the destination slots on the target side.

Every global wave slot has exactly *one* writer (its twin slot's owning
shard) and one reader (its own shard), so a mailbox delivery is a plain
latest-wins array scatter with no locking — the shared-memory analogue
of the simulator's per-message overwrite semantics (see
``FleetKernel.receive_batch``).

A :class:`ShardSpec` is deliberately slim and picklable: index tables
plus the wave-response stacks, **no** retained factors, no topology, no
graph — the serialization unit handed to worker processes at spawn
(works under ``fork``, ``spawn`` and ``forkserver`` start methods).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.fleet import ShardKernel, extract_shard_kernel
from ..errors import ConfigurationError, ValidationError

#: payload format tag, checked on load so a stale worker binary fails
#: loudly instead of misinterpreting the index tables
PAYLOAD_SCHEMA = "repro-shard-payload/2"


def shard_bounds(weights: Sequence[float], n_shards: int
                 ) -> list[tuple[int, int]]:
    """Cut ``range(len(weights))`` into *n_shards* contiguous groups.

    Greedy quantile cut on the cumulative weight (weights are per-part
    compute cost proxies, e.g. local system sizes): shard *k* ends at
    the first part whose cumulative weight reaches ``(k+1)/n`` of the
    total, while always leaving at least one part per remaining shard.
    """
    n_parts = len(weights)
    if not 1 <= n_shards <= n_parts:
        raise ConfigurationError(
            f"cannot cut {n_parts} subdomain(s) into {n_shards} "
            f"shard(s): shards must be in [1, {n_parts}] (at least one "
            "subdomain per shard — rebuild the plan with more "
            "subdomains, or lower the shard count)")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValidationError("shard weights must be non-negative")
    total = float(w.sum()) or 1.0
    cum = np.cumsum(w)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for k in range(n_shards):
        if k == n_shards - 1:
            hi = n_parts
        else:
            target = total * (k + 1) / n_shards
            hi = int(np.searchsorted(cum, target, side="left")) + 1
            # leave one part for each shard still to come, take one
            hi = min(max(hi, lo + 1), n_parts - (n_shards - 1 - k))
        bounds.append((lo, hi))
        lo = hi
    return bounds


@dataclass(frozen=True)
class MailboxSpec:
    """One directed shard pair's wave channel (latest-wins slots).

    ``emit_pos`` indexes the *source* shard's owned-slot range (the
    outgoing-wave vector a :meth:`ShardKernel.sweep` returns);
    ``dest_slots`` are the *global* slot indices those waves land in.
    ``src_shard == dst_shard`` is the in-shard loopback channel.
    """

    src_shard: int
    dst_shard: int
    emit_pos: np.ndarray
    dest_slots: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.emit_pos.size)


@dataclass
class ShardSpec:
    """Everything one worker process needs to run its subdomains."""

    index: int
    n_shards: int
    parts: np.ndarray
    #: global flat-array slices owned by this shard
    slot_lo: int
    slot_hi: int
    state_lo: int
    state_hi: int
    kernel: ShardKernel
    #: in-shard deliveries (src == dst == index)
    loopback: MailboxSpec
    #: cross-shard deliveries, one per destination shard, ascending
    outboxes: list[MailboxSpec] = field(default_factory=list)

    @property
    def n_parts(self) -> int:
        return int(self.parts.size)

    def to_payload(self) -> bytes:
        """Serialize for worker handoff (start-method agnostic)."""
        return pickle.dumps((PAYLOAD_SCHEMA, self),
                            protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_payload(payload: bytes) -> "ShardSpec":
        schema, spec = pickle.loads(payload)
        if schema != PAYLOAD_SCHEMA:
            raise ValidationError(
                f"unknown shard payload schema {schema!r} (expected "
                f"{PAYLOAD_SCHEMA!r})")
        return spec


def part_shard_map(bounds: Sequence[tuple[int, int]],
                   n_parts: int) -> np.ndarray:
    """``part → shard`` lookup table for contiguous *bounds*."""
    out = np.empty(n_parts, dtype=np.int64)
    for k, (lo, hi) in enumerate(bounds):
        out[lo:hi] = k
    return out


def extract_shards(plan, n_shards: int) -> list[ShardSpec]:
    """Cut *plan* into *n_shards* contiguous worker payloads.

    Subdomains are grouped in part order (contiguous groups keep each
    shard's slot/port/state slices contiguous in the global flat
    arrays, so shared-memory views need no index indirection), balanced
    by local system size.  Cross-shard routing is split into one
    :class:`MailboxSpec` per directed shard pair.
    """
    if plan.mode != "dtm":
        raise ConfigurationError(
            f"shard extraction needs a dtm-mode plan, got {plan.mode!r}")
    fleet = plan.fleet_template
    weights = [max(loc.n_local, 1) for loc in plan.base_locals]
    bounds = shard_bounds(weights, n_shards)
    shard_of = part_shard_map(bounds, fleet.n_parts)
    state_off = np.concatenate(
        [[0], np.cumsum([loc.n_local for loc in plan.base_locals])]
    ).astype(np.int64)

    specs: list[ShardSpec] = []
    for k, (lo, hi) in enumerate(bounds):
        kernel = extract_shard_kernel(fleet, lo, hi)
        slot_lo = int(fleet.slot_offsets[lo])
        slot_hi = int(fleet.slot_offsets[hi])
        owned = np.arange(slot_lo, slot_hi, dtype=np.int64)
        dest_global = fleet.route_dest_slot_global[owned]
        dest_shard = shard_of[fleet.route_dest_part[owned]]
        loop_pos = np.flatnonzero(dest_shard == k)
        loopback = MailboxSpec(k, k, loop_pos, dest_global[loop_pos])
        outboxes = []
        for dst in np.unique(dest_shard):
            dst = int(dst)
            if dst == k:
                continue
            pos = np.flatnonzero(dest_shard == dst)
            outboxes.append(MailboxSpec(k, dst, pos, dest_global[pos]))
        specs.append(ShardSpec(
            index=k, n_shards=n_shards,
            parts=np.arange(lo, hi, dtype=np.int64),
            slot_lo=slot_lo, slot_hi=slot_hi,
            state_lo=int(state_off[lo]), state_hi=int(state_off[hi]),
            kernel=kernel, loopback=loopback, outboxes=outboxes))
    return specs
