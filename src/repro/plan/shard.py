"""Shard extraction: cutting an immutable plan into worker payloads.

The multiprocess runtime (:mod:`repro.runtime.multiproc`) executes one
:class:`~repro.core.shard_kernel.ShardKernel` per worker process.  This module
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

A :class:`ShardSpec` is deliberately slim — index tables plus the
wave-response stacks, **no** retained factors, no topology, no graph —
and has exactly one serialized form, the **shard payload**
(:meth:`ShardSpec.encode_payload` / :meth:`ShardSpec.from_payload`):
the bytes a shared-memory segment holds for a local worker and the
mesh SPEC frame carries to a remote one.  A worker sweeps its ports and
is looked at through its ports and *halo rows* (the inner vertices
adjacent to a port, :func:`look_rows`), so the payload carries those
rows of each member's wave responses and no others: the interiors are
built by the coordinator, once per answer, from the plan's own stacks.
Layout (little-endian)::

    hdr_len  uint32    byte length of the JSON header
    hdr_crc  uint32    CRC-32 of the header bytes
    header   hdr_len   JSON: schema, scalar fields, array table
    pad      ...       zeros up to the next 64-byte boundary
    data     ...       raw C-order array bytes, each 64-byte aligned

The header's ``arrays`` table lists ``[name, dtype, shape, offset]``
per array (offsets from the start of the data section); dtypes are
``<f8`` and ``<i8`` and nothing else.  The payload may come from
another machine: :meth:`ShardSpec.from_payload` checks the header
against its checksum and every table entry against the buffer it was
handed *before* it makes a view, sizes nothing by a header field
alone, and hands the worker read-only zero-copy views — no object
graph is ever rebuilt from the bytes.
"""

from __future__ import annotations

import json
import operator
import struct
from binascii import crc32
from dataclasses import dataclass, field
from math import prod
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..core.shard_kernel import ShardKernel, _offsets, _ShardGroup
from ..errors import ConfigurationError, ValidationError

#: payload format tag, checked on load so a worker of another build
#: fails loudly instead of misinterpreting the tables; bump it with any
#: change to the layout, the header fields or the array names
PAYLOAD_SCHEMA = "repro-shard-payload/5"

_PREFIX = struct.Struct("<II")  # header length, header CRC-32
_ALIGN = 64
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
#: per shape group ``(n, r, h, s)`` with ``g`` members, each holding
#: its ``r`` port rows and ``h`` halo rows of ``n``: array → shape
_GROUP_ARRAYS = {
    "members": ("<i8", lambda g, r, h, s: (g,)),
    "X3": ("<f8", lambda g, r, h, s: (g, r + h, s)),
    "slot_idx": ("<i8", lambda g, r, h, s: (g, s)),
    "port_idx": ("<i8", lambda g, r, h, s: (g, r)),
    "state_idx": ("<i8", lambda g, r, h, s: (g, r + h)),
}
_SCALARS = ("index", "n_shards", "slot_lo", "slot_hi", "state_lo",
            "state_hi")


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def _malformed(why: str) -> ValidationError:
    return ValidationError(f"malformed shard payload: {why}")


def _read_header(view: memoryview) -> tuple[dict, memoryview]:
    """The checked JSON header of a payload, and its data section."""
    if len(view) < _PREFIX.size:
        raise _malformed("truncated before the header")
    hdr_len, crc = _PREFIX.unpack(view[:_PREFIX.size])
    end = _PREFIX.size + hdr_len
    if end > len(view):
        raise _malformed(
            f"a {hdr_len}-byte header in a buffer of {len(view)} "
            f"(truncated, or not a {PAYLOAD_SCHEMA!r} payload)")
    head = bytes(view[_PREFIX.size:end])
    if crc32(head) != crc:
        raise _malformed(
            f"header checksum mismatch (corrupt, or not a "
            f"{PAYLOAD_SCHEMA!r} payload)")
    try:
        header = json.loads(head)
    except (ValueError, RecursionError) as exc:
        raise _malformed(f"header is not JSON: {exc}") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != PAYLOAD_SCHEMA:
        raise ValidationError(
            f"unknown shard payload schema {schema!r} (expected "
            f"{PAYLOAD_SCHEMA!r})")
    return header, view[min(_align(end), len(view)):]


def _read_arrays(table, data: memoryview) -> dict:
    """Read-only views of the tabled arrays, ``name -> ndarray``.

    Every entry is checked against ``len(data)`` and against the other
    entries first; a view is made only of a table that fits.
    """
    if not isinstance(table, list):
        raise _malformed("no array table")
    entries = []
    for entry in table:
        try:
            name, dtype, shape, offset = entry
            dtype = _DTYPES[dtype]
            shape = tuple(operator.index(d) for d in shape)
            offset = operator.index(offset)
        except (TypeError, ValueError, KeyError) as exc:
            raise _malformed(
                f"bad array table entry {entry!r}") from exc
        nbytes = dtype.itemsize * prod(shape)  # exact python ints
        if not isinstance(name, str) or min(shape, default=0) < 0 \
                or offset < 0 or offset % _ALIGN \
                or offset + nbytes > len(data):
            raise _malformed(
                f"array {name!r} ({nbytes} bytes at {offset}) does not "
                f"fit the {len(data)}-byte data section")
        entries.append((offset, nbytes, name, dtype, shape))
    end = 0
    for offset, nbytes, name, _, _ in sorted(entries, key=lambda e: e[:2]):
        if offset < end:
            raise _malformed(f"array {name!r} overlaps its predecessor")
        end = offset + nbytes
    arrays = {}
    for offset, nbytes, name, dtype, shape in entries:
        if name in arrays:
            raise _malformed(f"array {name!r} is listed twice")
        try:
            arrays[name] = np.frombuffer(
                data, dtype=dtype, count=nbytes // dtype.itemsize,
                offset=offset).reshape(shape)
        except ValueError as exc:  # an empty array of absurd shape
            raise _malformed(f"array {name!r}: {exc}") from exc
    return arrays


def _ints(values, what: str, count: Optional[int] = None) -> list:
    """*values*, checked to be a list of (*count*) non-negative ints."""
    if not isinstance(values, list) \
            or count not in (None, len(values)) \
            or any(type(v) is not int or v < 0 for v in values):
        raise _malformed(
            f"{what} is not a list of "
            f"{'' if count is None else f'{count} '}non-negative integers")
    return values


def _check_index(name: str, arr: np.ndarray, n: Optional[int]) -> None:
    """Indices in *arr* lie in ``[0, n)`` (``n=None``: no upper end)."""
    if arr.size and (arr.min() < 0 or (n is not None and arr.max() >= n)):
        raise _malformed(f"array {name!r} indexes outside [0, {n})")


def look_rows(split) -> list[np.ndarray]:
    """Per subdomain, the local rows a worker holds and publishes: its
    ports, then its *halo* — the inner rows adjacent to a port —
    ascending.

    An inner row's equation is a row of ``A`` that the local solve
    meets; only where it couples to a port copy can the gathered
    solution disagree with it.  So the relative residual of the
    gathered solution is a function of these rows alone
    (:class:`repro.runtime.look.HaloLook`).
    """
    rows = []
    for sub in split.subdomains:
        m, r = sub.matrix, sub.n_ports
        row_of = np.repeat(np.arange(m.nrows), np.diff(m.indptr))
        halo = np.unique(row_of[(row_of >= r) & (m.indices < r)])
        rows.append(np.concatenate([np.arange(r), halo]).astype(np.int64))
    return rows


class _Take(NamedTuple):
    """A payload array gathered at encode time: ``rows`` of the 2-D
    stack ``src``, written straight into the payload buffer."""

    src: np.ndarray
    rows: np.ndarray
    shape: tuple

    @property
    def size(self) -> int:
        return prod(self.shape)


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
    #: global flat-array slices owned by this shard: its wave slots,
    #: and its rows of the published *look* layout (per subdomain its
    #: :func:`look_rows`, back to back in part order)
    slot_lo: int
    slot_hi: int
    state_lo: int
    state_hi: int
    #: the wave-response stacks: on the coordinator a slice of the
    #: plan's fleet kernel (every row), in a worker the decoded look
    #: rows only; ``None`` on a coordinator whose transport holds the
    #: encoded payload (it reads the index tables and mailboxes only)
    kernel: Optional[ShardKernel]
    #: in-shard deliveries (src == dst == index)
    loopback: MailboxSpec
    #: cross-shard deliveries, one per destination shard, ascending
    outboxes: list[MailboxSpec] = field(default_factory=list)
    #: coordinator side: each member's :func:`look_rows`, the rows the
    #: payload keeps (a decoded spec holds nothing else)
    look_rows: Optional[list] = None

    @property
    def n_parts(self) -> int:
        return int(self.parts.size)

    def _payload_arrays(self) -> tuple[list, dict]:
        """The groups' ``[g, n, r, h, s]`` and every array of the
        payload by name, in payload order (stacks as :class:`_Take`)."""
        kern = self.kernel
        if kern is None or self.look_rows is None:
            raise ValidationError(
                f"shard {self.index} no longer holds its stacks (they "
                "were handed to a transport); extract the shard again")
        arrays = {"parts": self.parts, "slot_port": kern.slot_port}
        boxes = [("loopback", self.loopback)] + [
            (f"outbox{j}", box) for j, box in enumerate(self.outboxes)]
        for name, box in boxes:
            arrays[f"{name}.emit_pos"] = box.emit_pos
            arrays[f"{name}.dest_slots"] = box.dest_slots
        look_off = _offsets([rows.size for rows in self.look_rows])
        dims = []
        for g in kern.groups:  # regrouped by halo count h
            n, r, s = g.n, g.r, g.s
            hs = np.array([self.look_rows[m].size for m in g.members]) - r
            for h in np.unique(hs).tolist():
                pick = np.flatnonzero(hs == h)
                members = g.members[pick]
                held = np.stack([self.look_rows[m] for m in members])
                shape = (members.size, r + h, s)
                j = len(dims)
                dims.append([int(members.size), n, r, h, s])
                arrays[f"group{j}.members"] = members
                arrays[f"group{j}.X3"] = _Take(
                    g.X3.reshape(-1, s), (pick[:, None] * n + held).ravel(),
                    shape) if s else np.zeros(shape)
                arrays[f"group{j}.slot_idx"] = g.slot_idx[pick]
                arrays[f"group{j}.port_idx"] = g.port_idx[pick]
                arrays[f"group{j}.state_idx"] = \
                    look_off[members, None] + np.arange(r + h)
        return dims, arrays

    def encode_payload(self, alloc=bytearray):
        """Encode into the writable buffer ``alloc(nbytes)`` returns.

        Returns that buffer.  The arrays are copied once, straight
        into it, and the stacks' port and halo rows are gathered
        straight into it — a shared-memory transport passes an *alloc*
        that creates the segment, so no intermediate copy exists.
        """
        dims, arrays = self._payload_arrays()
        table, end = [], 0
        for name, arr in arrays.items():
            dtype = "<f8" if isinstance(arr, _Take) \
                or arr.dtype.kind == "f" else "<i8"
            offset = _align(end)
            table.append([name, dtype, list(arr.shape), offset])
            end = offset + 8 * arr.size
        head = json.dumps({
            "schema": PAYLOAD_SCHEMA,
            **{name: int(getattr(self, name)) for name in _SCALARS},
            "outboxes": [int(box.dst_shard) for box in self.outboxes],
            "groups": dims,
            "arrays": table,
        }, separators=(",", ":")).encode()
        data_start = _align(_PREFIX.size + len(head))
        buf = alloc(data_start + end)
        view = memoryview(buf)
        view[:_PREFIX.size] = _PREFIX.pack(len(head), crc32(head))
        view[_PREFIX.size:_PREFIX.size + len(head)] = head
        for (_, dtype, shape, offset), arr in zip(table, arrays.values()):
            if not arr.size:
                continue
            out = np.frombuffer(view, dtype=dtype, count=arr.size,
                                offset=data_start + offset)
            if isinstance(arr, _Take):
                # (mode="clip": the default buffers the gather)
                np.take(arr.src, arr.rows, axis=0, mode="clip",
                        out=out.reshape(-1, shape[-1]))
            else:
                out.reshape(arr.shape)[...] = arr
        return buf

    def to_payload(self) -> bytes:
        """The shard payload as one bytes object."""
        return bytes(self.encode_payload())

    @staticmethod
    def from_payload(payload) -> "ShardSpec":
        """Rebuild a spec over read-only views of *payload*.

        Its kernel holds each member's look rows only — ports, then
        halo — so its groups' ``n`` is ``r + h`` and its states are
        the look layout's rows.

        *payload* is any buffer — bytes, a shared-memory
        ``memoryview``, a wire blob — and must outlive the spec (the
        views keep it alive).  Raises
        :class:`~repro.errors.ValidationError` on anything that is not
        a well-formed payload of this build's :data:`PAYLOAD_SCHEMA`.
        """
        view = memoryview(payload).toreadonly().cast("B")
        header, data = _read_header(view)
        arrays = _read_arrays(header.get("arrays"), data)

        def take(name: str, dtype: str, shape=None) -> np.ndarray:
            arr = arrays.pop(name, None)
            if arr is None or arr.dtype != _DTYPES[dtype] \
                    or (arr.ndim != 1 if shape is None
                        else arr.shape != shape):
                raise _malformed(
                    f"array {name!r} is missing or is not {dtype} of "
                    f"shape {'(any,)' if shape is None else shape}")
            return arr

        def mailbox(name: str, dst: int) -> MailboxSpec:
            emit_pos = take(f"{name}.emit_pos", "<i8")
            dest_slots = take(f"{name}.dest_slots", "<i8", emit_pos.shape)
            _check_index(f"{name}.emit_pos", emit_pos, slot_port.size)
            _check_index(f"{name}.dest_slots", dest_slots, None)
            # single writer per slot: loopback waves land in the
            # shard's own slots, outbox waves in another shard's
            owned = (dest_slots >= slot_lo) & (dest_slots < slot_hi)
            if not np.all(owned if dst == index else ~owned):
                raise _malformed(
                    f"array '{name}.dest_slots' has slots "
                    f"{'outside' if dst == index else 'inside'} the "
                    f"shard's own range [{slot_lo}, {slot_hi})")
            return MailboxSpec(index, dst, emit_pos, dest_slots)

        index, n_shards, slot_lo, slot_hi, state_lo, state_hi = _ints(
            [header.get(name) for name in _SCALARS], f"fields {_SCALARS}")
        parts = take("parts", "<i8")
        slot_port = take("slot_port", "<i8")
        group_dims = header.get("groups")
        if not isinstance(group_dims, list):
            raise _malformed("field 'groups' is not a list")
        groups = []
        for j, dims in enumerate(group_dims):
            g, n, r, h, s = _ints(dims, f"group {j}'s [g, n, r, h, s]", 5)
            if r + h > n:
                raise _malformed(f"group {j} holds more rows than it has")
            # a worker's kernel holds the look rows: its n is r + h
            groups.append(_ShardGroup(r + h, r, s, **{
                key: take(f"group{j}.{key}", dtype, shape(g, r, h, s))
                for key, (dtype, shape) in _GROUP_ARRAYS.items()}))
            _check_index(f"group{j}.members", groups[-1].members,
                         parts.size)
        kernel = ShardKernel(parts, slot_port, groups)
        _check_index("slot_port", slot_port, kernel.n_ports)
        for j, group in enumerate(groups):
            for key, n in (("slot_idx", kernel.n_slots),
                           ("port_idx", kernel.n_ports),
                           ("state_idx", kernel.n_states)):
                _check_index(f"group{j}.{key}", getattr(group, key), n)
        if not index < n_shards \
                or slot_hi - slot_lo != kernel.n_slots \
                or state_hi - state_lo != kernel.n_states:
            raise _malformed(
                "the shard's index or slot/state ranges disagree with "
                "its arrays")
        loopback = mailbox("loopback", index)
        outboxes = []
        for j, dst in enumerate(_ints(header.get("outboxes"),
                                      "field 'outboxes'")):
            if dst >= n_shards or dst == index:
                raise _malformed(f"outbox {j} targets shard {dst}")
            outboxes.append(mailbox(f"outbox{j}", dst))
        if arrays:
            raise _malformed(f"unexpected arrays {sorted(arrays)}")
        return ShardSpec(
            index=index, n_shards=n_shards, parts=parts,
            slot_lo=slot_lo, slot_hi=slot_hi,
            state_lo=state_lo, state_hi=state_hi,
            kernel=kernel, loopback=loopback, outboxes=outboxes)


def extract_shards(plan, n_shards: int) -> list[ShardSpec]:
    """Cut *plan* into *n_shards* contiguous worker payloads.

    Subdomains are grouped in part order (contiguous groups keep each
    shard's slot/port/state slices contiguous in the global flat
    arrays, so shared-memory views need no index indirection), balanced
    by local system size.  Each shard's kernel is a slice of the plan
    fleet's — its stacks are views, not copies — and its payload keeps
    the members' :func:`look_rows` of them.  Cross-shard routing is
    split into one :class:`MailboxSpec` per directed shard pair.
    """
    if plan.mode != "dtm":
        raise ConfigurationError(
            f"shard extraction needs a dtm-mode plan, got {plan.mode!r}")
    fleet = plan.fleet_template
    weights = [max(loc.n_local, 1) for loc in plan.base_locals]
    bounds = shard_bounds(weights, n_shards)
    shard_of = np.repeat(np.arange(n_shards),
                         [hi - lo for lo, hi in bounds])
    slot_off = fleet.slot_offsets
    rows = look_rows(plan.split)
    look_off = _offsets([r.size for r in rows])

    specs: list[ShardSpec] = []
    for k, (lo, hi) in enumerate(bounds):
        owned = slice(slot_off[lo], slot_off[hi])
        dest_global = fleet.route_dest_slot_global[owned]
        dest_shard = shard_of[fleet.route_dest_part[owned]]

        def mailbox(dst: int) -> MailboxSpec:
            pos = np.flatnonzero(dest_shard == dst)
            return MailboxSpec(k, dst, pos, dest_global[pos])

        kernel = fleet.kernel.slice(lo, hi)
        specs.append(ShardSpec(
            index=k, n_shards=n_shards, parts=kernel.parts,
            slot_lo=int(slot_off[lo]), slot_hi=int(slot_off[hi]),
            state_lo=int(look_off[lo]), state_hi=int(look_off[hi]),
            kernel=kernel, loopback=mailbox(k),
            outboxes=[mailbox(dst) for dst in np.unique(dest_shard).tolist()
                      if dst != k],
            look_rows=rows[lo:hi]))
    return specs
