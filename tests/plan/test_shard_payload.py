"""The shard payload: one flat encoding, decoded from untrusted bytes.

``ShardSpec.from_payload`` reads buffers that may have crossed a
socket (the mesh SPEC frame).  The contract pinned here: a well-formed
payload carries each member's port and halo rows and nothing else,
comes back as read-only zero-copy views that sweep bit for bit like
the spec they were encoded from, and *anything else* — truncated,
corrupted, hand-crafted to point outside the buffer, of another schema,
or an older build's pickle — raises ``ValidationError`` before a
single view is made.
"""

import json
import pickle
import socket
import struct
import threading
from binascii import crc32

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, ValidationError
from repro.net import wire
from repro.net.mesh import MeshWorkerPort
from repro.net.transport import EdgeMailbox
from repro.plan import build_plan
from repro.plan.shard import (
    PAYLOAD_SCHEMA,
    ShardSpec,
    extract_shards,
    look_rows,
)
from repro.workloads.poisson import grid2d_poisson

PREFIX = struct.Struct("<II")
SCALARS = ("index", "n_shards", "slot_lo", "slot_hi", "state_lo", "state_hi")


def align(n: int) -> int:
    return (n + 63) & ~63


def split(payload: bytes) -> tuple:
    """``(header dict, data section)`` of a well-formed payload."""
    hdr_len, _ = PREFIX.unpack(payload[: PREFIX.size])
    end = PREFIX.size + hdr_len
    return json.loads(payload[PREFIX.size : end]), payload[align(end) :]


def pack(header: dict, data: bytes) -> bytes:
    """A payload with a *valid* checksum over whatever *header* says."""
    head = json.dumps(header, separators=(",", ":")).encode()
    prefix = PREFIX.pack(len(head), crc32(head))
    pad = align(PREFIX.size + len(head)) - PREFIX.size - len(head)
    return prefix + head + b"\0" * pad + data


def entry_of(header: dict, name: str) -> list:
    """The array-table entry ``[name, dtype, shape, offset]`` of *name*."""
    return next(e for e in header["arrays"] if e[0] == name)


def mailboxes(spec) -> list:
    return [spec.loopback] + list(spec.outboxes)


def payload_arrays(spec) -> list:
    arrays = [spec.parts, spec.kernel.slot_port]
    for box in mailboxes(spec):
        arrays += [box.emit_pos, box.dest_slots]
    for g in spec.kernel.groups:
        arrays += [g.members, g.X3, g.slot_idx, g.port_idx, g.state_idx]
    return arrays


def look_x0(plan) -> np.ndarray:
    """The plan's zero-wave states in the look layout workers load."""
    return np.concatenate(
        [
            loc.x0[rows]
            for loc, rows in zip(plan.base_locals, look_rows(plan.split))
        ]
    )


def port_positions(kernel) -> np.ndarray:
    """Where each port (in port order) sits in a look-layout state."""
    return np.concatenate(
        [
            kernel.state_off[i] + np.arange(width)
            for i, width in enumerate(np.diff(kernel.port_off))
        ]
    )


@pytest.fixture(scope="module")
def plan():
    return build_plan(grid2d_poisson(12), n_subdomains=6, seed=2)


@pytest.fixture(scope="module")
def spec(plan):
    return extract_shards(plan, 2)[1]


@pytest.fixture(scope="module")
def payload(spec):
    return spec.to_payload()


class TestRoundTrip:
    def test_scalars_and_mailboxes_survive(self, spec, payload):
        clone = ShardSpec.from_payload(payload)
        for name in SCALARS:
            assert getattr(clone, name) == getattr(spec, name)
        assert np.array_equal(clone.parts, spec.parts)
        assert len(clone.outboxes) == len(spec.outboxes)
        for ours, theirs in zip(mailboxes(clone), mailboxes(spec)):
            assert ours.src_shard == theirs.src_shard
            assert ours.dst_shard == theirs.dst_shard
            assert np.array_equal(ours.emit_pos, theirs.emit_pos)
            assert np.array_equal(ours.dest_slots, theirs.dest_slots)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_any_buffer_gives_read_only_views(self, payload, wrap):
        """bytes, a writable buffer, a memoryview (what a shared
        segment hands out): the stacks come back as views — nothing is
        copied, nothing can be written through them."""
        clone = ShardSpec.from_payload(wrap(payload))
        for arr in payload_arrays(clone):
            assert arr.flags.writeable is False
            assert arr.flags.owndata is False

    def test_the_payload_is_the_arrays_plus_a_small_header(self, payload):
        clone = ShardSpec.from_payload(payload)
        nbytes = sum(arr.nbytes for arr in payload_arrays(clone))
        assert nbytes < len(payload) < nbytes + 16 * 1024

    def test_only_port_and_halo_rows_are_carried(self, plan, spec, payload):
        """Each member's stack holds its ports, then its halo rows (the
        inner rows its matrix couples to a port) — the very rows of the
        fleet's stack — and the full stacks are never shipped."""
        clone = ShardSpec.from_payload(payload)
        full = sum(g.X3.nbytes for g in spec.kernel.groups)
        held = sum(g.X3.nbytes for g in clone.kernel.groups)
        assert held < full
        for g in clone.kernel.groups:
            for row, m in zip(g.X3, g.members):
                rows = spec.look_rows[m]
                r = g.r
                assert np.array_equal(rows[:r], np.arange(r))
                sub = spec.kernel.groups[spec.kernel.part_group[m]]
                X = sub.X3[spec.kernel.part_row[m]]
                assert np.array_equal(row, X[rows])
                # a halo row couples to a port; no other inner row does
                a = plan.split.subdomains[spec.parts[m]].matrix.to_dense()
                couples = np.flatnonzero(np.abs(a[r:, :r]).sum(axis=1)) + r
                assert np.array_equal(rows[r:], couples)

    def test_the_port_responses_are_not_stored_apart(self, payload):
        """The stacks exist once: the port rows are read off ``X3``."""
        header, _ = split(payload)
        names = [entry[0] for entry in header["arrays"]]
        assert "group0.X3" in names
        assert not any(name.endswith(".W3") for name in names)

    def test_a_spec_without_its_stacks_cannot_be_encoded(self, payload):
        clone = ShardSpec.from_payload(payload)
        clone.kernel = None
        with pytest.raises(ValidationError, match="extract the shard"):
            clone.to_payload()

    @given(
        nx=st.integers(6, 10),
        parts=st.integers(2, 6),
        seed=st.integers(0, 50),
        data=st.data(),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_decoded_shards_sweep_bitwise_in_lockstep(
        self, nx, parts, seed, data
    ):
        """For generated plans and shard counts, every decoded shard
        sweeps bit for bit like the spec it was encoded from, over
        five lockstep sweeps exchanged through the *decoded*
        mailboxes, and ends in the same port and halo states — its
        ports bit for bit as the sweep resolves them."""
        plan = build_plan(grid2d_poisson(nx), n_subdomains=parts, seed=seed)
        n_shards = data.draw(st.integers(1, plan.n_parts))
        specs = extract_shards(plan, n_shards)
        clones = [ShardSpec.from_payload(s.to_payload()) for s in specs]
        x0 = np.concatenate([loc.x0 for loc in plan.base_locals])
        x0_look = look_x0(plan)
        state_off = plan.fleet_template.kernel.state_off
        for shard in specs:
            lo, hi = state_off[shard.parts[0]], state_off[shard.parts[-1] + 1]
            shard.kernel.load_x0(x0[lo:hi])
        for shard in clones:
            shard.kernel.load_x0(x0_look[shard.state_lo : shard.state_hi])
        waves = np.zeros(plan.fleet_template.n_slots_total)
        for _ in range(5):
            next_waves = waves.copy()
            for ours, theirs in zip(clones, specs):
                a = waves[ours.slot_lo : ours.slot_hi].copy()
                out = ours.kernel.sweep(a)
                assert np.array_equal(out, theirs.kernel.sweep(a))
                for box in mailboxes(ours):
                    EdgeMailbox(box, next_waves).post(out)
            waves = next_waves
        for ours, theirs in zip(clones, specs):
            a = waves[ours.slot_lo : ours.slot_hi].copy()
            got = ours.kernel.look_states(a)
            full = theirs.kernel.full_states(a)
            want = np.concatenate(
                [
                    full[theirs.kernel.state_off[i] + rows]
                    for i, rows in enumerate(theirs.look_rows)
                ]
            )
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
            u = np.empty(ours.kernel.n_ports)
            ours.kernel.resolve(a, u)
            assert np.array_equal(got[port_positions(ours.kernel)], u)


BAD_ENTRIES = [
    (lambda e, n: e.__setitem__(2, [10**12]), "oversize"),
    (lambda e, n: e.__setitem__(2, [2**62, 4]), "overflowing"),
    (lambda e, n: e.__setitem__(3, n // 64 * 64), "past the end"),
    (lambda e, n: e.__setitem__(3, align(n) + 64), "starts past it"),
    (lambda e, n: e.__setitem__(3, -64), "negative offset"),
    (lambda e, n: e.__setitem__(3, e[3] + 8), "unaligned"),
    (lambda e, n: e.__setitem__(1, "<f4"), "unlisted dtype"),
    (lambda e, n: e.__setitem__(1, "O"), "object dtype"),
    (lambda e, n: e.__setitem__(1, ["<f8"]), "unhashable dtype"),
    (lambda e, n: e.__setitem__(2, [-1]), "negative dimension"),
    (lambda e, n: e.__setitem__(2, "8"), "shape not a list"),
    (lambda e, n: e.__setitem__(0, 7), "name not a string"),
    (lambda e, n: e.pop(), "short entry"),
]

BAD_FIELDS = [
    ("index", 2),
    ("index", -1),
    ("index", "1"),
    ("index", True),
    ("slot_hi", 10**9),
    ("state_lo", 0),
    ("n_shards", 1.5),
    ("outboxes", [1]),
    ("outboxes", [7]),
    ("outboxes", None),
    ("groups", [[1, 2, 3]]),
    ("groups", [[1, 2, 3, 4]]),  # a /4 group's [g, n, r, s]
    ("groups", 4),
    ("groups", []),
    ("arrays", None),
]

#: a destination slot that breaks single-writer-per-slot, per mailbox
BAD_MAILBOX_SLOTS = [
    ("loopback.dest_slots", lambda lo, hi: lo - 1),
    ("loopback.dest_slots", lambda lo, hi: hi),
    ("outbox0.dest_slots", lambda lo, hi: lo),
    ("outbox0.dest_slots", lambda lo, hi: hi - 1),
]


class TestUntrustedBytes:
    def test_truncated_anywhere(self, payload):
        hdr_len, _ = PREFIX.unpack(payload[: PREFIX.size])
        head_end = PREFIX.size + hdr_len
        cuts = [
            0,
            3,
            PREFIX.size,
            PREFIX.size + hdr_len // 2,
            head_end,
            align(head_end) + 64,
            len(payload) // 2,
            len(payload) - 1,
        ]
        for cut in cuts:
            with pytest.raises(ValidationError):
                ShardSpec.from_payload(payload[:cut])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_bit_flipped_in_the_header(self, payload, data):
        """The header carries its CRC-32: no single flipped bit of the
        prefix or the header reads as a different, valid shard."""
        hdr_len, _ = PREFIX.unpack(payload[: PREFIX.size])
        byte = data.draw(st.integers(0, PREFIX.size + hdr_len - 1))
        bit = data.draw(st.integers(0, 7))
        bad = bytearray(payload)
        bad[byte] ^= 1 << bit
        with pytest.raises(ValidationError):
            ShardSpec.from_payload(bad)

    @pytest.mark.parametrize("mutate, why", BAD_ENTRIES)
    def test_a_bad_array_table_entry(self, payload, mutate, why):
        """Each with a valid checksum: the table itself is checked
        against the buffer before any view exists."""
        header, data = split(payload)
        mutate(entry_of(header, "group0.X3"), len(data))
        with pytest.raises(ValidationError):
            ShardSpec.from_payload(pack(header, data))

    def test_overlapping_entries(self, payload):
        header, data = split(payload)
        members = entry_of(header, "group0.members")
        entry_of(header, "group0.X3")[3] = members[3]
        with pytest.raises(ValidationError, match="overlaps"):
            ShardSpec.from_payload(pack(header, data))

    def test_a_duplicate_or_stray_or_missing_array(self, payload):
        header, data = split(payload)
        table = header["arrays"]
        twice = dict(header, arrays=table + [[table[0][0], "<i8", [0], 0]])
        stray = dict(header, arrays=table + [["extra", "<i8", [0], 0]])
        missing = dict(header, arrays=table[:-1])
        for bad in (twice, stray, missing):
            with pytest.raises(ValidationError):
                ShardSpec.from_payload(pack(bad, data))

    @pytest.mark.parametrize("field, value", BAD_FIELDS)
    def test_header_fields_that_disagree_with_the_arrays(
        self, payload, field, value
    ):
        """Nothing is sized by a header field alone: the shard's
        extents are read off the arrays and the fields must agree."""
        header, data = split(payload)
        header[field] = value
        with pytest.raises(ValidationError):
            ShardSpec.from_payload(pack(header, data))

    def test_an_index_table_pointing_outside_the_shard(self, payload):
        header, data = split(payload)
        data = bytearray(data)
        offset = entry_of(header, "group0.state_idx")[3]
        np.frombuffer(data, dtype="<i8", count=1, offset=offset)[0] = 10**9
        with pytest.raises(ValidationError, match="indexes outside"):
            ShardSpec.from_payload(pack(header, bytes(data)))

    @pytest.mark.parametrize("box, slot", BAD_MAILBOX_SLOTS)
    def test_a_mailbox_that_breaks_single_writer(self, payload, box, slot):
        """Loopback waves must land in the shard's own slots and outbox
        waves outside them: anything else would overwrite a slot
        another writer owns."""
        header, data = split(payload)
        data = bytearray(data)
        offset = entry_of(header, box)[3]
        value = slot(header["slot_lo"], header["slot_hi"])
        assert value >= 0
        np.frombuffer(data, dtype="<i8", count=1, offset=offset)[0] = value
        with pytest.raises(ValidationError, match="own range"):
            ShardSpec.from_payload(pack(header, bytes(data)))

    def test_a_group_holding_more_rows_than_it_has(self, payload):
        header, data = split(payload)
        g, n, r, h, s = header["groups"][0]
        header["groups"][0] = [g, r + h - 1, r, h, s]
        with pytest.raises(ValidationError, match="more rows"):
            ShardSpec.from_payload(pack(header, data))

    def test_header_that_is_not_a_json_object(self, payload):
        _, data = split(payload)
        for head in (b"[1, 2]", b"\xff\xfe", b"{", b"[" * 100_000):
            prefix = PREFIX.pack(len(head), crc32(head))
            with pytest.raises(ValidationError):
                ShardSpec.from_payload(prefix + head + data)

    def test_wrong_schema_names_both(self, payload):
        header, data = split(payload)
        header["schema"] = "repro-shard-payload/9"
        both = "repro-shard-payload/9.*" + PAYLOAD_SCHEMA
        with pytest.raises(ValidationError, match=both):
            ShardSpec.from_payload(pack(header, data))

    def test_a_previous_schema_is_refused_at_the_mesh_handshake(
        self, payload
    ):
        """A ``/4`` SPEC frame (full stacks, four group dimensions) from
        a coordinator of another build: the worker refuses it with a
        ProtocolError naming the version skew, before it sweeps."""
        header, data = split(payload)
        header["schema"] = "repro-shard-payload/4"
        old = pack(header, data)
        with pytest.raises(ValidationError, match="payload/4"):
            ShardSpec.from_payload(old)
        spec_header = dict(n_slots=8, n_states=8, idle_sleep=1e-3, obs=False)
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def hub():
            conn, _ = listener.accept()
            with conn:
                wire.recv_message(conn)  # HELLO
                wire.send_message(conn, wire.T_SPEC, spec_header, blob=old)
                conn.recv(1)  # until the worker hangs up

        thread = threading.Thread(target=hub, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="same repro version"):
                MeshWorkerPort(
                    "127.0.0.1", port, "token", 0, connect_timeout=5.0
                )
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_an_older_builds_pickle_is_refused_unread(self, spec):
        """The ``/2`` payload was ``pickle.dumps((schema, spec))``; it
        must be rejected as bytes, never loaded."""

        class Boom:
            def __reduce__(self):
                return (pytest.fail, ("the payload was unpickled",))

        for obj in (spec, Boom()):
            old = pickle.dumps(("repro-shard-payload/2", obj))
            with pytest.raises(ValidationError):
                ShardSpec.from_payload(old)
