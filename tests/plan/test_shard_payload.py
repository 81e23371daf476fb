"""The shard payload: one flat encoding, decoded from untrusted bytes.

``ShardSpec.from_payload`` reads buffers that may have crossed a
socket (the mesh SPEC frame).  The contract pinned here: a well-formed
payload comes back as read-only zero-copy views that sweep bit for bit
like the spec they were encoded from, and *anything else* — truncated,
corrupted, hand-crafted to point outside the buffer, of another schema,
or an older build's pickle — raises ``ValidationError`` before a
single view is made.
"""

import json
import pickle
import struct
from binascii import crc32

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.net.transport import EdgeMailbox
from repro.plan import build_plan
from repro.plan.shard import PAYLOAD_SCHEMA, ShardSpec, extract_shards
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


@pytest.fixture(scope="module")
def spec():
    plan = build_plan(grid2d_poisson(12), n_subdomains=6, seed=2)
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

    def test_the_payload_is_the_arrays_plus_a_small_header(
        self, spec, payload
    ):
        nbytes = sum(arr.nbytes for arr in payload_arrays(spec))
        assert nbytes < len(payload) < nbytes + 16 * 1024

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
        mailboxes, and ends in the same full states."""
        plan = build_plan(grid2d_poisson(nx), n_subdomains=parts, seed=seed)
        n_shards = data.draw(st.integers(1, plan.n_parts))
        specs = extract_shards(plan, n_shards)
        clones = [ShardSpec.from_payload(s.to_payload()) for s in specs]
        x0 = np.concatenate([loc.x0 for loc in plan.base_locals])
        for shard in specs + clones:
            shard.kernel.load_x0(x0[shard.state_lo : shard.state_hi])
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
            got = ours.kernel.full_states(a)
            assert np.array_equal(got, theirs.kernel.full_states(a))


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
