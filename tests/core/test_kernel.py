"""Tests for the per-subdomain oracle kernel (Table 1 steps 3-3.3).

:class:`per_kernel.DtmKernel` is what the fleet kernel is checked
against bit for bit, so its own Table 1 semantics are pinned here.
"""

import numpy as np
import pytest
from per_kernel import DtmKernel, build_kernels, gather_global_state

from repro.core.dtl import build_dtlp_network
from repro.core.local import build_all_local_systems
from repro.errors import ValidationError
from repro.workloads.paper import example_5_1_impedances, paper_split


@pytest.fixture()
def kernels():
    split = paper_split()
    net = build_dtlp_network(split, example_5_1_impedances(), 1.0)
    locals_ = build_all_local_systems(split, net)
    return split, net, build_kernels(split, net, locals_)


def test_initial_conditions_are_zero(kernels):
    """(5.6): x(0) = ω(0) = 0 ⇒ stored waves start at zero."""
    _, _, ks = kernels
    for k in ks:
        assert np.all(k.waves == 0.0)
        assert np.all(k.u_ports == 0.0)
        assert k.dirty  # initial solve still owed


def test_receive_updates_and_marks_dirty(kernels):
    _, _, ks = kernels
    k = ks[0]
    k.solve()
    assert not k.dirty
    k.receive(1, 0.25)
    assert k.dirty
    assert k.waves[1] == 0.25
    assert k.n_received == 1


def test_receive_validates_slot(kernels):
    _, _, ks = kernels
    with pytest.raises(ValidationError):
        ks[0].receive(5, 1.0)
    with pytest.raises(ValidationError):
        ks[0].receive(-1, 1.0)


def test_solve_emits_one_message_per_slot(kernels):
    _, _, ks = kernels
    msgs = ks[0].solve()
    assert len(msgs) == 2
    assert all(m.dest_part == 1 for m in msgs)
    assert all(m.src_part == 0 for m in msgs)
    assert ks[0].n_solves == 1


def test_messages_route_to_twin_slots(kernels):
    _, net, ks = kernels
    msgs = ks[0].solve()
    for m in msgs:
        back = net.routes_from(m.dest_part)[m.dest_slot]
        assert back[0] == 0  # twin routes back to part 0


def test_message_values_are_scattering_waves(kernels):
    _, _, ks = kernels
    k = ks[0]
    k.receive(0, 0.5)
    k.receive(1, -0.5)
    msgs = k.solve()
    u = k.u_ports
    expected = 2.0 * u[k.local.slot_ports] - k.waves
    for m, e in zip(msgs, expected):
        assert m.value == pytest.approx(e)


def test_ping_pong_converges_to_twin_consistency(kernels):
    """Manually relaying messages must drive twin potentials together."""
    split, _, ks = kernels
    inbox = []
    for k in ks:
        inbox.extend(k.solve())
    for _ in range(300):
        next_inbox = []
        for m in inbox:
            ks[m.dest_part].receive(m.dest_slot, m.value)
        for k in ks:
            next_inbox.extend(k.solve())
        inbox = next_inbox
    u0 = ks[0].port_potentials()
    u1 = ks[1].port_potentials()
    assert np.allclose(u0, u1, atol=1e-9)  # twins agree
    omega0 = ks[0].port_currents()
    omega1 = ks[1].port_currents()
    assert np.allclose(omega0 + omega1, 0.0, atol=1e-9)  # KCL


def test_send_threshold_suppresses_stable_waves(kernels):
    split, net, _ = kernels
    locals_ = build_all_local_systems(split, net)
    ks = build_kernels(split, net, locals_, send_threshold=1e-9)
    inbox = []
    for k in ks:
        inbox.extend(k.solve())
    rounds = 0
    while inbox and rounds < 500:
        next_inbox = []
        for m in inbox:
            ks[m.dest_part].receive(m.dest_slot, m.value)
        for k in ks:
            if k.dirty:
                next_inbox.extend(k.solve())
        inbox = next_inbox
        rounds += 1
    assert rounds < 500  # traffic dies out at quiescence
    exact = np.linalg.solve(split.graph.to_matrix().to_dense(),
                            split.graph.sources)
    assert np.allclose(gather_global_state(split, ks), exact, atol=1e-6)


def test_send_threshold_validation(kernels):
    split, net, _ = kernels
    locals_ = build_all_local_systems(split, net)
    with pytest.raises(ValidationError):
        DtmKernel(local=locals_[0], routes=net.routes_from(0),
                  send_threshold=-1.0)


def test_route_count_mismatch(kernels):
    split, net, _ = kernels
    locals_ = build_all_local_systems(split, net)
    with pytest.raises(ValidationError):
        DtmKernel(local=locals_[0], routes=[])


def test_boundary_change_zero_at_fixpoint(kernels):
    split, _, ks = kernels
    inbox = []
    for k in ks:
        inbox.extend(k.solve())
    for _ in range(400):
        for m in inbox:
            ks[m.dest_part].receive(m.dest_slot, m.value)
        inbox = []
        for k in ks:
            inbox.extend(k.solve())
    for k in ks:
        assert k.boundary_change() < 1e-8


def test_gather_global_state_matches_exact(kernels):
    split, _, ks = kernels
    inbox = []
    for k in ks:
        inbox.extend(k.solve())
    for _ in range(400):
        for m in inbox:
            ks[m.dest_part].receive(m.dest_slot, m.value)
        inbox = []
        for k in ks:
            inbox.extend(k.solve())
    x = gather_global_state(split, ks)
    exact = np.linalg.solve(split.graph.to_matrix().to_dense(),
                            split.graph.sources)
    assert np.allclose(x, exact, atol=1e-9)
