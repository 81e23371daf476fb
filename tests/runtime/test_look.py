"""The halo look: a stopping residual from port and halo rows alone.

A shard worker publishes only its ports and its halo (the inner rows
its matrix couples to a port); :class:`repro.runtime.look.HaloLook`
measures the relative residual of the gathered solution from them.
The property pinned here: for any partition — regular grid blocks or
random labels with a vertex-cover separator — any right-hand side and
any wave vector, the look agrees with ``relative_residual`` of the
gathered full state to 1e-12 relative, the full re-check of an answer
agrees with ``relative_residual`` to the same, and the answer it builds
— shard cut by shard cut on helper threads, for every cut — is that
gathered full state, bit for bit.
"""

import faulthandler
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.convergence import relative_residual
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partition import Partition
from repro.graph.partitioners import vertex_cover_separator
from repro.plan import build_plan
from repro.plan.shard import extract_shards, look_rows
from repro.runtime.look import HaloLook
from repro.workloads.poisson import grid2d_poisson, grid2d_random

# a CI hang in this file should dump stacks, not eat the runner cap
faulthandler.enable()


@st.composite
def plans(draw):
    """A dtm plan over a grid: block parts, or random labels."""
    nx = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    graph = draw(
        st.sampled_from([grid2d_poisson(nx), grid2d_random(nx, nx, seed=seed)])
    )
    if draw(st.booleans()):
        side = draw(st.integers(1, max(1, nx // 4)))
        parts = draw(st.integers(2, max(2, nx // 3)))
        return build_plan(
            graph,
            n_subdomains=side * parts,
            grid_shape=[nx, nx],
            parts_shape=[side, parts],
        )
    n_parts = draw(st.integers(2, 5))
    labels = np.random.default_rng(seed).integers(0, n_parts, graph.n)
    partition = Partition(
        labels, vertex_cover_separator(graph, labels), n_parts=n_parts
    )
    split = split_graph(graph, partition, strategy=DominancePreservingSplit())
    return build_plan(split=split)


def full_states(plan, x0, waves):
    kernel = plan.fleet_template.kernel
    kernel = kernel.slice(0, kernel.parts.size)
    kernel.load_x0(x0)
    return kernel.full_states(waves)


@given(plan=plans(), data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_the_look_is_the_residual_of_the_gathered_state(plan, data):
    look = HaloLook(plan, look_rows(plan.split))
    seed = data.draw(st.integers(0, 2**31 - 1))
    scale = data.draw(st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(plan.n)
    x0 = np.concatenate(
        [
            loc.response_for(rhs) if loc.n_local else rhs
            for loc, rhs in zip(plan.base_locals, plan.spread_sources(b))
        ]
    )
    waves = scale * rng.standard_normal(plan.fleet_template.n_slots_total)
    states = full_states(plan, x0, waves)
    x = plan.split.gather_flat(states)
    look.start(b)
    got = look.residual(states[look.state_rows])
    want = relative_residual(plan.a_mat, x, b)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert look.recheck(x) == want  # one residual function
    assert np.array_equal(look.answer(x0, waves), x)
    for k in range(1, min(4, plan.n_parts) + 1):
        cuts = [
            (spec.parts[0], spec.parts[-1] + 1)
            for spec in extract_shards(plan, k)
        ]
        with ThreadPoolExecutor(max(1, k - 1)) as helpers:
            cut = HaloLook(plan, look_rows(plan.split), cuts, helpers)
            assert np.array_equal(cut.answer(x0, waves), x), cuts


def test_the_look_reads_a_small_share_of_the_rows():
    """The point of the look: at 36 parts of a 120×120 grid the port
    and halo rows are under a third of the unknowns (a share that
    halves with every doubling of the part side)."""
    nx = 120
    plan = build_plan(
        grid2d_poisson(nx),
        n_subdomains=36,
        grid_shape=[nx, nx],
        parts_shape=[6, 6],
    )
    look = HaloLook(plan, look_rows(plan.split))
    assert look.n_rows < plan.n / 3
