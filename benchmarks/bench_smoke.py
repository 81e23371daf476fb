"""Tier-2 smoke targets for the eight gated benches.

A fast sanity pass over each bench ``scripts/check_bench.py`` gates —
:mod:`bench_kernel_micro`, :mod:`bench_plan_reuse`,
:mod:`bench_multiproc`, :mod:`bench_net`, :mod:`bench_mesh`,
:mod:`bench_planbuild`, :mod:`bench_planstore` and :mod:`bench_obs`:
run one tiny case, which fires the bench's built-in equivalence guards
(they raise on divergence), and check the rows of :data:`SMOKES` — the
record has the expected shape and the architectural win is present at
all (fleet not slower than the Python loop; cached setup not slower
than re-planning; sharded solves converge to tolerance; the socket
fabric converges to the same tolerance as shm; the worker mesh emits
wave frames and accounts for the hub-relayed ones; sparse plan
construction matches dense to 1e-10 and pooled builds match serial
bitwise; a saved-then-loaded plan solves bitwise-identically to the
built plan; the telemetry overhead is reported).  They deliberately do
*not* assert the full headline ratios (that is the full benches' job,
checked against the committed baselines by ``scripts/check_bench.py``)
so the smoke tests stay robust on loaded CI machines.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_smoke.py -q
"""

import json
import os
import sys
from operator import eq, ge, gt, le

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_kernel_micro  # noqa: E402
import bench_mesh  # noqa: E402
import bench_multiproc  # noqa: E402
import bench_net  # noqa: E402
import bench_obs  # noqa: E402
import bench_plan_reuse  # noqa: E402
import bench_planbuild  # noqa: E402
import bench_planstore  # noqa: E402


def _via_run_bench(bench, name, **kwargs):
    """One P=16 case through ``run_bench``, as read back from its JSON."""
    def produce(tmp_path):
        out = tmp_path / "BENCH.json"
        record = bench.run_bench((16,), grid=16, out=str(out), **kwargs)
        on_disk = json.loads(out.read_text())
        assert on_disk["benchmark"] == name
        (case,) = on_disk["cases"]
        assert case == record["cases"][0]
        return case
    return produce


def _via_bench_case(bench, **kwargs):
    """One 40x40 grid in four subdomains through ``bench_case``."""
    return lambda tmp_path: bench.bench_case(
        40, n_parts=4, parts_shape=(2, 2), **kwargs)


#: bench -> (how to get one tiny case, its ``(entry, relation, bound)``
#: rows); a dotted entry descends, ``#`` is a length, and a string
#: bound is another entry of the same case.  The tiny cases make no
#: headline speed claim, only that the run converged and the record is
#: well-formed.
SMOKES = {
    "kernel": (
        _via_run_bench(bench_kernel_micro, "kernel_micro",
                       sweeps=5, repeats=2),
        [("n_parts", eq, 16), ("fleet_sweep_s", gt, 0),
         ("per_kernel_sweep_s", gt, 0),
         # the fleet sweep must at minimum not lose to the Python loop
         ("speedup", gt, 1.0)]),
    "plan": (
        _via_run_bench(bench_plan_reuse, "plan_reuse",
                       repeats=1, rhs_columns=2),
        [("n_parts", eq, 16), ("plan_build_s", gt, 0),
         ("setup_cached_s", gt, 0),
         # cached setup must at minimum beat re-planning
         ("speedup", gt, 1.0)]),
    "obs": (
        _via_run_bench(bench_obs, "obs_overhead", sweeps=5, repeats=2),
        [("n_parts", eq, 16), ("control_sweep_s", gt, 0),
         ("disabled_sweep_s", gt, 0), ("enabled_sweep_s", gt, 0),
         # reported, as a percentage of a positive time; its size is
         # noise on a sweep this small
         ("overhead_disabled_pct", gt, -100.0)]),
    "multiproc": (
        _via_bench_case(bench_multiproc, shards=(2,), wall_budget=120.0),
        [("n", eq, 1600), ("baseline_s", gt, 0),
         ("shards.2.solve_s", gt, 0),
         ("shards.2.relative_residual", le, "tol"),
         ("shards.2.sweeps.#", eq, 2),
         # no 4-shard run, so no headline
         ("speedup_at_4", eq, None)]),
    "net": (
        _via_bench_case(bench_net, wall_budget=120.0),
        [("n", eq, 1600), ("shards", eq, 2),
         # both fabrics converged to the same reference-free tolerance
         ("shm.relative_residual", le, "tol"),
         ("mesh.relative_residual", le, "tol"),
         ("client.relative_residual", le, "tol"),
         ("shm.solve_s", gt, 0), ("mesh.solve_s", gt, 0),
         ("client.roundtrip_s", gt, 0), ("mesh_vs_shm", gt, 0),
         ("mesh.sweeps.#", eq, 2)]),
    "mesh": (
        _via_bench_case(bench_mesh, wall_budget=120.0),
        [("n", eq, 1600), ("shards", eq, 4),
         ("mesh.relative_residual", le, "tol"), ("mesh.solve_s", gt, 0),
         # the frame accounting adds up; the share itself is the full
         # bench's claim
         ("mesh.frames", gt, 0),
         ("fallback_share", ge, 0.0), ("fallback_share", le, 1.0),
         ("mesh.sweeps.#", eq, 4)]),
    "planbuild": (
        _via_bench_case(bench_planbuild),
        [("n", eq, 1600), ("dense_s", gt, 0), ("sparse_s", gt, 0),
         ("sparse_parallel_s", gt, 0),
         ("max_rel_diff", le, bench_planbuild.EQUIV_TOL),
         ("speedup", gt, 0)]),
    "planstore": (
        _via_bench_case(bench_planstore),
        [("n", eq, 1600), ("rebuild_s", gt, 0), ("save_s", gt, 0),
         ("artifact_bytes", gt, 0), ("load_mmap_s", gt, 0),
         ("load_eager_s", gt, 0), ("bitwise_solve", eq, True),
         ("speedup", gt, 0)]),
}


def _entry(case: dict, path: str):
    node = case
    for part in path.split("."):
        node = len(node) if part == "#" else node[part]
    return node


@pytest.mark.parametrize("name", SMOKES)
def test_bench_smoke(name, tmp_path):
    produce, rows = SMOKES[name]
    case = produce(tmp_path)
    for path, holds, bound in rows:
        if isinstance(bound, str):
            bound = case[bound]
        value = _entry(case, path)
        assert holds(value, bound), \
            f"{name}: {path}={value!r} is not {holds.__name__} {bound!r}"


def test_bench_case_rejects_unknown_partition():
    with pytest.raises(ValueError, match="unsupported n_parts"):
        bench_kernel_micro.bench_case(7)
