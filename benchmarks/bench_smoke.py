"""Tier-2 smoke targets for the kernel, plan, multiproc, net, mesh,
plan-construction and plan-store benches.

Fast sanity passes over :mod:`bench_kernel_micro`,
:mod:`bench_plan_reuse`, :mod:`bench_multiproc`, :mod:`bench_net`,
:mod:`bench_mesh`, :mod:`bench_planbuild` and
:mod:`bench_planstore`: run a small case
each, check the built-in
equivalence guards fired (they raise on divergence), the JSON records
have the expected shape, and the architectural win is present at all
(fleet not slower than the Python loop; cached setup not slower than
re-planning; sharded solves converge to tolerance; the socket fabric
converges to the same tolerance as shm; the worker mesh emits wave
frames and accounts for the hub-relayed ones; sparse plan construction
matches dense to 1e-10 and pooled builds match serial bitwise; a
saved-then-loaded plan solves bitwise-identically to the built
plan).  They deliberately do *not*
assert the full headline ratios (that is the full benches' job,
checked against the committed baselines by ``scripts/check_bench.py``)
so the smoke tests stay robust on loaded CI machines.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_smoke.py -q
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_kernel_micro import bench_case, run_bench  # noqa: E402
from bench_mesh import bench_case as mesh_bench_case  # noqa: E402
from bench_multiproc import bench_case as mp_bench_case  # noqa: E402
from bench_net import bench_case as net_bench_case  # noqa: E402
from bench_plan_reuse import run_bench as run_plan_bench  # noqa: E402
from bench_planbuild import EQUIV_TOL  # noqa: E402
from bench_planbuild import bench_case as pb_bench_case  # noqa: E402
from bench_planstore import bench_case as ps_bench_case  # noqa: E402


def test_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    record = run_bench((16,), grid=16, sweeps=5, repeats=2, out=str(out))
    assert out.exists()
    on_disk = json.loads(out.read_text())
    assert on_disk["benchmark"] == "kernel_micro"
    (case,) = on_disk["cases"]
    assert case["n_parts"] == 16
    assert case["fleet_sweep_s"] > 0
    assert case["per_kernel_sweep_s"] > 0
    # the fleet sweep must at minimum not lose to the Python loop
    assert case["speedup"] > 1.0
    assert record["cases"][0]["n_slots"] == case["n_slots"]


def test_bench_case_rejects_unknown_partition():
    try:
        bench_case(7)
    except ValueError as exc:
        assert "unsupported n_parts" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("expected ValueError for n_parts=7")


def test_multiproc_bench_smoke():
    case = mp_bench_case(40, n_parts=4, parts_shape=(2, 2),
                         shards=(2,), wall_budget=120.0)
    assert case["n"] == 1600
    assert case["baseline_s"] > 0
    rec = case["shards"]["2"]
    assert rec["solve_s"] > 0
    assert rec["relative_residual"] <= case["tol"]
    # the tiny case makes no headline claim (no 4-shard run), only that
    # the sharded runtime converged and produced a well-formed record
    assert case["speedup_at_4"] is None
    assert len(rec["sweeps"]) == 2


def test_net_bench_smoke():
    case = net_bench_case(40, n_parts=4, parts_shape=(2, 2),
                          wall_budget=120.0)
    assert case["n"] == 1600
    assert case["shards"] == 2
    # both fabrics converged to the same reference-free tolerance
    assert case["shm"]["relative_residual"] <= case["tol"]
    assert case["mesh"]["relative_residual"] <= case["tol"]
    assert case["client"]["relative_residual"] <= case["tol"]
    assert case["shm"]["solve_s"] > 0
    assert case["mesh"]["solve_s"] > 0
    assert case["client"]["roundtrip_s"] > 0
    assert case["mesh_vs_shm"] > 0
    assert len(case["mesh"]["sweeps"]) == 2


def test_mesh_bench_smoke():
    case = mesh_bench_case(40, n_parts=4, parts_shape=(2, 2),
                           wall_budget=120.0)
    assert case["n"] == 1600
    assert case["shards"] == 4
    # converged to the reference-free tolerance and the frame
    # accounting adds up; the tiny case makes no claim about the
    # share itself (that is the full bench's job, gated by
    # check_bench against BENCH_mesh.json)
    assert case["mesh"]["relative_residual"] <= case["tol"]
    assert case["mesh"]["solve_s"] > 0
    assert case["mesh"]["frames"] > 0
    assert 0.0 <= case["fallback_share"] <= 1.0
    assert len(case["mesh"]["sweeps"]) == 4


def test_plan_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_plan.json"
    record = run_plan_bench((16,), grid=16, repeats=1, rhs_columns=2,
                            out=str(out))
    assert out.exists()
    on_disk = json.loads(out.read_text())
    assert on_disk["benchmark"] == "plan_reuse"
    (case,) = on_disk["cases"]
    assert case["n_parts"] == 16
    assert case["plan_build_s"] > 0
    assert case["setup_cached_s"] > 0
    # the bitwise solve_many-vs-looped-solve guard ran without raising,
    # and cached setup must at minimum beat re-planning
    assert case["speedup"] > 1.0
    assert record["cases"][0]["n_unknowns"] == case["n_unknowns"]


def test_planbuild_bench_smoke():
    case = pb_bench_case(40, n_parts=4, parts_shape=(2, 2))
    assert case["n"] == 1600
    assert case["dense_s"] > 0
    assert case["sparse_s"] > 0
    assert case["sparse_parallel_s"] > 0
    # the dense-vs-sparse equivalence and serial-vs-pooled bitwise
    # guards inside bench_case raise on divergence; the tiny case makes
    # no headline speed claim, only that the record is well-formed
    assert case["max_rel_diff"] <= EQUIV_TOL
    assert case["speedup"] > 0


def test_planstore_bench_smoke():
    case = ps_bench_case(40, n_parts=4, parts_shape=(2, 2))
    assert case["n"] == 1600
    assert case["rebuild_s"] > 0
    assert case["save_s"] > 0
    assert case["artifact_bytes"] > 0
    assert case["load_mmap_s"] > 0
    assert case["load_eager_s"] > 0
    # the bitwise built-vs-loaded solve guard (and the eager-vs-mmap
    # equality check) inside bench_case raise on divergence; the tiny
    # case makes no headline speed claim, only record shape
    assert case["bitwise_solve"] is True
    assert case["speedup"] > 0
