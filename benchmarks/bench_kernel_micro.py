"""Micro-benchmark: per-kernel loop vs FleetKernel sweep (BENCH_kernel.json).

Times one synchronous wave-relaxation sweep over a regularly
partitioned 2-D Poisson problem two ways:

* **per_kernel** — the literal Table 1 loop, kept as the test-suite's
  oracle in ``tests/per_kernel.py``: one ``DtmKernel.solve()`` per
  subdomain producing ``WaveMessage`` objects, delivered one
  ``receive()`` at a time;
* **fleet** — the struct-of-arrays path: ``solve_all`` →
  ``emit_all`` → ``receive_batch``, a handful of numpy calls total.

Both paths are first checked to produce bitwise-identical wave states
(the same property the test-suite asserts), then timed over repeated
sweep blocks; the best block average is reported.  Results are written
as JSON (default ``benchmarks/BENCH_kernel.json``) so
``scripts/check_bench.py`` can flag regressions against the committed
baseline.

Run:  PYTHONPATH=src python benchmarks/bench_kernel_micro.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "tests"))

from per_kernel import build_kernels, per_kernel_sweep  # noqa: E402
from repro.core.dtl import build_dtlp_network  # noqa: E402
from repro.core.fleet import build_fleet  # noqa: E402
from repro.core.local import build_all_local_systems  # noqa: E402
from repro.graph.evs import DominancePreservingSplit, split_graph  # noqa: E402
from repro.graph.partitioners import grid_block_partition  # noqa: E402
from repro.workloads.poisson import grid2d_poisson  # noqa: E402

#: parts -> (px, py) block grid on the square mesh
_PART_SHAPES = {16: (4, 4), 64: (8, 8), 144: (12, 12), 256: (16, 16),
                512: (32, 16)}

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_kernel.json")


def build_problem(n_parts: int, grid: int):
    if n_parts not in _PART_SHAPES:
        raise ValueError(f"unsupported n_parts {n_parts}; "
                         f"choose from {sorted(_PART_SHAPES)}")
    px, py = _PART_SHAPES[n_parts]
    g = grid2d_poisson(grid)
    p = grid_block_partition(grid, grid, px, py)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    net = build_dtlp_network(split, 1.0, 1.0)
    locals_ = build_all_local_systems(split, net)
    return split, net, locals_


def _fleet_sweep(fleet) -> None:
    fleet.solve_all()
    dest, values = fleet.emit_all()
    fleet.receive_batch(dest, values)


def _time_sweeps(sweep_fn, sweeps: int, repeats: int) -> float:
    """Best per-sweep wall time over *repeats* blocks of *sweeps*."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(sweeps):
            sweep_fn()
        dt = (time.perf_counter() - t0) / sweeps
        best = min(best, dt)
    return best


def bench_case(n_parts: int, *, grid: int = 64, sweeps: int = 20,
               repeats: int = 5) -> dict:
    split, net, locals_ = build_problem(n_parts, grid)

    # equivalence guard: the two paths must agree bit for bit
    fleet = build_fleet(split, net, locals_)
    kernels = build_kernels(split, net, locals_)
    for _ in range(3):
        _fleet_sweep(fleet)
        per_kernel_sweep(kernels)
    ref = np.concatenate([k.waves for k in kernels])
    if not np.array_equal(fleet.waves, ref):
        raise AssertionError(
            f"fleet/per-kernel wave states diverged at P={n_parts}")

    # fresh state for timing, one warmup sweep each
    fleet = build_fleet(split, net, locals_)
    kernels = build_kernels(split, net, locals_)
    _fleet_sweep(fleet)
    per_kernel_sweep(kernels)
    t_fleet = _time_sweeps(lambda: _fleet_sweep(fleet), sweeps, repeats)
    t_kernel = _time_sweeps(lambda: per_kernel_sweep(kernels), sweeps,
                            repeats)
    return {
        "n_parts": n_parts,
        "grid": grid,
        "n_unknowns": split.graph.n,
        "n_slots": fleet.n_slots_total,
        "n_shape_groups": len(fleet.kernel.groups),
        "per_kernel_sweep_s": t_kernel,
        "fleet_sweep_s": t_fleet,
        "speedup": t_kernel / t_fleet if t_fleet > 0 else float("inf"),
    }


def run_bench(parts=(64, 256, 512), *, grid: int = 64, sweeps: int = 20,
              repeats: int = 5, out: str = DEFAULT_OUT) -> dict:
    cases = []
    for n_parts in parts:
        case = bench_case(n_parts, grid=grid, sweeps=sweeps,
                          repeats=repeats)
        cases.append(case)
        print(f"P={case['n_parts']:4d}  slots={case['n_slots']:5d}  "
              f"groups={case['n_shape_groups']:3d}  "
              f"per-kernel={case['per_kernel_sweep_s'] * 1e6:9.1f} µs  "
              f"fleet={case['fleet_sweep_s'] * 1e6:8.1f} µs  "
              f"speedup={case['speedup']:6.2f}x")
    record = {
        "benchmark": "kernel_micro",
        "workload": "grid2d_poisson",
        "numpy": np.__version__,
        "cases": cases,
        "speedup_at_256": next(
            (c["speedup"] for c in cases if c["n_parts"] == 256), None),
    }
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"[written to {out}]")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parts", type=int, nargs="+", default=[64, 256, 512],
                    help="subdomain counts (from %s)"
                    % sorted(_PART_SHAPES))
    ap.add_argument("--grid", type=int, default=64,
                    help="square mesh side (default 64)")
    ap.add_argument("--sweeps", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help="output JSON path ('' to skip writing)")
    args = ap.parse_args(argv)
    run_bench(tuple(args.parts), grid=args.grid, sweeps=args.sweeps,
              repeats=args.repeats, out=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
