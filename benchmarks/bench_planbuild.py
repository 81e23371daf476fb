"""Plan-construction benchmark: SuperLU locals vs a LAPACK dense build.

Every local system of a plan is factored once by SuperLU on its CSR
arrays (:func:`repro.core.local.build_all_local_systems`).  For each
Poisson case one plan is built serially (timed as **plan_s**), and
then the locals step of that plan — factor every subdomain's
``K + diag(1/Z)`` and solve its right-hand-side block — is timed over
the plan's own split and DTLP network three ways:

* **lapack_s** — the comparator, written inline here: densify each
  local, add ``1/Z`` to its diagonal, ``scipy.linalg.cho_factor`` it
  and ``cho_solve`` its right-hand-side block;
* **superlu_s** — ``build_all_local_systems``, serial;
* **superlu_parallel_s** — the same fanned out across a process pool
  (``workers=-1``), bitwise-identical to the serial build (asserted).

**speedup** = ``lapack_s / superlu_s``, each the best of
``REPEATS`` (three) runs.  The built-in equivalence guard fails the
bench if the SuperLU ``x0``/``X`` drift more than 1e-10 (relative)
from LAPACK's.

The full (non ``--quick``) run additionally builds a
**≥500k-unknown** plan (nx=720, 518 400 unknowns, serially) and
records ``large["per_unknown_vs_320"]``: its build time per
unknown over the nx=320 plan's (102 400 unknowns).  Planning scales
near-linearly while this stays near 1.

Results land in ``benchmarks/BENCH_planbuild.json`` and are gated by
``scripts/check_bench.py`` (which hard-fails when the baseline file
is missing).

Run:  PYTHONPATH=src python benchmarks/bench_planbuild.py
      PYTHONPATH=src python benchmarks/bench_planbuild.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.local import build_all_local_systems  # noqa: E402
from repro.plan.plan import build_plan  # noqa: E402
from repro.workloads.poisson import grid2d_poisson  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_planbuild.json")

#: absolute floor the nx=320 locals speedup must clear
SPEEDUP_FLOOR = 2.0

#: ceiling on the 518k build's time per unknown over the 102k build's
SCALING_CEILING = 2.0

#: relative x0/X divergence that fails the built-in equivalence guard
EQUIV_TOL = 1e-10

#: best-of count for each timed locals step
REPEATS = 3

CASES = {
    120: dict(n_parts=16, parts_shape=(4, 4)),
    320: dict(n_parts=64, parts_shape=(8, 8)),
}
QUICK_CASES = (120,)

#: the >=500k-unknown demonstration workload (518 400 unknowns)
LARGE_CASE = dict(nx=720, n_parts=400, parts_shape=(20, 20))


def _build(nx, *, n_parts, parts_shape):
    graph = grid2d_poisson(nx, nx)
    t0 = time.perf_counter()
    plan = build_plan(graph, n_subdomains=n_parts, grid_shape=(nx, nx),
                      parts_shape=parts_shape)
    return plan, time.perf_counter() - t0


def lapack_locals(split, network) -> list:
    """``(x0, X)`` of every local by a dense LAPACK Cholesky."""
    out = []
    for sub in split.subdomains:
        n = sub.n_local
        ports = np.array([p for _i, p, _z in network.attachments[sub.part]],
                         dtype=np.int64)
        inv_z = np.array([1.0 / z for _i, _p, z
                          in network.attachments[sub.part]])
        if n == 0:
            out.append((np.zeros(0), np.zeros((0, ports.size))))
            continue
        k = sub.matrix.to_dense()
        k[np.arange(n), np.arange(n)] += np.bincount(
            ports, weights=inv_z, minlength=n)
        rhs = np.zeros((n, 1 + ports.size))
        rhs[:, 0] = sub.rhs
        rhs[ports, 1 + np.arange(ports.size)] = inv_z
        sol = cho_solve(cho_factor(k, lower=True, overwrite_a=True), rhs,
                        overwrite_b=True)
        out.append((sol[:, 0], sol[:, 1:]))
    return out


def _best_of(fn):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(a))) or 1.0
    return float(np.max(np.abs(a - b))) / scale if a.size else 0.0


def bench_case(nx: int, *, n_parts: int,
               parts_shape: tuple[int, int]) -> dict:
    plan, plan_s = _build(nx, n_parts=n_parts, parts_shape=parts_shape)
    split, network = plan.split, plan.network
    n = plan.n
    del plan  # keep one set of locals alive at a time

    lapack, lapack_s = _best_of(lambda: lapack_locals(split, network))
    serial, superlu_s = _best_of(
        lambda: build_all_local_systems(split, network))

    # equivalence guard: SuperLU must match LAPACK to 1e-10
    max_rel = 0.0
    for (x0, X), loc in zip(lapack, serial):
        max_rel = max(max_rel, _max_rel_diff(x0, loc.x0),
                      _max_rel_diff(X, loc.X))
    if max_rel > EQUIV_TOL:
        raise RuntimeError(
            f"nx={nx}: SuperLU locals diverge from LAPACK by "
            f"{max_rel:.2e} (tolerance {EQUIV_TOL:.0e})")
    del lapack

    t0 = time.perf_counter()
    pooled = build_all_local_systems(split, network, workers=-1)
    superlu_parallel_s = time.perf_counter() - t0
    for ls, lp in zip(serial, pooled):
        if not (np.array_equal(ls.x0, lp.x0)
                and np.array_equal(ls.X, lp.X)):
            raise RuntimeError(
                f"nx={nx}: pooled build is not bitwise-identical to the "
                "serial build")

    return {
        "nx": nx,
        "n": n,
        "n_parts": n_parts,
        "repeats": REPEATS,
        "plan_s": plan_s,
        "lapack_s": lapack_s,
        "superlu_s": superlu_s,
        "superlu_parallel_s": superlu_parallel_s,
        "speedup": lapack_s / superlu_s,
        "max_rel_diff": max_rel,
    }


def bench_large(case320: dict) -> dict:
    plan, build_s = _build(LARGE_CASE["nx"], n_parts=LARGE_CASE["n_parts"],
                           parts_shape=LARGE_CASE["parts_shape"])
    return {
        "nx": LARGE_CASE["nx"],
        "n": plan.n,
        "n_parts": LARGE_CASE["n_parts"],
        "build_s": build_s,
        # machine-relative scaling: time per unknown of the 518k build
        # over that of the 102k build of the same run
        "per_unknown_vs_320": (build_s / plan.n)
        / (case320["plan_s"] / case320["n"]),
    }


def run_bench(cases=tuple(sorted(CASES)), *, large: bool = True,
              out: str = DEFAULT_OUT) -> dict:
    results = []
    for nx in cases:
        spec = CASES[nx]
        print(f"case nx={nx} ({nx * nx} unknowns, "
              f"P={spec['n_parts']}) ...", flush=True)
        case = bench_case(nx, **spec)
        results.append(case)
        print(f"  plan {case['plan_s']:6.2f} s | locals: LAPACK "
              f"{case['lapack_s']:6.2f} s, SuperLU "
              f"{case['superlu_s']:6.2f} s ({case['speedup']:.1f}x), "
              f"pooled {case['superlu_parallel_s']:6.2f} s", flush=True)
    record = {
        "benchmark": "planbuild",
        "speedup_floor": SPEEDUP_FLOOR,
        "scaling_ceiling": SCALING_CEILING,
        "equiv_tol": EQUIV_TOL,
        "cases": results,
        "large": None,
    }
    case320 = next((c for c in results if c["nx"] == 320), None)
    if large and case320 is not None:
        print(f"large case nx={LARGE_CASE['nx']} "
              f"({LARGE_CASE['nx'] ** 2} unknowns, "
              f"P={LARGE_CASE['n_parts']}) ...", flush=True)
        record["large"] = bench_large(case320)
        print(f"  plan {record['large']['build_s']:8.2f} s "
              f"({record['large']['per_unknown_vs_320']:.2f}x the "
              "102k-unknown build's time per unknown)", flush=True)
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {out}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small case only, no 500k demonstration "
                    "(CI tier-2 mode)")
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    cases = QUICK_CASES if args.quick else tuple(sorted(CASES))
    record = run_bench(cases, large=not args.quick, out=args.out)
    failed = False
    for case in record["cases"]:
        if case["nx"] == 320 and case["speedup"] < SPEEDUP_FLOOR:
            print(f"FAIL: nx=320 locals speedup {case['speedup']:.2f} < "
                  f"{SPEEDUP_FLOOR}")
            failed = True
    large = record["large"]
    if large is not None and large["per_unknown_vs_320"] > SCALING_CEILING:
        print(f"FAIL: the {large['n']}-unknown build costs "
              f"{large['per_unknown_vs_320']:.2f}x the 102k build's time "
              f"per unknown (ceiling {SCALING_CEILING})")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
