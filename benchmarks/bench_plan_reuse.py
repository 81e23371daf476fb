"""Plan-reuse benchmark: amortized planning vs re-planning (BENCH_plan.json).

Measures the plan/session architecture on the paper's headline use case
— repeated solves against one fixed sparse matrix (circuit transient
analysis style) — at P subdomains on a 2-D Poisson sheet:

* **plan_build_s** — one-time planning: partition, EVS, DTLP network,
  per-subdomain factorizations, fleet packing;
* **setup_full_s / setup_cached_s** — per-solve cost *excluding* the
  simulated-machine run (which is identical work in both paths): full =
  re-plan + session + reference, cached = session fork + RHS swap +
  cached reference.  Their ratio ``setup_speedup`` is the amortization
  headline and the regression-gated number (``speedup`` per case,
  ``speedup_at_64`` overall);
* **solve_full_s / solve_cached_s** — end-to-end including the
  simulation run, for transparency (the event-driven run dominates and
  is common to both paths, so this ratio is much smaller);
* **multi-RHS throughput** — ``solve_many`` over a column block vs one
  full ``solve_dtm`` per column, with a built-in bitwise guard:
  ``solve_many`` must equal looped ``SolverSession.solve`` bit for bit
  (it raises on divergence, like the kernel bench's equivalence guard).

Results are written as JSON (default ``benchmarks/BENCH_plan.json``) so
``scripts/check_bench.py`` can flag regressions against the committed
baseline.

Run:  PYTHONPATH=src python benchmarks/bench_plan_reuse.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.api import solve_dtm  # noqa: E402
from repro.core.impedance import GeometricMeanImpedance  # noqa: E402
from repro.plan import get_plan  # noqa: E402
from repro.plan.plan import build_plan  # noqa: E402
from repro.workloads.poisson import grid2d_poisson  # noqa: E402

#: parts -> (px, py) block grid on the square mesh
_PART_SHAPES = {16: (4, 4), 64: (8, 8)}

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_plan.json")

#: session/run parameters shared by both paths (short transient-style
#: horizon; the setup numbers are horizon-independent)
_RUN = dict(t_max=400.0, tol=1e-4)
_IMPEDANCE = GeometricMeanImpedance(2.0)
_MIN_SOLVE_INTERVAL = 10.0


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _plan_kwargs(n_parts: int, grid: int) -> dict:
    return dict(n_subdomains=n_parts, grid_shape=(grid, grid),
                impedance=_IMPEDANCE, seed=0)


def _session_kwargs() -> dict:
    return dict(min_solve_interval=_MIN_SOLVE_INTERVAL)


def bench_case(n_parts: int, *, grid: int = 32, repeats: int = 3,
               rhs_columns: int = 4) -> dict:
    if n_parts not in _PART_SHAPES:
        raise ValueError(f"unsupported n_parts {n_parts}; "
                         f"choose from {sorted(_PART_SHAPES)}")
    g = grid2d_poisson(grid)
    pk = _plan_kwargs(n_parts, grid)

    # -- one-time planning cost ----------------------------------------
    t_plan = _best(lambda: build_plan(g, **pk), repeats)

    # -- per-solve setup: full re-plan vs cached plan ------------------
    def setup_full():
        plan = build_plan(g, **pk)
        session = plan.session(**_session_kwargs())
        plan.reference(session.plan.base_b)

    plan = get_plan(g, use_cache=False, **pk)
    b_swap = plan.base_b + 1.0  # a *different* rhs: the swap must run
    plan.reference(b_swap)  # charge the reference once to the plan

    def setup_cached():
        session = plan.session(**_session_kwargs())
        session._swap_to(b_swap)  # real per-subdomain back-substitutions
        plan.reference(b_swap)

    t_setup_full = _best(setup_full, repeats)
    t_setup_cached = _best(setup_cached, repeats)

    # -- end-to-end (simulation included; common work dominates) -------
    t_solve_full = _best(
        lambda: solve_dtm(g, use_cache=False, **pk, **_session_kwargs(),
                          **_RUN), 1)
    session = plan.session(**_session_kwargs())
    t_solve_cached = _best(lambda: session.solve(**_RUN), 1)
    sim_run_s = t_solve_cached  # ≈ pure run: setup is microseconds here

    # -- multi-RHS throughput + bitwise guard --------------------------
    rng = np.random.default_rng(42)
    B = rng.standard_normal((g.n, rhs_columns))
    sess_many = plan.session(**_session_kwargs())
    t0 = time.perf_counter()
    many = sess_many.solve_many(B, **_RUN)
    t_many = time.perf_counter() - t0
    sess_loop = plan.session(**_session_kwargs())
    loop = [sess_loop.solve(B[:, k], **_RUN) for k in range(rhs_columns)]
    for k, (m, l) in enumerate(zip(many, loop)):
        if not (np.array_equal(m.x, l.x) and m.sim_time == l.sim_time
                and m.iterations == l.iterations):
            raise AssertionError(
                f"solve_many diverged from looped solve at column {k} "
                f"(P={n_parts})")
    t0 = time.perf_counter()
    for k in range(rhs_columns):
        solve_dtm(g, B[:, k], use_cache=False, **pk, **_session_kwargs(),
                  **_RUN)
    t_full_block = time.perf_counter() - t0

    return {
        "n_parts": n_parts,
        "grid": grid,
        "n_unknowns": g.n,
        "plan_build_s": t_plan,
        "setup_full_s": t_setup_full,
        "setup_cached_s": t_setup_cached,
        "speedup": t_setup_full / t_setup_cached,
        "solve_full_s": t_solve_full,
        "solve_cached_s": t_solve_cached,
        "solve_speedup": t_solve_full / t_solve_cached,
        "sim_run_s": sim_run_s,
        "rhs_columns": rhs_columns,
        "solve_many_s": t_many,
        "full_block_s": t_full_block,
        "multi_rhs_gain": t_full_block / t_many,
    }


def run_bench(parts=(16, 64), *, grid: int = 32, repeats: int = 3,
              rhs_columns: int = 4, out: str = DEFAULT_OUT) -> dict:
    cases = []
    for p in parts:
        case = bench_case(p, grid=grid, repeats=repeats,
                          rhs_columns=rhs_columns)
        print(f"P={p:4d}: plan {case['plan_build_s'] * 1e3:8.1f} ms, "
              f"setup cached {case['setup_cached_s'] * 1e6:8.1f} µs, "
              f"setup speedup {case['speedup']:8.1f}x, "
              f"end-to-end {case['solve_speedup']:.2f}x, "
              f"multi-RHS {case['multi_rhs_gain']:.2f}x")
        cases.append(case)
    by_parts = {c["n_parts"]: c for c in cases}
    record = {
        "benchmark": "plan_reuse",
        "cases": cases,
        "speedup_at_64": by_parts.get(64, cases[-1])["speedup"],
    }
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {out}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parts", type=int, nargs="*",
                    default=sorted(_PART_SHAPES))
    ap.add_argument("--grid", type=int, default=32)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--rhs-columns", type=int, default=4)
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    run_bench(tuple(args.parts), grid=args.grid, repeats=args.repeats,
              rhs_columns=args.rhs_columns, out=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
