"""Micro-benchmark: telemetry overhead on the fleet sweep (BENCH_obs.json).

Times one fleet wave-relaxation sweep (the kernel-micro workload)
three ways on the same problem, in the same run:

* **control** — a sweep with the instrumentation guard physically
  absent: a bench-local subclass whose ``solve_all`` is the full-path
  body without the counter check, standing in for the
  pre-instrumentation code;
* **disabled** — the shipped default: instrumented code with no
  registry installed, so each sweep pays exactly the ``is not None``
  guard;
* **enabled** — ``install_obs(MetricRegistry())``, so each sweep also
  pays one counter increment.

All three paths are first checked to produce bitwise-identical wave
states (the control would otherwise drift silently if ``solve_all``
changes), then timed over repeated sweep blocks; the best block
average is reported.  The headline gate — enforced by
``scripts/check_bench.py`` against the committed
``benchmarks/BENCH_obs.json`` — is ``overhead_disabled_pct`` staying
under the baseline's ``overhead_ceiling_pct`` (2%): observability
must cost nothing when it is off.  The enabled overhead is recorded
for PERFORMANCE.md but not gated.

Run:  PYTHONPATH=src python benchmarks/bench_obs.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_kernel_micro import (  # noqa: E402
    _fleet_sweep,
    _time_sweeps,
    build_problem,
)

from repro.core.fleet import FleetKernel, build_fleet  # noqa: E402
from repro.obs import MetricRegistry  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_obs.json")


class _UnguardedFleet(FleetKernel):
    """The full-path sweep with the telemetry guard stripped out.

    :meth:`FleetKernel.solve_all`'s unmasked path minus the
    ``_c_solves`` check — the in-run control for what the sweep cost
    before instrumentation existed.  The bitwise equivalence guard in
    :func:`bench_case` keeps this copy honest: if the real
    ``solve_all`` changes, the diverging wave states fail the bench
    loudly instead of timing a stale control.
    """

    def solve_all(self, active_mask=None) -> None:
        assert active_mask is None, "control times the full path only"
        self.kernel.resolve(self.waves, self.u)
        self.n_solves += 1
        self.dirty[:] = False


def _as_control(fleet: FleetKernel) -> _UnguardedFleet:
    """Rebind a built fleet to the unguarded control class."""
    fleet.__class__ = _UnguardedFleet
    return fleet


def bench_case(n_parts: int, *, grid: int = 64, sweeps: int = 50,
               repeats: int = 7) -> dict:
    split, net, locals_ = build_problem(n_parts, grid)

    control = _as_control(build_fleet(split, net, locals_))
    disabled = build_fleet(split, net, locals_)
    enabled = build_fleet(split, net, locals_)
    enabled.install_obs(MetricRegistry())

    # equivalence guard: all three paths must agree bit for bit
    for _ in range(3):
        _fleet_sweep(control)
        _fleet_sweep(disabled)
        _fleet_sweep(enabled)
    if not (np.array_equal(control.waves, disabled.waves)
            and np.array_equal(control.waves, enabled.waves)):
        raise AssertionError(
            f"instrumented/control wave states diverged at P={n_parts}")

    t_control = _time_sweeps(lambda: _fleet_sweep(control), sweeps,
                             repeats)
    t_disabled = _time_sweeps(lambda: _fleet_sweep(disabled), sweeps,
                              repeats)
    t_enabled = _time_sweeps(lambda: _fleet_sweep(enabled), sweeps,
                             repeats)
    return {
        "n_parts": n_parts,
        "grid": grid,
        "n_unknowns": split.graph.n,
        "control_sweep_s": t_control,
        "disabled_sweep_s": t_disabled,
        "enabled_sweep_s": t_enabled,
        "overhead_disabled_pct":
            (t_disabled / t_control - 1.0) * 100.0,
        "overhead_enabled_pct":
            (t_enabled / t_control - 1.0) * 100.0,
    }


def run_bench(parts=(64, 256), *, grid: int = 64, sweeps: int = 50,
              repeats: int = 7, out: str = DEFAULT_OUT) -> dict:
    cases = []
    for n_parts in parts:
        case = bench_case(n_parts, grid=grid, sweeps=sweeps,
                          repeats=repeats)
        cases.append(case)
        print(f"P={case['n_parts']:4d}  "
              f"control={case['control_sweep_s'] * 1e6:8.1f} µs  "
              f"disabled={case['disabled_sweep_s'] * 1e6:8.1f} µs "
              f"({case['overhead_disabled_pct']:+5.2f}%)  "
              f"enabled={case['enabled_sweep_s'] * 1e6:8.1f} µs "
              f"({case['overhead_enabled_pct']:+5.2f}%)")
    record = {
        "benchmark": "obs_overhead",
        "workload": "grid2d_poisson",
        "numpy": np.__version__,
        "overhead_ceiling_pct": 2.0,
        "cases": cases,
        "overhead_disabled_pct_at_256": next(
            (c["overhead_disabled_pct"] for c in cases
             if c["n_parts"] == 256), None),
    }
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"[written to {out}]")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parts", type=int, nargs="+", default=[64, 256])
    ap.add_argument("--grid", type=int, default=64,
                    help="square mesh side (default 64)")
    ap.add_argument("--sweeps", type=int, default=50)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help="output JSON path ('' to skip writing)")
    args = ap.parse_args(argv)
    run_bench(tuple(args.parts), grid=args.grid, sweeps=args.sweeps,
              repeats=args.repeats, out=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
