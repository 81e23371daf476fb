"""Fail when a committed benchmark baseline regresses.

Every gate is one entry of :data:`GATES` — the committed
``benchmarks/BENCH_<name>.json`` it holds, the bench module whose
``run_bench`` produces a fresh record, how ``--quick`` shrinks that
run, and its check :class:`Row` s — and :func:`compare` is the one
comparator that walks them.  All gated numbers are ratios or counts
taken within one run on one machine (fleet vs per-kernel sweep, cached
vs re-planned setup, sharded vs simulator, mesh vs shm, mmap load vs
rebuild, ...), so they hold on hosts slower than the one that wrote
the baseline; absolute times are advisory at most.  To add or move a
gate, add or edit a row — see "Gates" in PERFORMANCE.md.

Exit code 0 = pass, 1 = regression, 2 = usage/baseline problems.  A
**missing, empty or unreadable baseline is a hard failure** (exit 2),
never a silent skip: CI must not green-light an ungated bench.  Use
``--only`` to leave gates out on purpose.

Usage:
    python scripts/check_bench.py                 # re-run all, compare
    python scripts/check_bench.py --only obs mesh # just these gates
    python scripts/check_bench.py --fresh kernel=new.json plan=p.json
    python scripts/check_bench.py --quick         # smaller/fewer runs
    python scripts/check_bench.py --json-report report.json

``--fresh NAME=PATH`` compares a previously written record instead of
re-running that bench.  ``--json-report PATH`` also writes a
machine-readable record — verdict, problems/warnings, the gated
numbers and the fresh records — on every outcome (pass, regression,
usage error), so a red CI run still carries its evidence.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import NamedTuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))

#: allowed relative drop of the kernel bench's ratios
KERNEL_TOL = 0.20
#: ... and of every other ratio: their denominators are O(100 µs) or
#: scheduler/IO-bound and swing ±30% with host load, while the
#: regressions they exist for (re-factorizing per solve, a replanning
#: restart, frame thrash) collapse them several-fold; the absolute
#: floors are the hard backstop
TOL = 0.50


class Row(NamedTuple):
    """One check: *metric*, read at *where*, must satisfy *kind*."""

    #: "record" (top level), "case" (every baseline case), "case=KEY",
    #: "case=max" / "case<max" (the largest baseline case / the rest),
    #: or the name of one of the gate's sections
    where: str
    metric: str
    #: drop / rise (vs the baseline's value, by more than the fraction
    #: *bound*), floor (>=), above (>), ceiling (<=), equals, flag
    kind: str
    #: a number, or ``(key, default)`` to read it from the baseline
    bound: object
    why: str
    #: a failure is a warning only (a missing metric never is)
    advisory: bool = False


class Gate(NamedTuple):
    name: str
    baseline: str
    bench: str
    #: the field that identifies a case (``n_parts`` / ``nx``)
    key: str
    #: what ``--quick`` does: "cases" = only the module's
    #: ``QUICK_CASES``, else ``run_bench`` kwargs for a shorter run
    quick: object
    rows: tuple
    #: optional parts of the record, gated when the baseline has them:
    #: ``(record key, run_bench kwarg, runs under --quick)``
    sections: tuple = ()
    #: under --quick a fresh record may lack baseline cases (warning);
    #: such a gate rejects a record without cases outright, so quick
    #: mode cannot pass on nothing
    partial_ok: bool = True


GATES = (
    Gate("kernel", "BENCH_kernel.json", "bench_kernel_micro", "n_parts",
         dict(sweeps=5, repeats=2), partial_ok=False, rows=(
             Row("case", "speedup", "drop", KERNEL_TOL,
                 "fleet vs per-kernel sweep"),
             Row("case", "fleet_sweep_s", "rise", KERNEL_TOL,
                 "absolute fleet sweep time, machine-dependent",
                 advisory=True),
             Row("record", "speedup_at_256", "drop", KERNEL_TOL,
                 "headline fleet vs per-kernel sweep"))),
    Gate("plan", "BENCH_plan.json", "bench_plan_reuse", "n_parts",
         dict(repeats=2, rhs_columns=2), partial_ok=False, rows=(
             Row("case", "speedup", "drop", TOL,
                 "setup speedup, cached plan vs re-planning"),
             Row("record", "speedup_at_64", "drop", TOL,
                 "headline setup speedup"),
             Row("record", "speedup_at_64", "floor", 5.0,
                 "the 5x amortization floor"))),
    Gate("multiproc", "BENCH_multiproc.json", "bench_multiproc", "nx",
         "cases", rows=(
             Row("case", "speedup_at_4", "floor", ("speedup_floor", 1.5),
                 "4-shard speedup over the single-process simulator"),
             Row("case", "speedup_at_4", "drop", TOL,
                 "4-shard speedup over the single-process simulator"))),
    Gate("net", "BENCH_net.json", "bench_net", "nx", "cases", rows=(
        Row("case", "mesh_vs_shm", "floor", ("ratio_floor", 0.2),
            "warm mesh vs shm solve: socket fabric regressed"),
        Row("case", "mesh_vs_shm", "drop", TOL,
            "warm mesh vs shm solve"))),
    Gate("mesh", "BENCH_mesh.json", "bench_mesh", "nx", "cases",
         sections=(("recovery", "recovery", True),), rows=(
             Row("case", "fallback_share", "ceiling",
                 ("fallback_ceiling", 0.01),
                 "share of the warm solve's wave frames that went "
                 "through the hub: peer sockets are missing or flapping"),
             Row("recovery", "overhead", "ceiling",
                 ("overhead_ceiling", 10.0),
                 "a killed worker stalls the solve"),
             Row("recovery", "n_recoveries", "floor", 1,
                 "the scripted kill never fired — the recovery case "
                 "gated nothing"),
             Row("recovery", "same_decision", "flag", None,
                 "the killed run reached a different stopping decision "
                 "than the clean control run"))),
    Gate("planbuild", "BENCH_planbuild.json", "bench_planbuild", "nx",
         "cases", sections=(("large", "large", False),), rows=(
             Row("case=320", "speedup", "floor", ("speedup_floor", 2.0),
                 "SuperLU vs LAPACK dense locals build"),
             Row("case", "speedup", "drop", TOL,
                 "SuperLU vs LAPACK dense locals build"),
             Row("large", "per_unknown_vs_320", "ceiling",
                 ("scaling_ceiling", 2.0),
                 "the 518k-unknown build no longer scales near-linearly "
                 "from the 102k-unknown build"))),
    Gate("planstore", "BENCH_planstore.json", "bench_planstore", "nx",
         "cases", sections=(("warm_restart", "warm", True),), rows=(
             Row("case=320", "speedup", "floor", ("speedup_floor", 10.0),
                 "mmap load vs rebuild"),
             Row("case", "speedup", "drop", TOL, "mmap load vs rebuild"),
             Row("case", "bitwise_solve", "flag", None,
                 "loaded-plan solve is no longer bitwise-identical to "
                 "the built-plan solve"),
             Row("warm_restart", "restart_speedup", "above", 1.0,
                 "a restarted server is no longer plan-ready faster "
                 "than a cold replan"),
             Row("warm_restart", "n_disk_loads", "equals", 1,
                 "disk loads per warm restart: the server replanned"),
             Row("warm_restart", "bitwise_solve", "flag", None,
                 "warm-restart solve is no longer bitwise-identical to "
                 "the pre-restart solve"))),
    # only the largest case gates: on O(60 µs) sweeps allocation luck
    # swings the percentage past any sane ceiling in either direction
    Gate("obs", "BENCH_obs.json", "bench_obs", "n_parts",
         dict(sweeps=10, repeats=3), rows=(
             Row("case=max", "overhead_disabled_pct", "ceiling",
                 ("overhead_ceiling_pct", 2.0),
                 "telemetry is no longer free when off"),
             Row("case<max", "overhead_disabled_pct", "ceiling",
                 ("overhead_ceiling_pct", 2.0),
                 "telemetry is no longer free when off",
                 advisory=True))),
)

#: kind -> (is the row broken?, how the failure reads)
_KINDS = {
    "drop": (lambda cur, bound, base:
             bool(base) and cur < base * (1.0 - bound),
             "fell from {base:.4g} to {cur:.4g}, more than {bound:.0%}"),
    "rise": (lambda cur, bound, base:
             bool(base) and cur > base * (1.0 + bound),
             "{cur:.4g} exceeds baseline {base:.4g} by more than "
             "{bound:.0%}"),
    "floor": (lambda cur, bound, base: cur < bound,
              "{cur:.4g} is below the {bound:g} floor"),
    "above": (lambda cur, bound, base: cur <= bound,
              "{cur:.4g} is not above {bound:g}"),
    "ceiling": (lambda cur, bound, base: cur > bound,
                "{cur:.4g} exceeds the {bound:g} ceiling"),
    "equals": (lambda cur, bound, base: cur != bound,
               "is {cur}, expected exactly {bound}"),
    "flag": (lambda cur, bound, base: not cur, "is {cur}"),
}


def compare(gate: Gate, baseline: dict, fresh: dict, *,
            quick: bool = False) -> tuple[list[str], list[str]]:
    """Walk *gate*'s rows over a fresh record: ``(problems, warnings)``.

    A gated metric absent from the fresh record is a problem, never a
    silent pass; so is a baseline case or section absent from it,
    except under *quick* where the run left it out on purpose.
    """
    problems: list[str] = []
    warnings: list[str] = []
    base_cases = {c[gate.key]: c for c in baseline.get("cases", [])}
    fresh_cases = {c[gate.key]: c for c in fresh.get("cases", [])}
    if gate.partial_ok and not fresh_cases:
        return [f"{gate.name}: fresh record has no cases"], warnings

    def missing(label: str, allowed: bool) -> None:
        (warnings if allowed else problems).append(
            f"{gate.name} {label}: case missing from fresh run")

    # (label, the `where`s it answers to, baseline side, fresh side)
    places = [("record", {"record"}, baseline, fresh)]
    for key, base in sorted(base_cases.items()):
        label = f"{gate.key}={key}"
        if key not in fresh_cases:
            missing(label, quick and gate.partial_ok)
            continue
        rank = "case=max" if key == max(base_cases) else "case<max"
        places.append((label, {"case", f"case={key}", rank}, base,
                       fresh_cases[key]))
    for section, _, in_quick in gate.sections:
        if not baseline.get(section):
            continue
        if fresh.get(section) is None:
            missing(section, quick and not in_quick)
            continue
        places.append((section, {section}, baseline[section],
                       fresh[section]))

    for label, wheres, base, cur in places:
        for row in gate.rows:
            if row.where not in wheres:
                continue
            value = cur.get(row.metric)
            if value is None:
                msg = f"{gate.name} {label}: fresh record lacks {row.metric}"
                if msg not in problems:
                    problems.append(msg)
                continue
            bound = float(baseline.get(*row.bound)) \
                if isinstance(row.bound, tuple) else row.bound
            broken, text = _KINDS[row.kind]
            base_value = base.get(row.metric)
            if broken(value, bound, base_value):
                (warnings if row.advisory else problems).append(
                    f"{gate.name} {label}: {row.metric} "
                    + text.format(cur=value, bound=bound, base=base_value)
                    + f" ({row.why})")
    return problems, warnings


class _UsageError(Exception):
    """A problem that should exit 2, not read as a regression."""


def _load(path: str, what: str, hint: str = "") -> dict:
    if not os.path.exists(path):
        raise _UsageError(f"{what} {path} is missing{hint}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        raise _UsageError(f"{what} {path} is unreadable: {exc}")


def _require_baseline(gate: Gate, path: str) -> dict:
    """Load a baseline; absent or empty, the gate would silently pass."""
    regen = f"`PYTHONPATH=src python benchmarks/{gate.bench}.py`"
    baseline = _load(
        path, "baseline",
        f" — the bench it gates would go unchecked; regenerate it with "
        f"{regen} (or name the other gates with --only to exclude the "
        "check on purpose)")
    if not baseline.get("cases"):
        raise _UsageError(
            f"baseline {path} has no cases; it gates nothing — "
            f"regenerate it with {regen}")
    return baseline


def _run(gate: Gate, baseline: dict, quick: bool) -> dict:
    """A fresh record over the baseline's cases (fewer under *quick*)."""
    bench = importlib.import_module(gate.bench)
    cases = tuple(sorted(c[gate.key] for c in baseline["cases"]))
    kwargs = {}
    if quick and gate.quick == "cases":
        cases = tuple(c for c in cases if c in bench.QUICK_CASES) \
            or bench.QUICK_CASES
    elif quick:
        kwargs.update(gate.quick)
    for section, kwarg, in_quick in gate.sections:
        kwargs[kwarg] = bool(baseline.get(section)) \
            and (in_quick or not quick)
    return bench.run_bench(cases, out="", **kwargs)


def _measured(gate: Gate, record: dict) -> dict:
    """The numbers *gate*'s rows read off *record*, for the report."""
    if not record:
        return {}
    per_case = sorted({r.metric for r in gate.rows
                       if r.where.startswith("case")})
    out = {"cases": [{k: c.get(k) for k in (gate.key, *per_case)}
                     for c in record.get("cases", [])]}
    for row in gate.rows:
        if row.where == "record":
            out[row.metric] = record.get(row.metric)
        elif not row.where.startswith("case"):
            out[f"{row.where}.{row.metric}"] = \
                (record.get(row.where) or {}).get(row.metric)
    return out


def main(argv=None) -> int:
    names = [g.name for g in GATES]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", metavar="NAME",
                    help=f"gates to run (default: all of {' '.join(names)})")
    ap.add_argument("--fresh", nargs="+", default=[], metavar="NAME=PATH",
                    help="compare a previously written record of gate "
                    "NAME instead of re-running its bench")
    ap.add_argument("--quick", action="store_true",
                    help="re-run fewer cases / fewer sweeps and repeats")
    ap.add_argument("--json-report", metavar="PATH",
                    help="write a machine-readable verdict + gated-"
                    "numbers report (written on every outcome)")
    ap.add_argument("--baseline-dir", metavar="DIR",
                    default=os.path.join(_ROOT, "benchmarks"),
                    help="where the BENCH_*.json baselines live")
    args = ap.parse_args(argv)

    problems: list[str] = []
    warnings: list[str] = []
    checked: list[str] = []
    records: dict[str, dict] = {}

    def report(code: int, error: str = "") -> int:
        if args.json_report:
            with open(args.json_report, "w") as fh:
                json.dump({
                    "schema": "check_bench-report/9",
                    "pass": code == 0, "exit_code": code, "error": error,
                    "quick": args.quick, "checked": checked,
                    "problems": problems, "warnings": warnings,
                    **{g.name: {"measured":
                                _measured(g, records.get(g.name, {})),
                                "record": records.get(g.name, {})}
                       for g in GATES}}, fh, indent=2)
            print(f"wrote {args.json_report}")
        return code

    try:
        fresh = dict(item.partition("=")[::2] for item in args.fresh)
        unknown = [n for n in [*(args.only or ()), *fresh]
                   if n not in names]
        if unknown or not all(fresh.values()):
            raise _UsageError(
                f"--only takes NAME and --fresh NAME=PATH, with NAME one "
                f"of {' '.join(names)}; got {' '.join(unknown or fresh)}")
        for gate in GATES:
            if args.only and gate.name not in args.only:
                continue
            path = os.path.join(args.baseline_dir, gate.baseline)
            baseline = _require_baseline(gate, path)
            records[gate.name] = (
                _load(fresh[gate.name], "fresh result")
                if gate.name in fresh
                else _run(gate, baseline, args.quick))
            p, w = compare(gate, baseline, records[gate.name],
                           quick=args.quick)
            problems += p
            warnings += w
            checked.append(os.path.relpath(path, _ROOT))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return report(2, error=str(exc))

    for w in warnings:
        print(f"warning: {w}")
    if problems:
        print("BENCH REGRESSION:")
        for p in problems:
            print(f"  - {p}")
        return report(1)
    print(f"bench OK: {', '.join(checked)}")
    return report(0)


if __name__ == "__main__":
    raise SystemExit(main())
