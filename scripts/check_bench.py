"""Fail when a committed benchmark baseline regresses.

Compares fresh runs of :mod:`benchmarks.bench_kernel_micro`,
:mod:`benchmarks.bench_plan_reuse`, :mod:`benchmarks.bench_multiproc`,
:mod:`benchmarks.bench_net`, :mod:`benchmarks.bench_mesh`,
:mod:`benchmarks.bench_planbuild`,
:mod:`benchmarks.bench_planstore` and :mod:`benchmarks.bench_obs`
(or previously written JSONs passed
via ``--fresh`` / ``--fresh-plan`` / ``--fresh-multiproc`` /
``--fresh-net`` / ``--fresh-mesh`` / ``--fresh-planbuild`` /
``--fresh-planstore`` / ``--fresh-obs``)
against the committed ``benchmarks/BENCH_kernel.json``,
``BENCH_plan.json``, ``BENCH_multiproc.json``, ``BENCH_net.json``,
``BENCH_mesh.json``, ``BENCH_planbuild.json``,
``BENCH_planstore.json`` and ``BENCH_obs.json``.  A case
**regresses** when its speedup
ratio — a machine-relative number, robust on hosts slower than the
one that wrote the baseline — drops by more than ``--tolerance``
(default 20%): the kernel bench's fleet-vs-per-kernel ratio (headline
``speedup_at_256``), the plan bench's cached-vs-replanned setup ratio
(headline ``speedup_at_64``), the multiproc bench's
sharded-vs-simulator wall-clock ratio (headline ``speedup_at_4``,
which additionally must clear the absolute 1.5x floor), the net
bench's mesh-vs-shm warm-solve ratio (headline ``mesh_vs_shm_at_2``,
floored by the baseline's ``ratio_floor``), the mesh bench's
hub-relayed share of warm-solve wave frames (per case, headline
``fallback_share_at_4``, capped by the baseline's absolute
``fallback_ceiling`` of 1% — the coordinator must carry no
steady-state waves — plus the recovery case: a worker killed
mid-solve must recover to the same stopping decision within the
baseline's ``overhead_ceiling``), the planbuild bench's
dense-vs-sparse plan-construction ratio (headline ``speedup_at_320``,
floored by the baseline's ``speedup_floor`` of 3x, plus the 500k-
unknown build's ``vs_dense320 > 1`` demonstration), and the planstore
bench's mmap-load-vs-rebuild ratio (headline ``speedup_at_320``,
floored by the baseline's ``speedup_floor`` of 10x, plus the
warm-restart case, which must beat a cold replan with exactly one
disk load and a bitwise-identical solve), and the obs bench's
**disabled-path telemetry overhead** on the fleet sweep (headline
``overhead_disabled_pct_at_256``, capped by the baseline's absolute
``overhead_ceiling_pct`` of 2% — observability must cost nothing
when off).
Absolute kernel sweep times exceeding the baseline print warnings
only, unless ``--strict-time`` promotes them to failures.  Exit code
0 = pass, 1 = regression, 2 = usage/baseline problems.

A **missing or malformed baseline file is a hard failure** (exit 2),
never a silent skip: CI must not green-light an ungated bench.  Use
the explicit ``--skip-*`` flags to exclude a check on purpose.

Usage:
    python scripts/check_bench.py                 # re-run all, compare
    python scripts/check_bench.py --fresh new.json --skip-plan
    python scripts/check_bench.py --quick         # smaller sweep counts
    python scripts/check_bench.py --json-report report.json

``--json-report <path>`` additionally writes a machine-readable
pass/fail record — verdict, per-check problems/warnings, the measured
speedups and the fresh benchmark records — which CI uploads as an
artifact.  The report is written on every outcome (pass, regression,
usage error) so a red run still carries its evidence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))

DEFAULT_BASELINE = os.path.join(_ROOT, "benchmarks", "BENCH_kernel.json")
DEFAULT_PLAN_BASELINE = os.path.join(_ROOT, "benchmarks",
                                     "BENCH_plan.json")
DEFAULT_MULTIPROC_BASELINE = os.path.join(_ROOT, "benchmarks",
                                          "BENCH_multiproc.json")
DEFAULT_NET_BASELINE = os.path.join(_ROOT, "benchmarks",
                                    "BENCH_net.json")
DEFAULT_MESH_BASELINE = os.path.join(_ROOT, "benchmarks",
                                     "BENCH_mesh.json")
DEFAULT_PLANBUILD_BASELINE = os.path.join(_ROOT, "benchmarks",
                                          "BENCH_planbuild.json")
DEFAULT_PLANSTORE_BASELINE = os.path.join(_ROOT, "benchmarks",
                                          "BENCH_planstore.json")
DEFAULT_OBS_BASELINE = os.path.join(_ROOT, "benchmarks",
                                    "BENCH_obs.json")

#: bench script that regenerates each baseline, for error messages
_REGEN = {
    "BENCH_kernel.json": "benchmarks/bench_kernel_micro.py",
    "BENCH_plan.json": "benchmarks/bench_plan_reuse.py",
    "BENCH_multiproc.json": "benchmarks/bench_multiproc.py",
    "BENCH_net.json": "benchmarks/bench_net.py",
    "BENCH_mesh.json": "benchmarks/bench_mesh.py",
    "BENCH_planbuild.json": "benchmarks/bench_planbuild.py",
    "BENCH_planstore.json": "benchmarks/bench_planstore.py",
    "BENCH_obs.json": "benchmarks/bench_obs.py",
}


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(baseline: dict, fresh: dict, tolerance: float, *,
            strict_time: bool = False) -> tuple[list[str], list[str]]:
    """Compare a fresh record against the baseline.

    Returns ``(problems, warnings)``.  The failing signal is the
    per-case **speedup ratio** (fleet vs per-kernel sweep on the *same*
    machine and run), which is host-independent; absolute fleet sweep
    times are only advisory unless *strict_time* is set, because the
    committed baseline's wall-clock numbers are machine-specific.
    """
    problems: list[str] = []
    warnings: list[str] = []
    base_cases = {c["n_parts"]: c for c in baseline.get("cases", [])}
    fresh_cases = {c["n_parts"]: c for c in fresh.get("cases", [])}
    for n_parts, base in sorted(base_cases.items()):
        cur = fresh_cases.get(n_parts)
        if cur is None:
            problems.append(f"P={n_parts}: case missing from fresh run")
            continue
        if cur["speedup"] < base["speedup"] * (1.0 - tolerance):
            problems.append(
                f"P={n_parts}: speedup fell from {base['speedup']:.1f}x "
                f"to {cur['speedup']:.1f}x (more than {tolerance:.0%} "
                "drop)")
        if cur["fleet_sweep_s"] > base["fleet_sweep_s"] * (1.0 + tolerance):
            msg = (f"P={n_parts}: fleet sweep "
                   f"{cur['fleet_sweep_s'] * 1e6:.1f} µs exceeds baseline "
                   f"{base['fleet_sweep_s'] * 1e6:.1f} µs by more than "
                   f"{tolerance:.0%} (machine-dependent)")
            (problems if strict_time else warnings).append(msg)
    base_speedup = baseline.get("speedup_at_256")
    fresh_speedup = fresh.get("speedup_at_256")
    if base_speedup and fresh_speedup:
        if fresh_speedup < base_speedup * (1.0 - tolerance):
            problems.append(
                f"speedup_at_256 fell from {base_speedup:.1f}x to "
                f"{fresh_speedup:.1f}x (more than {tolerance:.0%} drop)")
    return problems, warnings


def compare_plan(baseline: dict, fresh: dict, tolerance: float
                 ) -> list[str]:
    """Compare a fresh plan-reuse record against the baseline.

    The failing signal is the per-case **setup speedup** (cached-plan
    per-solve setup vs full re-planning, same machine and run), plus
    the headline ``speedup_at_64`` and an absolute 5x amortization
    floor; absolute times are machine-specific and not gated.  The
    ratio's denominator is O(100 µs), so it swings ±30% with host
    load — use a generous tolerance (the default --plan-tolerance is
    0.5; an architectural regression such as re-factorizing per solve
    collapses the ratio to ~1x, far past any sane tolerance).
    """
    problems: list[str] = []
    base_cases = {c["n_parts"]: c for c in baseline.get("cases", [])}
    fresh_cases = {c["n_parts"]: c for c in fresh.get("cases", [])}
    for n_parts, base in sorted(base_cases.items()):
        cur = fresh_cases.get(n_parts)
        if cur is None:
            problems.append(
                f"plan P={n_parts}: case missing from fresh run")
            continue
        if cur["speedup"] < base["speedup"] * (1.0 - tolerance):
            problems.append(
                f"plan P={n_parts}: setup speedup fell from "
                f"{base['speedup']:.1f}x to {cur['speedup']:.1f}x "
                f"(more than {tolerance:.0%} drop)")
    base_speedup = baseline.get("speedup_at_64")
    fresh_speedup = fresh.get("speedup_at_64")
    if fresh_speedup is None:
        # a truncated/wrong fresh record must not read as a pass
        problems.append("plan fresh record lacks speedup_at_64")
        return problems
    if base_speedup and fresh_speedup < base_speedup * (1.0 - tolerance):
        problems.append(
            f"plan speedup_at_64 fell from {base_speedup:.1f}x to "
            f"{fresh_speedup:.1f}x (more than {tolerance:.0%} drop)")
    if fresh_speedup < 5.0:
        problems.append(
            f"plan speedup_at_64 is {fresh_speedup:.1f}x, below the "
            "5x amortization floor")
    return problems


def compare_multiproc(baseline: dict, fresh: dict, tolerance: float, *,
                      require_all: bool = True
                      ) -> tuple[list[str], list[str]]:
    """Compare a fresh multiproc-sharding record against the baseline.

    The failing signal is the per-case 4-shard **wall-clock speedup**
    over the single-process fleet simulator (same machine and run),
    plus the absolute floor recorded in the baseline (1.5x, the ISSUE 4
    acceptance criterion).  With ``require_all=False`` (quick mode)
    baseline cases absent from the fresh run — the large acceptance
    workload — downgrade to warnings; the cases that *did* run are
    still fully gated.
    """
    problems: list[str] = []
    warnings: list[str] = []
    floor = float(baseline.get("speedup_floor", 1.5))
    base_cases = {c["nx"]: c for c in baseline.get("cases", [])}
    fresh_cases = {c["nx"]: c for c in fresh.get("cases", [])}
    if not fresh_cases:
        problems.append("multiproc fresh record has no cases")
        return problems, warnings
    for nx, base in sorted(base_cases.items()):
        cur = fresh_cases.get(nx)
        if cur is None:
            msg = f"multiproc nx={nx}: case missing from fresh run"
            (problems if require_all else warnings).append(msg)
            continue
        speedup = cur.get("speedup_at_4")
        base_speedup = base.get("speedup_at_4")
        if speedup is None:
            problems.append(
                f"multiproc nx={nx}: fresh case lacks speedup_at_4")
            continue
        if speedup < floor:
            problems.append(
                f"multiproc nx={nx}: 4-shard speedup {speedup:.2f}x is "
                f"below the {floor}x floor")
        if base_speedup and speedup < base_speedup * (1.0 - tolerance):
            problems.append(
                f"multiproc nx={nx}: 4-shard speedup fell from "
                f"{base_speedup:.1f}x to {speedup:.1f}x (more than "
                f"{tolerance:.0%} drop)")
    return problems, warnings


def compare_net(baseline: dict, fresh: dict, tolerance: float, *,
                require_all: bool = True) -> tuple[list[str], list[str]]:
    """Compare a fresh net-transport record against the baseline.

    The failing signal is the per-case warm **mesh_vs_shm** solve-time
    ratio (same machine and run — shm's solve is the in-run control),
    plus the absolute floor recorded in the baseline: a healthy socket
    fabric sits near 1.0, and a frame-thrash regression (e.g. losing
    the post-emission yield) collapses the ratio by an order of
    magnitude.  With ``require_all=False`` (quick mode) baseline cases
    absent from the fresh run — the 10k-unknown acceptance workload —
    downgrade to warnings; the cases that *did* run are fully gated.
    """
    problems: list[str] = []
    warnings: list[str] = []
    floor = float(baseline.get("ratio_floor", 0.2))
    base_cases = {c["nx"]: c for c in baseline.get("cases", [])}
    fresh_cases = {c["nx"]: c for c in fresh.get("cases", [])}
    if not fresh_cases:
        problems.append("net fresh record has no cases")
        return problems, warnings
    for nx, base in sorted(base_cases.items()):
        cur = fresh_cases.get(nx)
        if cur is None:
            msg = f"net nx={nx}: case missing from fresh run"
            (problems if require_all else warnings).append(msg)
            continue
        ratio = cur.get("mesh_vs_shm")
        base_ratio = base.get("mesh_vs_shm")
        if ratio is None:
            problems.append(f"net nx={nx}: fresh case lacks mesh_vs_shm")
            continue
        if ratio < floor:
            problems.append(
                f"net nx={nx}: mesh_vs_shm ratio {ratio:.2f} is below "
                f"the {floor} floor (socket fabric regressed)")
        if base_ratio and ratio < base_ratio * (1.0 - tolerance):
            problems.append(
                f"net nx={nx}: mesh_vs_shm fell from {base_ratio:.2f} "
                f"to {ratio:.2f} (more than {tolerance:.0%} drop)")
    return problems, warnings


def compare_mesh(baseline: dict, fresh: dict, *,
                 require_all: bool = True) -> tuple[list[str], list[str]]:
    """Compare a fresh worker-mesh record against the baseline.

    Two failing signals, both absolute.  First the warm solve's
    **fallback_share** — hub-relayed wave frames over all wave frames,
    a count ratio and so host-independent — against the baseline's
    ``fallback_ceiling``, in every case that ran: once peers are
    dialled the coordinator carries no steady-state waves, so a mesh
    degraded to hub-relay-only fails here.  Second the
    **recovery** case: a worker hard-killed mid-solve must actually
    trigger a recovery, complete to the same stopping decision as the
    clean control run, and stay within the baseline's
    ``overhead_ceiling`` wall-clock overhead.  With
    ``require_all=False`` (quick mode) baseline cases absent from the
    fresh run — the 10k-unknown headline — downgrade to warnings; the
    cases that *did* run are fully gated.
    """
    problems: list[str] = []
    warnings: list[str] = []
    share_ceiling = float(baseline.get("fallback_ceiling", 0.01))
    ceiling = float(baseline.get("overhead_ceiling", 10.0))
    base_cases = {c["nx"]: c for c in baseline.get("cases", [])}
    fresh_cases = {c["nx"]: c for c in fresh.get("cases", [])}
    if not fresh_cases:
        problems.append("mesh fresh record has no cases")
        return problems, warnings
    for nx in sorted(base_cases):
        cur = fresh_cases.get(nx)
        if cur is None:
            msg = f"mesh nx={nx}: case missing from fresh run"
            (problems if require_all else warnings).append(msg)
            continue
        share = cur.get("fallback_share")
        if share is None:
            problems.append(
                f"mesh nx={nx}: fresh case lacks fallback_share")
            continue
        if share > share_ceiling:
            problems.append(
                f"mesh nx={nx}: {share:.1%} of the warm solve's wave "
                f"frames went through the hub (ceiling "
                f"{share_ceiling:.0%}: peer sockets are missing or "
                "flapping)")
    if baseline.get("recovery"):
        rec = fresh.get("recovery")
        if rec is None:
            problems.append(
                "mesh: recovery case missing from fresh run")
        else:
            overhead = rec.get("overhead")
            if overhead is None:
                problems.append(
                    "mesh: fresh recovery case lacks overhead")
            elif overhead > ceiling:
                problems.append(
                    f"mesh: recovery overhead {overhead:.2f}x exceeds "
                    f"the {ceiling}x ceiling (a killed worker stalls "
                    "the solve)")
            if rec.get("n_recoveries", 0) < 1:
                problems.append(
                    "mesh: the scripted kill never fired — the "
                    "recovery case gated nothing")
            if not rec.get("same_decision"):
                problems.append(
                    "mesh: the killed run reached a different "
                    "stopping decision than the clean control run")
    return problems, warnings


def compare_planbuild(baseline: dict, fresh: dict, tolerance: float, *,
                      require_all: bool = True
                      ) -> tuple[list[str], list[str]]:
    """Compare a fresh plan-construction record against the baseline.

    The failing signal is the per-case **dense-vs-sparse build
    speedup** (both built on the same machine in the same run, so the
    ratio is host-independent), plus the absolute floor recorded in
    the baseline (3x at nx=320, the ISSUE 6 acceptance criterion) and
    the 500k-unknown demonstration: the large sparse build must stay
    faster than the same run's 102k-unknown dense build
    (``vs_dense320 > 1``).  With ``require_all=False`` (quick mode)
    baseline cases absent from the fresh run — the nx=320 headline and
    the large case — downgrade to warnings; the cases that *did* run
    are still fully gated.
    """
    problems: list[str] = []
    warnings: list[str] = []
    floor = float(baseline.get("speedup_floor", 3.0))
    base_cases = {c["nx"]: c for c in baseline.get("cases", [])}
    fresh_cases = {c["nx"]: c for c in fresh.get("cases", [])}
    if not fresh_cases:
        problems.append("planbuild fresh record has no cases")
        return problems, warnings
    for nx, base in sorted(base_cases.items()):
        cur = fresh_cases.get(nx)
        if cur is None:
            msg = f"planbuild nx={nx}: case missing from fresh run"
            (problems if require_all else warnings).append(msg)
            continue
        speedup = cur.get("speedup")
        base_speedup = base.get("speedup")
        if speedup is None:
            problems.append(
                f"planbuild nx={nx}: fresh case lacks speedup")
            continue
        if nx == 320 and speedup < floor:
            problems.append(
                f"planbuild nx={nx}: sparse build speedup "
                f"{speedup:.2f}x is below the {floor}x floor")
        if base_speedup and speedup < base_speedup * (1.0 - tolerance):
            problems.append(
                f"planbuild nx={nx}: sparse build speedup fell from "
                f"{base_speedup:.1f}x to {speedup:.1f}x (more than "
                f"{tolerance:.0%} drop)")
    if baseline.get("large"):
        cur_large = fresh.get("large")
        if cur_large is None:
            msg = ("planbuild: large (500k-unknown) case missing from "
                   "fresh run")
            (problems if require_all else warnings).append(msg)
        else:
            ratio = cur_large.get("vs_dense320")
            if ratio is None:
                problems.append(
                    "planbuild: fresh large case lacks vs_dense320")
            elif ratio <= 1.0:
                problems.append(
                    f"planbuild: the {cur_large.get('n')}-unknown "
                    f"sparse build is no longer faster than the "
                    f"102k-unknown dense build (vs_dense320="
                    f"{ratio:.2f})")
    return problems, warnings


def compare_planstore(baseline: dict, fresh: dict, tolerance: float, *,
                      require_all: bool = True
                      ) -> tuple[list[str], list[str]]:
    """Compare a fresh plan-store record against the baseline.

    The failing signal is the per-case **mmap-load-vs-rebuild
    speedup** (both measured on the same machine in the same run, so
    the ratio is host-independent), plus the absolute floor recorded
    in the baseline (10x at nx=320, the ISSUE 7 acceptance criterion),
    the per-case bitwise-solve guard, and the warm-restart case: a
    restarted server must have the plan solvable faster than a cold
    replan, through exactly one disk load, with a bitwise-identical
    solve.  With ``require_all=False`` (quick mode) baseline cases
    absent from the fresh run — the nx=320 headline — downgrade to
    warnings; the cases that *did* run are still fully gated.
    """
    problems: list[str] = []
    warnings: list[str] = []
    floor = float(baseline.get("speedup_floor", 10.0))
    base_cases = {c["nx"]: c for c in baseline.get("cases", [])}
    fresh_cases = {c["nx"]: c for c in fresh.get("cases", [])}
    if not fresh_cases:
        problems.append("planstore fresh record has no cases")
        return problems, warnings
    for nx, base in sorted(base_cases.items()):
        cur = fresh_cases.get(nx)
        if cur is None:
            msg = f"planstore nx={nx}: case missing from fresh run"
            (problems if require_all else warnings).append(msg)
            continue
        speedup = cur.get("speedup")
        base_speedup = base.get("speedup")
        if speedup is None:
            problems.append(
                f"planstore nx={nx}: fresh case lacks speedup")
            continue
        if nx == 320 and speedup < floor:
            problems.append(
                f"planstore nx={nx}: mmap load speedup {speedup:.2f}x "
                f"is below the {floor}x floor")
        if base_speedup and speedup < base_speedup * (1.0 - tolerance):
            problems.append(
                f"planstore nx={nx}: mmap load speedup fell from "
                f"{base_speedup:.1f}x to {speedup:.1f}x (more than "
                f"{tolerance:.0%} drop)")
        if not cur.get("bitwise_solve"):
            problems.append(
                f"planstore nx={nx}: loaded-plan solve is no longer "
                "bitwise-identical to the built-plan solve")
    if baseline.get("warm_restart"):
        wr = fresh.get("warm_restart")
        if wr is None:
            problems.append(
                "planstore: warm-restart case missing from fresh run")
        else:
            ratio = wr.get("restart_speedup")
            if ratio is None:
                problems.append(
                    "planstore: fresh warm-restart case lacks "
                    "restart_speedup")
            elif ratio <= 1.0:
                problems.append(
                    f"planstore: a restarted server is no longer "
                    f"plan-ready faster than a cold replan "
                    f"(restart_speedup={ratio:.2f})")
            if wr.get("n_disk_loads") != 1:
                problems.append(
                    f"planstore: warm restart took "
                    f"{wr.get('n_disk_loads')} disk loads, expected "
                    "exactly 1 (the server replanned)")
            if not wr.get("bitwise_solve"):
                problems.append(
                    "planstore: warm-restart solve is no longer "
                    "bitwise-identical to the pre-restart solve")
    return problems, warnings


def compare_obs(baseline: dict, fresh: dict, *,
                require_all: bool = True) -> tuple[list[str], list[str]]:
    """Compare a fresh telemetry-overhead record against the baseline.

    The failing signal is the headline **disabled-path overhead** at
    the largest case (``overhead_disabled_pct_at_256``) exceeding the
    baseline's absolute ``overhead_ceiling_pct`` (2%, the ISSUE 10
    acceptance criterion: observability must cost nothing when off).
    Both sweep times come from the same run on the same machine, so
    the percentage is host-independent; smaller cases are advisory
    only — on O(60 µs) sweeps allocation luck swings the ratio past
    any sane ceiling in either direction.  A fresh record lacking the
    headline is a failure, never a silent pass.
    """
    problems: list[str] = []
    warnings: list[str] = []
    ceiling = float(baseline.get("overhead_ceiling_pct", 2.0))
    base_cases = {c["n_parts"]: c for c in baseline.get("cases", [])}
    fresh_cases = {c["n_parts"]: c for c in fresh.get("cases", [])}
    if not fresh_cases:
        problems.append("obs fresh record has no cases")
        return problems, warnings
    headline = max(base_cases) if base_cases else None
    for n_parts, _base in sorted(base_cases.items()):
        cur = fresh_cases.get(n_parts)
        if cur is None:
            msg = f"obs P={n_parts}: case missing from fresh run"
            (problems if require_all else warnings).append(msg)
            continue
        overhead = cur.get("overhead_disabled_pct")
        if overhead is None:
            problems.append(
                f"obs P={n_parts}: fresh case lacks "
                "overhead_disabled_pct")
            continue
        if overhead > ceiling:
            msg = (f"obs P={n_parts}: disabled-path overhead "
                   f"{overhead:+.2f}% exceeds the {ceiling:.0f}% "
                   "ceiling (telemetry is no longer free when off)")
            (problems if n_parts == headline else warnings).append(msg)
    return problems, warnings


class _UsageError(Exception):
    """A problem that should exit 2, not read as a regression."""


def _speedup_summary(record: dict) -> dict:
    """Headline ratios of a benchmark record, for the JSON report."""
    if not record:
        return {}
    out = {k: record[k]
           for k in ("speedup_at_256", "speedup_at_64", "speedup_at_4",
                     "mesh_vs_shm_at_2", "fallback_share_at_4",
                     "speedup_at_320", "overhead_disabled_pct_at_256")
           if record.get(k) is not None}
    if isinstance(record.get("large"), dict) \
            and record["large"].get("vs_dense320") is not None:
        out["vs_dense320"] = record["large"]["vs_dense320"]
    if isinstance(record.get("warm_restart"), dict) \
            and record["warm_restart"].get("restart_speedup") is not None:
        out["restart_speedup"] = record["warm_restart"]["restart_speedup"]
    if isinstance(record.get("recovery"), dict) \
            and record["recovery"].get("overhead") is not None:
        out["recovery_overhead"] = record["recovery"]["overhead"]
    out["cases"] = [{k: c.get(k)
                     for k in ("n_parts", "nx", "speedup", "speedup_at_4",
                               "mesh_vs_shm", "fallback_share",
                               "overhead_disabled_pct",
                               "overhead_enabled_pct")
                     if c.get(k) is not None}
                    for c in record.get("cases", [])]
    return out


def _write_report(path: str, *, exit_code: int, problems, warnings,
                  checked, args, kernel_fresh: dict,
                  plan_fresh: dict, multiproc_fresh: dict,
                  net_fresh: dict, mesh_fresh: dict,
                  planbuild_fresh: dict,
                  planstore_fresh: dict,
                  obs_fresh: dict,
                  error: str = "") -> None:
    report = {
        "schema": "check_bench-report/8",
        "pass": exit_code == 0,
        "exit_code": exit_code,
        "error": error,
        "tolerance": args.tolerance,
        "plan_tolerance": args.plan_tolerance,
        "multiproc_tolerance": args.multiproc_tolerance,
        "net_tolerance": args.net_tolerance,
        "planbuild_tolerance": args.planbuild_tolerance,
        "planstore_tolerance": args.planstore_tolerance,
        "strict_time": bool(args.strict_time),
        "quick": bool(args.quick),
        "checked": list(checked),
        "problems": list(problems),
        "warnings": list(warnings),
        "kernel": {"measured": _speedup_summary(kernel_fresh),
                   "record": kernel_fresh},
        "plan": {"measured": _speedup_summary(plan_fresh),
                 "record": plan_fresh},
        "multiproc": {"measured": _speedup_summary(multiproc_fresh),
                      "record": multiproc_fresh},
        "net": {"measured": _speedup_summary(net_fresh),
                "record": net_fresh},
        "mesh": {"measured": _speedup_summary(mesh_fresh),
                 "record": mesh_fresh},
        "planbuild": {"measured": _speedup_summary(planbuild_fresh),
                      "record": planbuild_fresh},
        "planstore": {"measured": _speedup_summary(planstore_fresh),
                      "record": planstore_fresh},
        "obs": {"measured": _speedup_summary(obs_fresh),
                "record": obs_fresh},
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {path}")


def _load_fresh(path: str) -> dict:
    if not os.path.exists(path):
        raise _UsageError(f"fresh result {path} not found")
    return _load(path)


def _require_baseline(path: str) -> dict:
    """Load a baseline, hard-failing (exit 2) on absence or emptiness.

    CI must not green-light an ungated bench: a missing ``BENCH_*``
    file means the gate would silently pass, so it is treated exactly
    like a usage error, with the regeneration command spelled out.
    """
    if not os.path.exists(path):
        regen = _REGEN.get(os.path.basename(path), "its bench script")
        raise _UsageError(
            f"baseline {path} is missing — the bench it gates would go "
            f"unchecked; regenerate it with `PYTHONPATH=src python "
            f"{regen}` (or pass the matching --skip-* flag to exclude "
            "the check on purpose)")
    try:
        baseline = _load(path)
    except (json.JSONDecodeError, OSError) as exc:
        raise _UsageError(f"baseline {path} is unreadable: {exc}")
    if not baseline.get("cases"):
        raise _UsageError(
            f"baseline {path} has no cases; it gates nothing — "
            "regenerate it")
    return baseline


def _load_or_run_kernel(args, baseline: dict) -> dict:
    if args.fresh:
        return _load_fresh(args.fresh)
    from bench_kernel_micro import run_bench

    parts = tuple(c["n_parts"] for c in baseline.get("cases", []))
    kwargs = {"sweeps": 5, "repeats": 2} if args.quick else {}
    return run_bench(parts or (64, 256, 512), out="", **kwargs)


def _load_or_run_plan(args, baseline: dict) -> dict:
    if args.fresh_plan:
        return _load_fresh(args.fresh_plan)
    from bench_plan_reuse import run_bench

    parts = tuple(c["n_parts"] for c in baseline.get("cases", []))
    kwargs = {"repeats": 2, "rhs_columns": 2} if args.quick else {}
    return run_bench(parts or (16, 64), out="", **kwargs)


def _load_or_run_multiproc(args, baseline: dict) -> dict:
    if args.fresh_multiproc:
        return _load_fresh(args.fresh_multiproc)
    from bench_multiproc import QUICK_CASES, run_bench

    cases = tuple(sorted(c["nx"] for c in baseline.get("cases", [])))
    if args.quick:
        cases = tuple(nx for nx in cases if nx in QUICK_CASES) \
            or QUICK_CASES
    return run_bench(cases, out="")


def _load_or_run_net(args, baseline: dict) -> dict:
    if args.fresh_net:
        return _load_fresh(args.fresh_net)
    from bench_net import QUICK_CASES, run_bench

    cases = tuple(sorted(c["nx"] for c in baseline.get("cases", [])))
    if args.quick:
        cases = tuple(nx for nx in cases if nx in QUICK_CASES) \
            or QUICK_CASES
    return run_bench(cases, out="")


def _load_or_run_mesh(args, baseline: dict) -> dict:
    if args.fresh_mesh:
        return _load_fresh(args.fresh_mesh)
    from bench_mesh import QUICK_CASES, run_bench

    cases = tuple(sorted(c["nx"] for c in baseline.get("cases", [])))
    if args.quick:
        cases = tuple(nx for nx in cases if nx in QUICK_CASES) \
            or QUICK_CASES
    return run_bench(cases, recovery=bool(baseline.get("recovery")),
                     out="")


def _load_or_run_planbuild(args, baseline: dict) -> dict:
    if args.fresh_planbuild:
        return _load_fresh(args.fresh_planbuild)
    from bench_planbuild import QUICK_CASES, run_bench

    cases = tuple(sorted(c["nx"] for c in baseline.get("cases", [])))
    if args.quick:
        cases = tuple(nx for nx in cases if nx in QUICK_CASES) \
            or QUICK_CASES
    return run_bench(cases, large=not args.quick and
                     bool(baseline.get("large")), out="")


def _load_or_run_planstore(args, baseline: dict) -> dict:
    if args.fresh_planstore:
        return _load_fresh(args.fresh_planstore)
    from bench_planstore import QUICK_CASES, run_bench

    cases = tuple(sorted(c["nx"] for c in baseline.get("cases", [])))
    if args.quick:
        cases = tuple(nx for nx in cases if nx in QUICK_CASES) \
            or QUICK_CASES
    return run_bench(cases, warm=bool(baseline.get("warm_restart")),
                     out="")


def _load_or_run_obs(args, baseline: dict) -> dict:
    if args.fresh_obs:
        return _load_fresh(args.fresh_obs)
    from bench_obs import QUICK_REPEATS, QUICK_SWEEPS, run_bench

    parts = tuple(sorted(c["n_parts"] for c in baseline.get("cases", [])))
    kwargs = {"sweeps": QUICK_SWEEPS, "repeats": QUICK_REPEATS} \
        if args.quick else {}
    return run_bench(parts or (64, 256), out="", **kwargs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--plan-baseline", default=DEFAULT_PLAN_BASELINE)
    ap.add_argument("--multiproc-baseline",
                    default=DEFAULT_MULTIPROC_BASELINE)
    ap.add_argument("--net-baseline", default=DEFAULT_NET_BASELINE)
    ap.add_argument("--mesh-baseline", default=DEFAULT_MESH_BASELINE)
    ap.add_argument("--planbuild-baseline",
                    default=DEFAULT_PLANBUILD_BASELINE)
    ap.add_argument("--planstore-baseline",
                    default=DEFAULT_PLANSTORE_BASELINE)
    ap.add_argument("--obs-baseline", default=DEFAULT_OBS_BASELINE)
    ap.add_argument("--fresh", default=None,
                    help="pre-computed fresh kernel JSON; omit to re-run")
    ap.add_argument("--fresh-plan", default=None,
                    help="pre-computed fresh plan JSON; omit to re-run")
    ap.add_argument("--fresh-multiproc", default=None,
                    help="pre-computed fresh multiproc JSON; omit to "
                    "re-run")
    ap.add_argument("--fresh-net", default=None,
                    help="pre-computed fresh net JSON; omit to re-run")
    ap.add_argument("--fresh-mesh", default=None,
                    help="pre-computed fresh mesh JSON; omit to re-run")
    ap.add_argument("--fresh-planbuild", default=None,
                    help="pre-computed fresh planbuild JSON; omit to "
                    "re-run")
    ap.add_argument("--fresh-planstore", default=None,
                    help="pre-computed fresh planstore JSON; omit to "
                    "re-run")
    ap.add_argument("--fresh-obs", default=None,
                    help="pre-computed fresh obs-overhead JSON; omit "
                    "to re-run")
    ap.add_argument("--skip-plan", action="store_true",
                    help="skip the plan baseline")
    ap.add_argument("--skip-kernel", action="store_true",
                    help="skip the kernel baseline")
    ap.add_argument("--skip-multiproc", action="store_true",
                    help="skip the multiproc baseline")
    ap.add_argument("--skip-net", action="store_true",
                    help="skip the net-transport baseline")
    ap.add_argument("--skip-mesh", action="store_true",
                    help="skip the worker-mesh baseline")
    ap.add_argument("--skip-planbuild", action="store_true",
                    help="skip the plan-construction baseline")
    ap.add_argument("--skip-planstore", action="store_true",
                    help="skip the persistent-plan-store baseline")
    ap.add_argument("--skip-obs", action="store_true",
                    help="skip the telemetry-overhead baseline")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative regression (default 0.20)")
    ap.add_argument("--plan-tolerance", type=float, default=0.50,
                    help="allowed relative regression for the plan "
                    "bench's setup-speedup ratios (noisier; default "
                    "0.50)")
    ap.add_argument("--multiproc-tolerance", type=float, default=0.50,
                    help="allowed relative regression for the "
                    "multiproc bench's wall-clock speedups (scheduler-"
                    "noisy on small cases; the absolute 1.5x floor is "
                    "the hard backstop; default 0.50)")
    ap.add_argument("--net-tolerance", type=float, default=0.50,
                    help="allowed relative regression for the net "
                    "bench's mesh-vs-shm warm-solve ratio (scheduler-"
                    "noisy; the baseline's ratio_floor is the hard "
                    "backstop; default 0.50)")
    ap.add_argument("--planbuild-tolerance", type=float, default=0.50,
                    help="allowed relative regression for the "
                    "planbuild bench's dense-vs-sparse build speedups "
                    "(the absolute 3x floor at nx=320 is the hard "
                    "backstop; default 0.50)")
    ap.add_argument("--planstore-tolerance", type=float, default=0.50,
                    help="allowed relative regression for the "
                    "planstore bench's mmap-load-vs-rebuild speedups "
                    "(I/O-noisy; the absolute 10x floor at nx=320 is "
                    "the hard backstop; default 0.50)")
    ap.add_argument("--strict-time", action="store_true",
                    help="also fail on absolute fleet sweep times "
                    "(machine-dependent; off by default)")
    ap.add_argument("--quick", action="store_true",
                    help="re-run with fewer sweeps/repeats")
    ap.add_argument("--json-report", default=None, metavar="PATH",
                    help="write a machine-readable pass/fail + measured-"
                    "speedup report (written on every outcome)")
    args = ap.parse_args(argv)

    problems: list[str] = []
    warnings: list[str] = []
    checked: list[str] = []
    fresh: dict = {}
    plan_fresh: dict = {}
    multiproc_fresh: dict = {}
    net_fresh: dict = {}
    mesh_fresh: dict = {}
    planbuild_fresh: dict = {}
    planstore_fresh: dict = {}
    obs_fresh: dict = {}

    def report(code: int, error: str = "") -> int:
        if args.json_report:
            _write_report(args.json_report, exit_code=code,
                          problems=problems, warnings=warnings,
                          checked=checked, args=args,
                          kernel_fresh=fresh, plan_fresh=plan_fresh,
                          multiproc_fresh=multiproc_fresh,
                          net_fresh=net_fresh, mesh_fresh=mesh_fresh,
                          planbuild_fresh=planbuild_fresh,
                          planstore_fresh=planstore_fresh,
                          obs_fresh=obs_fresh,
                          error=error)
        return code

    try:
        if not args.skip_kernel:
            baseline = _require_baseline(args.baseline)
            fresh = _load_or_run_kernel(args, baseline)
            p, w = compare(baseline, fresh, args.tolerance,
                           strict_time=args.strict_time)
            problems += p
            warnings += w
            checked.append(os.path.relpath(args.baseline, _ROOT))

        if not args.skip_plan:
            plan_baseline = _require_baseline(args.plan_baseline)
            plan_fresh = _load_or_run_plan(args, plan_baseline)
            problems += compare_plan(plan_baseline, plan_fresh,
                                     args.plan_tolerance)
            checked.append(os.path.relpath(args.plan_baseline, _ROOT))

        if not args.skip_multiproc:
            mp_baseline = _require_baseline(args.multiproc_baseline)
            multiproc_fresh = _load_or_run_multiproc(args, mp_baseline)
            p, w = compare_multiproc(mp_baseline, multiproc_fresh,
                                     args.multiproc_tolerance,
                                     require_all=not args.quick)
            problems += p
            warnings += w
            checked.append(os.path.relpath(args.multiproc_baseline,
                                           _ROOT))

        if not args.skip_net:
            net_baseline = _require_baseline(args.net_baseline)
            net_fresh = _load_or_run_net(args, net_baseline)
            p, w = compare_net(net_baseline, net_fresh,
                               args.net_tolerance,
                               require_all=not args.quick)
            problems += p
            warnings += w
            checked.append(os.path.relpath(args.net_baseline, _ROOT))

        if not args.skip_mesh:
            mesh_baseline = _require_baseline(args.mesh_baseline)
            mesh_fresh = _load_or_run_mesh(args, mesh_baseline)
            p, w = compare_mesh(mesh_baseline, mesh_fresh,
                                require_all=not args.quick)
            problems += p
            warnings += w
            checked.append(os.path.relpath(args.mesh_baseline, _ROOT))

        if not args.skip_planbuild:
            pb_baseline = _require_baseline(args.planbuild_baseline)
            planbuild_fresh = _load_or_run_planbuild(args, pb_baseline)
            p, w = compare_planbuild(pb_baseline, planbuild_fresh,
                                     args.planbuild_tolerance,
                                     require_all=not args.quick)
            problems += p
            warnings += w
            checked.append(os.path.relpath(args.planbuild_baseline,
                                           _ROOT))

        if not args.skip_planstore:
            ps_baseline = _require_baseline(args.planstore_baseline)
            planstore_fresh = _load_or_run_planstore(args, ps_baseline)
            p, w = compare_planstore(ps_baseline, planstore_fresh,
                                     args.planstore_tolerance,
                                     require_all=not args.quick)
            problems += p
            warnings += w
            checked.append(os.path.relpath(args.planstore_baseline,
                                           _ROOT))

        if not args.skip_obs:
            obs_baseline = _require_baseline(args.obs_baseline)
            obs_fresh = _load_or_run_obs(args, obs_baseline)
            p, w = compare_obs(obs_baseline, obs_fresh,
                               require_all=not args.quick)
            problems += p
            warnings += w
            checked.append(os.path.relpath(args.obs_baseline, _ROOT))
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
    print(f"bench OK: within {args.tolerance:.0%} of "
          f"{' and '.join(checked) if checked else 'nothing (all skipped)'}")
    return report(0)


if __name__ == "__main__":
    raise SystemExit(main())
