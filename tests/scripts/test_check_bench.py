"""``scripts/check_bench.py`` on pure JSON — no bench is run.

Every committed ``BENCH_*.json`` is compared with itself and with a
list of single mutations of itself.  The expected verdicts
``(exit code, problems, warnings)`` were recorded by running the
eight-``compare_*`` script this table replaced (PR 15's
``scripts/check_bench.py``) on the same inputs; `MISSING_METRIC` lists
the one deliberate difference, with the old behaviour alongside.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH_DIR = os.path.join(ROOT, "benchmarks")

_spec = importlib.util.spec_from_file_location(
    "check_bench", os.path.join(ROOT, "scripts", "check_bench.py"))
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)

GATES = ("kernel", "plan", "multiproc", "net", "mesh", "planbuild",
         "planstore", "obs")


def baseline(gate: str) -> dict:
    with open(os.path.join(BENCH_DIR, f"BENCH_{gate}.json")) as fh:
        return json.load(fh)


def mutate(record: dict, op: str, path: str, arg=None) -> dict:
    """``scale``/``set``/``del`` the leaf of a dotted *path*; ``*``
    fans out over a list, a number indexes it."""
    record = copy.deepcopy(record)
    *parents, leaf = path.split(".")
    nodes = [record]
    for p in parents:
        nodes = [child for n in nodes for child in (
            n if p == "*" else [n[int(p)] if isinstance(n, list) else n[p]])]
    for n in nodes:
        key = int(leaf) if isinstance(n, list) else leaf
        if op == "del":
            del n[key]
        elif op == "set":
            n[key] = arg
        else:
            n[key] *= arg
    return record


def run(tmp_path, gate: str, record: dict, *extra: str):
    """Gate *record* alone: ``(exit code, the JSON report)``."""
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(record))
    report = tmp_path / "report.json"
    code = check_bench.main(["--only", gate, "--fresh", f"{gate}={fresh}",
                             "--json-report", str(report), *extra])
    return code, json.loads(report.read_text())


Q = ("--quick",)

#: (gate, op, path, arg, quick, verdict recorded from the parent script,
#:  diagnostic of the parent's message that must survive)
MUTATIONS = [
    # kernel: 20% drop, advisory sweep time, no quick downgrade
    ("kernel", "scale", "cases.*.speedup", 0.5, (), (1, 3, 0), "20%"),
    ("kernel", "scale", "cases.*.speedup", 0.81, (), (0, 0, 0), ""),
    ("kernel", "scale", "speedup_at_256", 0.5, (), (1, 1, 0), "20%"),
    ("kernel", "scale", "cases.*.fleet_sweep_s", 1.5, (), (0, 0, 3),
     "machine-dependent"),
    ("kernel", "del", "cases.0", None, (), (1, 1, 0), "missing"),
    ("kernel", "del", "cases.0", None, Q, (1, 1, 0), "missing"),
    ("kernel", "set", "cases", [], (), (1, 3, 0), "missing"),
    # plan: 50% drop (a halved ratio sits on the bound), 5x floor
    ("plan", "scale", "cases.*.speedup", 0.5, (), (0, 0, 0), ""),
    ("plan", "scale", "cases.*.speedup", 0.4, (), (1, 2, 0), "50%"),
    ("plan", "scale", "speedup_at_64", 0.5, (), (1, 1, 0),
     "5x amortization floor"),
    ("plan", "scale", "speedup_at_64", 0.4, (), (1, 2, 0), "50%"),
    ("plan", "del", "cases.0", None, (), (1, 1, 0), "missing"),
    ("plan", "del", "cases.0", None, Q, (1, 1, 0), "missing"),
    ("plan", "set", "cases", [], (), (1, 2, 0), "missing"),
    ("plan", "del", "speedup_at_64", None, (), (1, 1, 0),
     "lacks speedup_at_64"),
    # multiproc: 1.5x floor on every case + 50% drop
    ("multiproc", "scale", "cases.*.speedup_at_4", 0.5, (), (0, 0, 0), ""),
    ("multiproc", "scale", "cases.*.speedup_at_4", 0.4, (), (1, 2, 0),
     "50%"),
    ("multiproc", "set", "cases.0.speedup_at_4", 1.2, (), (1, 2, 0),
     "1.5 floor"),
    ("multiproc", "del", "cases.1", None, (), (1, 1, 0), "missing"),
    ("multiproc", "del", "cases.1", None, Q, (0, 0, 1), "missing"),
    ("multiproc", "set", "cases", [], (), (1, 1, 0), "no cases"),
    ("multiproc", "set", "cases", [], Q, (1, 1, 0), "no cases"),
    ("multiproc", "del", "cases.*.speedup_at_4", None, (), (1, 2, 0),
     "lacks speedup_at_4"),
    # net: ratio_floor (inclusive) + 50% drop
    ("net", "scale", "cases.*.mesh_vs_shm", 0.5, (), (1, 2, 0),
     "socket fabric regressed"),
    # (0.216 and 0.236 committed: x0.9 takes only nx=60 under the floor)
    ("net", "scale", "cases.*.mesh_vs_shm", 0.9, (), (1, 1, 0),
     "0.2 floor"),
    ("net", "set", "cases.*.mesh_vs_shm", 0.2, (), (0, 0, 0), ""),
    ("net", "del", "cases.1", None, (), (1, 1, 0), "missing"),
    ("net", "del", "cases.1", None, Q, (0, 0, 1), "missing"),
    ("net", "set", "cases", [], (), (1, 1, 0), "no cases"),
    ("net", "del", "cases.*.mesh_vs_shm", None, (), (1, 2, 0),
     "lacks mesh_vs_shm"),
    # mesh: fallback_ceiling (inclusive) + the recovery section, which
    # quick mode still runs and so still requires
    ("mesh", "set", "cases.*.fallback_share", 0.02, (), (1, 2, 0),
     "peer sockets are missing or flapping"),
    ("mesh", "set", "cases.*.fallback_share", 0.01, (), (0, 0, 0), ""),
    ("mesh", "set", "recovery.overhead", 10.5, (), (1, 1, 0),
     "a killed worker stalls the solve"),
    ("mesh", "set", "recovery.n_recoveries", 0, (), (1, 1, 0),
     "the scripted kill never fired"),
    ("mesh", "set", "recovery.same_decision", False, (), (1, 1, 0),
     "different stopping decision"),
    ("mesh", "del", "recovery", None, (), (1, 1, 0), "missing"),
    ("mesh", "del", "recovery", None, Q, (1, 1, 0), "missing"),
    ("mesh", "del", "recovery.overhead", None, (), (1, 1, 0),
     "lacks overhead"),
    ("mesh", "del", "recovery.n_recoveries", None, (), (1, 1, 0), ""),
    ("mesh", "del", "recovery.same_decision", None, (), (1, 1, 0), ""),
    ("mesh", "del", "cases.1", None, (), (1, 1, 0), "missing"),
    ("mesh", "del", "cases.1", None, Q, (0, 0, 1), "missing"),
    ("mesh", "set", "cases", [], (), (1, 1, 0), "no cases"),
    ("mesh", "del", "cases.*.fallback_share", None, (), (1, 2, 0),
     "lacks fallback_share"),
    # planbuild: 2x floor (inclusive) at nx=320 only, 50% drop, the
    # large section's 2x scaling ceiling (which quick mode leaves out);
    # committed speedups 2.95 (nx=120) and 3.97 (nx=320)
    ("planbuild", "scale", "cases.*.speedup", 0.6, (), (0, 0, 0), ""),
    ("planbuild", "scale", "cases.*.speedup", 0.4, (), (1, 3, 0), "50%"),
    ("planbuild", "set", "cases.1.speedup", 2.0, (), (0, 0, 0), ""),
    ("planbuild", "set", "cases.1.speedup", 1.99, (), (1, 1, 0),
     "2 floor"),
    ("planbuild", "set", "cases.0.speedup", 1.6, (), (0, 0, 0), ""),
    ("planbuild", "set", "large.per_unknown_vs_320", 2.0, (), (0, 0, 0),
     ""),
    ("planbuild", "set", "large.per_unknown_vs_320", 2.1, (), (1, 1, 0),
     "no longer scales near-linearly"),
    ("planbuild", "del", "large", None, (), (1, 1, 0), "missing"),
    ("planbuild", "del", "large", None, Q, (0, 0, 1), "missing"),
    ("planbuild", "del", "large.per_unknown_vs_320", None, (), (1, 1, 0),
     "lacks per_unknown_vs_320"),
    ("planbuild", "del", "cases.1", None, (), (1, 1, 0), "missing"),
    ("planbuild", "del", "cases.1", None, Q, (0, 0, 1), "missing"),
    ("planbuild", "set", "cases", [], (), (1, 1, 0), "no cases"),
    ("planbuild", "del", "cases.*.speedup", None, (), (1, 2, 0),
     "lacks speedup"),
    # planstore: 10x floor at nx=320 only, 50% drop, bitwise flags, the
    # warm-restart section
    ("planstore", "scale", "cases.*.speedup", 0.5, (), (0, 0, 0), ""),
    ("planstore", "scale", "cases.*.speedup", 0.05, (), (1, 3, 0),
     "10 floor"),
    ("planstore", "set", "cases.*.bitwise_solve", False, (), (1, 2, 0),
     "no longer bitwise-identical to the built-plan solve"),
    ("planstore", "set", "warm_restart.restart_speedup", 1.0, (),
     (1, 1, 0), "no longer plan-ready faster than a cold replan"),
    ("planstore", "set", "warm_restart.n_disk_loads", 2, (), (1, 1, 0),
     "the server replanned"),
    ("planstore", "set", "warm_restart.bitwise_solve", False, (),
     (1, 1, 0), "no longer bitwise-identical to the pre-restart solve"),
    ("planstore", "del", "warm_restart", None, (), (1, 1, 0), "missing"),
    ("planstore", "del", "warm_restart", None, Q, (1, 1, 0), "missing"),
    ("planstore", "del", "warm_restart.restart_speedup", None, (),
     (1, 1, 0), "lacks restart_speedup"),
    ("planstore", "del", "warm_restart.n_disk_loads", None, (),
     (1, 1, 0), ""),
    ("planstore", "del", "warm_restart.bitwise_solve", None, (),
     (1, 1, 0), ""),
    ("planstore", "del", "cases.1", None, (), (1, 1, 0), "missing"),
    ("planstore", "del", "cases.1", None, Q, (0, 0, 1), "missing"),
    ("planstore", "set", "cases", [], (), (1, 1, 0), "no cases"),
    ("planstore", "del", "cases.*.speedup", None, (), (1, 2, 0),
     "lacks speedup"),
    ("planstore", "del", "cases.*.bitwise_solve", None, (), (1, 2, 0), ""),
    # obs: the ceiling (inclusive) gates the largest case only; a
    # smaller case over it warns, but lacking the metric still fails
    ("obs", "set", "cases.1.overhead_disabled_pct", 2.5, (), (1, 1, 0),
     "telemetry is no longer free when off"),
    ("obs", "set", "cases.0.overhead_disabled_pct", 2.5, (), (0, 0, 1),
     "telemetry is no longer free when off"),
    ("obs", "set", "cases.*.overhead_disabled_pct", 2.0, (), (0, 0, 0), ""),
    ("obs", "del", "cases.0", None, (), (1, 1, 0), "missing"),
    ("obs", "del", "cases.0", None, Q, (0, 0, 1), "missing"),
    ("obs", "del", "cases.1", None, (), (1, 1, 0), "missing"),
    ("obs", "set", "cases", [], (), (1, 1, 0), "no cases"),
    ("obs", "del", "cases.*.overhead_disabled_pct", None, (), (1, 2, 0),
     "lacks overhead_disabled_pct"),
]

#: the bugfix: a gated metric absent from the fresh record is a named
#: problem in every gate — (gate, path, what the parent did, verdict now)
MISSING_METRIC = [
    ("kernel", "cases.*.speedup", "KeyError traceback", (1, 3, 0)),
    ("kernel", "cases.*.fleet_sweep_s", "KeyError traceback", (1, 3, 0)),
    ("kernel", "speedup_at_256", "passed (0, 0, 0)", (1, 1, 0)),
    ("plan", "cases.*.speedup", "KeyError traceback", (1, 2, 0)),
]


def _id(row) -> str:
    gate, op, path, arg, quick = row[:5]
    return f"{gate}-{op}-{path}-{arg}{'-quick' if quick else ''}"


@pytest.mark.parametrize("gate", GATES)
def test_each_committed_baseline_passes_against_itself(tmp_path, gate):
    code, report = run(tmp_path, gate, baseline(gate))
    assert (code, report["problems"], report["warnings"]) == (0, [], [])
    assert report["checked"] == [f"benchmarks/BENCH_{gate}.json"]
    assert report["schema"] == "check_bench-report/9"
    assert report[gate]["record"] == baseline(gate)
    assert report[gate]["measured"]["cases"]


@pytest.mark.parametrize("row", MUTATIONS, ids=_id)
def test_mutation_verdict_matches_the_parent(tmp_path, row):
    gate, op, path, arg, quick, expected, why = row
    record = mutate(baseline(gate), op, path, arg)
    code, report = run(tmp_path, gate, record, *quick)
    messages = report["problems"] + report["warnings"]
    assert (code, len(report["problems"]),
            len(report["warnings"])) == expected, messages
    assert all(m.startswith(gate) for m in messages)
    assert not messages or any(why in m for m in messages)


@pytest.mark.parametrize("gate, path, parent, expected", MISSING_METRIC)
def test_a_missing_gated_metric_is_a_named_problem(tmp_path, gate, path,
                                                   parent, expected):
    record = mutate(baseline(gate), "del", path)
    code, report = run(tmp_path, gate, record)
    assert (code, len(report["problems"]),
            len(report["warnings"])) == expected
    metric = path.split(".")[-1]
    assert all(f"lacks {metric}" in p for p in report["problems"])


def test_all_gates_in_table_order(tmp_path):
    fresh = [f"{g}={BENCH_DIR}/BENCH_{g}.json" for g in GATES]
    report = tmp_path / "report.json"
    assert check_bench.main(["--fresh", *fresh,
                             "--json-report", str(report)]) == 0
    assert json.loads(report.read_text())["checked"] == [
        f"benchmarks/BENCH_{g}.json" for g in GATES]
    assert [g.name for g in check_bench.GATES] == list(GATES)


def _baseline_dir(tmp_path, gate, text):
    (tmp_path / "base").mkdir()
    if text is not None:
        (tmp_path / "base" / f"BENCH_{gate}.json").write_text(text)
    return ["--baseline-dir", str(tmp_path / "base")]


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("text, said", [
    (None, "is missing"),
    ('{"cases": []}', "has no cases"),
    ("{not json", "is unreadable"),
])
def test_missing_empty_or_unreadable_baseline_exits_2(
        tmp_path, capsys, gate, text, said):
    code, report = run(tmp_path, gate, baseline(gate),
                       *_baseline_dir(tmp_path, gate, text))
    err = capsys.readouterr().err
    assert code == 2 and report["exit_code"] == 2 and not report["pass"]
    assert said in err and report["error"] == err.strip()
    if text != "{not json":
        bench = next(g.bench for g in check_bench.GATES if g.name == gate)
        assert f"PYTHONPATH=src python benchmarks/{bench}.py" in err


@pytest.mark.parametrize("argv, said", [
    (["--only", "kernel", "--fresh", "kernel=/nonexistent.json"],
     "fresh result /nonexistent.json is missing"),
    (["--only", "kernal"], "kernal"),
    (["--fresh", "kernal=x.json"], "kernal"),
    (["--only", "kernel", "--fresh", "kernel"], "NAME=PATH"),
])
def test_usage_errors_exit_2_and_still_write_the_report(
        tmp_path, capsys, argv, said):
    report = tmp_path / "report.json"
    assert check_bench.main([*argv, "--json-report", str(report)]) == 2
    assert said in capsys.readouterr().err
    assert json.loads(report.read_text())["exit_code"] == 2


def test_report_is_written_on_pass_and_on_regression(tmp_path):
    code, report = run(tmp_path, "mesh", baseline("mesh"))
    assert (code, report["pass"], report["exit_code"]) == (0, True, 0)
    assert report["mesh"]["measured"]["recovery.overhead"] == \
        baseline("mesh")["recovery"]["overhead"]
    code, report = run(tmp_path, "mesh", mutate(
        baseline("mesh"), "set", "recovery.same_decision", False))
    assert (code, report["pass"], report["exit_code"]) == (1, False, 1)
    assert report["kernel"] == {"measured": {}, "record": {}}
