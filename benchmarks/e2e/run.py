"""End-to-end benchmark: client-observed time to solution.

    python3 benchmarks/e2e/run.py                      the five workloads
    python3 benchmarks/e2e/run.py --workload NAME      one workload
    python3 benchmarks/e2e/run.py --trace 1            the per-layer ledger
    python3 benchmarks/e2e/run.py --aa 2               A/A: two sets agree?

With ``--workload`` the last line of output is the one JSON object the
driver reads (see BENCHMARK.json at the repository root).  The run
itself happens in a child of this script; this process only supervises
it: it adopts every process the run leaves behind and does not exit
before each has ended and been reaped.  Without ``--workload``, each
workload runs in a fresh process of this same script, in a fixed order.
README.md beside this file has the tables.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

#: ``setup_s`` counts from here: before numpy, the harness and the
#: program are imported (the supervisor hands its reading to the run)
STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")

DEFAULT_SEED = 2008

#: a workload run that takes longer than this is a hang: stacks are
#: dumped and it exits 3 (the driver's own cap is 180 s, and the
#: supervisor may need ORPHAN_GRACE_S after the run)
RUN_TIMEOUT_S = 160.0

#: how long the processes a finished run left behind may take to end on
#: their own before the supervisor kills them
ORPHAN_GRACE_S = 10.0

#: suite passes per A/A set; pass r of every set uses seed + r, and a
#: set's value is the median over its passes
AA_RUNS_PER_SET = 3


def _units(bench: dict, trace: bool) -> dict:
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


# ----------------------------------------------------------------------
# one workload: a supervisor, and the run in its child
# ----------------------------------------------------------------------
def _children() -> list:
    """Pids whose parent is this process, zombies included."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            if ppid == os.getpid():
                found.append(int(entry))
    return found


def _end_children(grace: float) -> bool:
    """Reap every child of this process, waiting up to *grace* seconds
    for them to end by themselves and killing them after that; True if
    any had to be killed.  Killing a parent hands its children to this
    process, so the killing goes round until there is none."""
    deadline = time.monotonic() + grace
    killed = False
    while True:
        patient = time.monotonic() < deadline
        if not patient:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed = True
                except ProcessLookupError:
                    pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG if patient else 0)
        except ChildProcessError:
            return killed
        if pid == 0:
            time.sleep(0.02)


def supervise(argv: list) -> int:
    """Run the workload in a child and leave no process behind.

    A served run starts a host, the host spawns workers, and Python
    gives every spawning process a ``resource_tracker`` helper that
    nobody waits for; where init does not reap, such an orphan stays in
    the process table for good.  So this process makes itself the
    subreaper: every orphaned descendant becomes its child, and it
    returns only when it has no child left.  That holds on every way
    out of the run: result, exception, watchdog exit, crash.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2e: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    # a polite kill takes the run down with the supervisor
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv,
         "--supervised", repr(STARTED)])
    try:
        while True:  # reaps orphans as they come, until the run ends
            pid, status = os.waitpid(-1, 0)
            if pid == run.pid:
                run.returncode = os.waitstatus_to_exitcode(status)
                break
    except BaseException:  # interrupted: end the run; its host quits
        # on its closed stdin and unlinks its shared memory, given time
        if run.returncode is None:
            os.kill(run.pid, signal.SIGKILL)
        _end_children(grace=5.0)
        raise
    if _end_children(ORPHAN_GRACE_S):
        print("e2e: killed processes the run left behind",
              file=sys.stderr)
        return run.returncode or 4
    return run.returncode


def run_one(args, bench: dict) -> int:
    started = float(args.supervised)
    sys.path.insert(0, SRC)
    import harness
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    watchdog = harness.arm_watchdog(RUN_TIMEOUT_S)
    context = harness.run_context(args.seed)
    try:
        if args.trace:
            import ledger

            tally, metrics, detail = ledger.trace(spec, args.seed)
            shown = units = _units(bench, True)
            notes = ledger.MOVES
        else:
            tally, metrics, detail = workloads.measure(
                spec, args.seed, float(args.seconds), started)
            units = _units(bench, False)
            shown = {name: m["unit"]
                     for name, m in harness.metric_specs(bench).items()}
            notes = {}
    finally:
        watchdog.cancel()
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"{spec.name}: metrics not measured: {missing}")
    detail["context"] = context
    # what the suite prints beyond the driver's line
    detail["suite_metrics"] = {name: metrics[name] for name in shown
                               if name not in units}
    for name, unit in shown.items():
        value = ("omitted" if metrics[name] is None
                 else f"{metrics[name]:14.4f} {unit}")
        moves = f"  -> {notes[name]}" if notes.get(name) else ""
        print(f"{spec.name:18s} {name:42s} {value:>14s}{moves}")
    for note in tally.notes:
        print(f"{spec.name}: FAILED CHECK: {note}", file=sys.stderr)
    print("DETAIL " + json.dumps(detail))
    print(harness.result_line(
        tally.failed == 0, tally.attempted, tally.failed,
        {name: metrics[name] for name in units}, units))
    return 0


# ----------------------------------------------------------------------
# the suite: every workload in its own fresh process
# ----------------------------------------------------------------------
def _spawn_workload(name: str, seed: int, seconds: int,
                    trace: int) -> tuple:
    """Returns ``(result, detail)`` of one child run; raises on a bad
    exit.  The child leads its own session so a timeout can kill it
    and the run it supervises (a host then ends on its closed stdin)."""
    argv = [sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(
            timeout=RUN_TIMEOUT_S + ORPHAN_GRACE_S + 20)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, 9)
        child.wait()
        raise RuntimeError(f"{name}: run timed out and was killed")
    if child.returncode != 0:
        raise RuntimeError(f"{name}: run exited with {child.returncode}")
    lines = out.strip().splitlines()
    detail = next(json.loads(ln[7:]) for ln in reversed(lines)
                  if ln.startswith("DETAIL "))
    return json.loads(lines[-1]), detail


def run_suite(args, bench: dict) -> dict:
    """One pass over the workloads; returns ``{(workload, metric): v}``
    (a metric a workload omits is absent)."""
    import harness

    if args.trace:
        section = bench["per_layer"]
    else:
        section = list(harness.metric_specs(bench).values())
    values: dict = {}
    for i, wl in enumerate(bench["workloads"]):
        name = wl["name"]
        result, detail = _spawn_workload(
            name, args.seed, args.seconds, args.trace)
        if i == 0:
            print("context: " + ", ".join(
                f"{k}={v}" for k, v in detail["context"].items()))
        print(f"\n{name}: attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
        if "samples" in detail:
            s = detail["samples"]
            print(f"  timed samples: n={s['n']} median={s['median']:.3f} ms"
                  f" quartiles=[{s['q1']:.3f}, {s['q3']:.3f}] "
                  f"(highest percentile with 10 samples beyond it: "
                  f"p{detail['rule_percentile']})")
        for m in section:
            if m["name"] in result["metrics"]:
                value = result["metrics"][m["name"]]["value"]
            else:
                value = detail["suite_metrics"][m["name"]]
            base = detail.get("bases", {}).get(m["name"])
            if value is None:
                print(f"  {m['name']:42s} {'omitted':>14s}")
                continue
            values[(name, m["name"])] = value
            print(f"  {m['name']:42s} {value:14.4f} {m['unit']:10s}"
                  + (f" [{base}]" if base else ""))
    return values


# ----------------------------------------------------------------------
# A/A: do sets of runs of the same code agree?
# ----------------------------------------------------------------------
def run_aa(args, bench: dict) -> int:
    import harness

    specs = harness.metric_specs(bench)
    sets = []
    for s in range(args.aa):
        runs = []
        for r in range(AA_RUNS_PER_SET):
            print(f"\n=== A/A set {s + 1}/{args.aa}, "
                  f"pass {r + 1}/{AA_RUNS_PER_SET} ===")
            one = argparse.Namespace(**vars(args))
            one.seed = args.seed + r
            runs.append(run_suite(one, bench))
        # a metric a pass omitted (p90 below 100 samples) is compared
        # only if every pass of the set reported it
        sets.append({key: statistics.median(run[key] for run in runs)
                     for key in runs[0] if all(key in run for run in runs)})
    all_ok = True
    print("\nA/A comparison (set medians; diff is the share of the "
          "better set's median by which the other is worse)")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            for row in harness.compare_sets(sets[i], sets[j], specs):
                verdict = "ok" if row["ok"] else "EXCEEDS BOUND"
                all_ok &= row["ok"]
                print(f"  set{i + 1} vs set{j + 1} "
                      f"{row['workload']:18s} {row['metric']:14s} "
                      f"{row['a']:12.4f} vs {row['b']:12.4f} "
                      f"diff={row['diff']:.4f} bound={row['bound']} "
                      f"{verdict}")
    print("A/A: " + ("sets agree within every bound" if all_ok
                     else "at least one pair exceeds its bound"))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, nargs="?", const=2, default=0,
                        metavar="N", help="run N sets (default 2) and "
                        "compare their medians against the bounds")
    # set by supervise(): this process is the run, and the value is the
    # supervisor's clock reading at its launch
    parser.add_argument("--supervised", default=None,
                        help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.workload:
        if args.supervised is None:
            return supervise(argv)
        return run_one(args, bench)
    if args.aa:
        if args.trace:
            parser.error("--aa compares the end-to-end metrics; "
                         "drop --trace")
        return run_aa(args, bench)
    values = run_suite(args, bench)
    return 0 if all(v == 0 for (_, m), v in values.items()
                    if m == "failed_frac") else 1


if __name__ == "__main__":
    sys.exit(main())
