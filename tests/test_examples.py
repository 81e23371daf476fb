"""The examples, run the way their docstrings say to.

Each example is a self-contained script run in a fresh interpreter; it
must exit cleanly.  The serving examples read their closing counters
off the metric registry and must report the solves they served; the
simulator examples are deterministic and must end on the line their
run always prints.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_example(script):
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize(
    "script, solves",
    [("serve_demo.py", 5), ("remote_client.py", 4)],
)
def test_serving_example_reports_its_solves(script, solves):
    proc = run_example(script)
    served = [
        line
        for line in proc.stdout.splitlines()
        if line.startswith("served ")
    ]
    assert served, proc.stdout
    assert served[-1].startswith(f"served {solves} solves, "), proc.stdout


@pytest.mark.parametrize(
    "script, last_line",
    [
        ("heterogeneous_delays.py",
         "lockstep fraction (shared solve instants): 0.017 -> fully "
         "asynchronous"),
        ("hybrid_sync_async.py",
         "against wall-clock, which is exactly the trade-off the paper "
         "anticipates."),
        ("impedance_tuning.py",
         "-> the U-shape of paper Fig 9: careful impedance choice speeds "
         "up DTM."),
        ("poisson_cluster.py", "+" + "-" * 60),
    ],
)
def test_simulator_example_ends_on_its_last_line(script, last_line):
    proc = run_example(script)
    assert proc.stdout.splitlines()[-1] == last_line, proc.stdout
