"""The serving examples, run the way their docstrings say to.

Each example is a self-contained script that reads its closing
counters off the metric registry; here each one runs in a fresh
interpreter and must exit cleanly and report the solves it served.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, solves",
    [("serve_demo.py", 5), ("remote_client.py", 4)],
)
def test_serving_example_reports_its_solves(script, solves):
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
    served = [
        line
        for line in proc.stdout.splitlines()
        if line.startswith("served ")
    ]
    assert served, proc.stdout
    assert served[-1].startswith(f"served {solves} solves, "), proc.stdout
