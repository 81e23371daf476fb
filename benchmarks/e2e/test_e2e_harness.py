"""Unit tests of the benchmark's own machinery (no process is spawned)."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402


# -- the percentile rule ------------------------------------------------
@pytest.mark.parametrize("n_samples, expected", [
    (5, 50), (19, 50), (20, 50), (47, 78), (100, 90), (101, 90),
    (800, 98), (1000, 99), (100000, 99)])
def test_highest_percentile_keeps_ten_samples_beyond(n_samples, expected):
    p = harness.highest_percentile(n_samples)
    assert p == expected
    if n_samples >= 20:
        assert n_samples * (100 - p) / 100 >= harness.MIN_SAMPLES_BEYOND
        # one percentile higher would leave fewer than ten beyond it
        assert p == 99 or n_samples * (99 - p) / 100 < 10


def _tally_of(n_samples):
    tally = workloads.Tally()
    for i in range(n_samples):
        tally.record(0.001 * (i + 1), True)
    return tally


def test_p90_is_omitted_where_the_measured_sample_count_forbids_it():
    # the counted workloads time 20 operations: the median is all the
    # rule allows, and the 90th percentile is left out, not filled in
    twenty = workloads.end_to_end_metrics(_tally_of(20), 2.0, 100.0)
    assert twenty["solve_ms_p90"] is None
    assert twenty["solve_ms_p50"] == pytest.approx(10.5)
    assert workloads.end_to_end_metrics(
        _tally_of(99), 2.0, 100.0)["solve_ms_p90"] is None
    hundred = workloads.end_to_end_metrics(_tally_of(100), 2.0, 100.0)
    assert hundred["solve_ms_p90"] == pytest.approx(90.1)
    assert hundred["solves_per_s"] == pytest.approx(100 / 5.05)
    assert (hundred["setup_s"], hundred["peak_rss_mb"],
            hundred["failed_frac"]) == (2.0, 100.0, 0.0)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, q2, q3 = harness.quartiles(values)
    assert (q1, q2, q3) == (1.5, 3.0, 5.0)
    assert harness.quartiles([7.0]) == (7.0, 7.0, 7.0)


# -- the A/A comparator -------------------------------------------------
SPECS = {
    "solve_ms_p50": {"better": "lower", "bound": 0.08},
    "solves_per_s": {"better": "higher", "bound": 0.08},
    "failed_frac": {"better": "lower", "bound": 0},
}


def _verdicts(a, b):
    return {(r["workload"], r["metric"]): r["ok"]
            for r in harness.compare_sets(a, b, SPECS)}


def test_compare_sets_within_and_beyond_the_bound():
    a = {("w", "solve_ms_p50"): 100.0, ("w", "solves_per_s"): 50.0}
    ok = {("w", "solve_ms_p50"): 107.9, ("w", "solves_per_s"): 46.5}
    bad = {("w", "solve_ms_p50"): 108.1, ("w", "solves_per_s"): 45.9}
    assert all(_verdicts(a, ok).values())
    assert not any(_verdicts(a, bad).values())
    # identical code has no "before": the verdict is symmetric
    assert _verdicts(ok, a) == _verdicts(a, ok)
    assert _verdicts(bad, a) == _verdicts(a, bad)


def test_compare_sets_reports_both_bases():
    (row,) = harness.compare_sets({("w", "solve_ms_p50"): 100.0},
                                  {("w", "solve_ms_p50"): 104.0}, SPECS)
    assert (row["a"], row["b"], row["bound"]) == (100.0, 104.0, 0.08)
    assert row["diff"] == pytest.approx(0.04)


def test_failed_frac_bound_is_absolute_zero():
    zero = {("w", "failed_frac"): 0.0}
    tiny = {("w", "failed_frac"): 1e-4}
    assert _verdicts(zero, zero) == {("w", "failed_frac"): True}
    assert _verdicts(zero, tiny) == {("w", "failed_frac"): False}
    assert _verdicts(tiny, zero) == {("w", "failed_frac"): False}


def test_worsening_direction():
    assert harness.worsening(100.0, 110.0, "lower") == pytest.approx(0.1)
    assert harness.worsening(100.0, 90.0, "lower") == pytest.approx(-0.1)
    assert harness.worsening(100.0, 90.0, "higher") == pytest.approx(0.1)


# -- the independent residual check -------------------------------------
def _hand_built():
    # [[4,-1,0],[-1,4,-1],[0,-1,4]] x = b with x = (1, 2, 3)
    a = harness.Csr(
        np.array([4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0]),
        np.array([0, 1, 0, 1, 2, 1, 2], dtype=np.int64),
        np.array([0, 2, 5, 7], dtype=np.int64))
    x = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 4.0, 10.0])
    return a, x, b


def test_residual_check_on_a_hand_built_system():
    a, x, b = _hand_built()
    assert np.array_equal(harness.csr_matvec(a, x), b)
    assert harness.relative_residual(a, x, b) == 0.0
    assert harness.residual_ok(a, x, b)
    off = x + np.array([0.0, 1e-5, 0.0])
    expected = np.linalg.norm([1e-5, -4e-5, 1e-5]) / np.linalg.norm(b)
    assert harness.relative_residual(a, off, b) == pytest.approx(
        expected, rel=1e-6)


def test_a_corrupted_answer_is_counted_as_a_failure():
    a, x, b = _hand_built()
    tally = workloads.Tally()
    tally.record(0.01, harness.residual_ok(a, x, b))
    corrupted = x.copy()
    corrupted[1] += 1e-4
    for answer, converged in ((corrupted, True), (x, False),
                              (x * np.nan, True), (x[:2], True)):
        tally.record(0.01, harness.residual_ok(a, answer, b, converged))
    assert (tally.attempted, tally.failed, len(tally.times)) == (5, 4, 1)
    assert tally.busy == pytest.approx(0.05)
    # within the stopping rule's tolerance is a pass, just beyond is not
    scale = np.linalg.norm(b) / 4.0  # A e_0 has norm sqrt(17) > 4
    assert harness.residual_ok(a, x + [0.9e-6 * scale / 1.04, 0, 0], b)
    assert not harness.residual_ok(a, x + [1.2e-6 * scale, 0, 0], b)


def test_hygiene_breaches_count_as_failures():
    tally = workloads.Tally()
    tally.fail("/dev/shm segments leaked: ['psm_x']")
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.notes


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_only_segments_the_run_mapped_are_its_leftovers():
    from multiprocessing import shared_memory

    me = os.getpid()
    assert me in harness.group_pids(os.getpgrp())
    assert harness.pid_alive(me)
    ours = shared_memory.SharedMemory(create=True, size=64)
    try:
        mapped = harness.shm_mapped([me])
        assert ours.name in mapped
        # a segment somebody else created meanwhile is in /dev/shm but
        # not in our maps: not ours to count (or to unlink)
        other = os.path.join("/dev/shm", f"e2e-test-foreign-{me}")
        with open(other, "wb") as fh:
            fh.write(b"\0" * 64)
        try:
            assert os.path.basename(other) in harness.shm_segments()
            assert os.path.basename(other) not in harness.shm_mapped([me])
            leaked = workloads.Tally()
            workloads.check_leftovers(leaked, [], mapped)
            assert leaked.failed == 1 and ours.name in leaked.notes[0]
            assert os.path.basename(other) not in leaked.notes[0]
        finally:
            os.unlink(other)
    finally:
        ours.close()
        ours.unlink()
    clean = workloads.Tally()
    workloads.check_leftovers(clean, [], mapped)
    assert (clean.attempted, clean.failed) == (0, 0)


def test_rms_check_rejects_a_shifted_simulator_answer():
    a, x, b = _hand_built()

    class Result:
        converged = True

    Result.x = x + 5e-7
    assert workloads.sim_ok(a, Result, b)
    Result.x = x + 2e-6
    assert not workloads.sim_ok(a, Result, b)
    Result.x, Result.converged = x, False
    assert not workloads.sim_ok(a, Result, b)


# -- inputs -------------------------------------------------------------
def test_seed_gives_a_byte_identical_rhs_pool():
    first = harness.rhs_pool(2008, 123)
    assert first.shape == (harness.POOL_SIZE, 123)
    assert first.tobytes() == harness.rhs_pool(2008, 123).tobytes()
    assert first.tobytes() != harness.rhs_pool(2009, 123).tobytes()
    # a shorter pool is a prefix of a longer one
    assert np.array_equal(harness.rhs_pool(2008, 123, size=1)[0], first[0])


def test_poisson_csr_is_the_repo_workload_built_independently():
    from repro.workloads.poisson import grid2d_poisson

    nx = 6
    a = harness.poisson_csr(nx)
    dense = grid2d_poisson(nx).to_matrix().to_dense()
    rebuilt = np.zeros_like(dense)
    for row in range(a.n):
        cols = a.indices[a.indptr[row]:a.indptr[row + 1]]
        assert np.all(np.diff(cols) > 0)
        rebuilt[row, cols] = a.data[a.indptr[row]:a.indptr[row + 1]]
    assert np.array_equal(rebuilt, dense)
    x = np.random.default_rng(0).standard_normal(a.n)
    assert np.allclose(harness.csr_matvec(a, x), dense @ x,
                       rtol=0, atol=1e-12)


def test_cg_reference_solves_the_system():
    a = harness.poisson_csr(8)
    b = harness.rhs_pool(3, a.n, size=1)[0]
    x = harness.cg_reference(a, b)
    assert harness.relative_residual(a, x, b) < 1e-12


# -- the contract with the driver ---------------------------------------
def test_benchmark_json_and_code_name_the_same_things():
    bench = harness.load_benchmark_json()
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)
    assert bench["paths"] == ["benchmarks/e2e"]


def test_six_end_to_end_metrics_four_of_them_gated_by_the_driver():
    specs = harness.metric_specs()
    gated = [m["name"] for m in harness.load_benchmark_json()["end_to_end"]]
    assert gated == ["solve_ms_p50", "solves_per_s", "setup_s",
                     "peak_rss_mb"]
    # what the driver's contract cannot hold is the suite's to print
    assert list(specs) == gated + ["solve_ms_p90", "failed_frac"]
    assert (specs["setup_s"]["unit"], specs["setup_s"]["better"]) \
        == ("s", "lower")
    # the driver's ceiling; set-up has the largest; a failure is absolute
    assert all(m["bound"] <= 0.25 for m in specs.values())
    assert specs["setup_s"]["bound"] == max(
        m["bound"] for m in specs.values())
    assert specs["solve_ms_p90"]["bound"] == specs["solve_ms_p50"]["bound"]
    assert specs["peak_rss_mb"]["bound"] == 0.05
    assert specs["failed_frac"]["bound"] == 0


def test_every_per_layer_metric_names_what_it_should_move():
    import ledger

    bench = harness.load_benchmark_json()
    assert [m["name"] for m in bench["per_layer"]] == list(ledger.MOVES)
    end_to_end = set(harness.metric_specs(bench))
    for name, moves in ledger.MOVES.items():
        for part in (moves or "").split(", "):
            assert part == "" or part.split(" on ")[0] in end_to_end, name
            if " on " in part:
                assert part.split(" on ")[1] in workloads.WORKLOADS


def test_result_line_has_exactly_the_contract_keys():
    line = harness.result_line(True, 12, 0, {"setup_s": 1.25},
                               {"setup_s": "s"})
    assert json.loads(line) == {
        "correct": True, "attempted": 12, "failed": 0,
        "metrics": {"setup_s": {"value": 1.25, "unit": "s"}}}
