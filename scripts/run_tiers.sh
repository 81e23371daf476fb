#!/usr/bin/env bash
# One-command verify recipe for this repo (see .claude/skills/verify).
#
#   tier 1 — the full pytest suite (correctness; ~6 min)
#   tier 2 — benchmark smoke tests + the regression gate against the
#            committed benchmarks/BENCH_*.json baselines (a missing
#            baseline file is a hard failure, never a silent skip)
#
# Usage:
#   scripts/run_tiers.sh            # both tiers
#   scripts/run_tiers.sh 1          # tier-1 only
#   scripts/run_tiers.sh 2          # tier-2 only
#   QUICK=1 scripts/run_tiers.sh 2  # tier-2 with reduced sweep counts
#   BENCH_JSON=report.json scripts/run_tiers.sh 2
#                                   # also write the machine-readable
#                                   # bench report (CI artifact)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

TIER="${1:-all}"

run_tier1() {
    echo "== tier 1: pytest =="
    python -m pytest -x -q
}

run_tier2() {
    echo "== tier 2: benchmark smoke =="
    python -m pytest benchmarks/bench_smoke.py -q
    echo "== tier 2: regression gate =="
    local gate_args=()
    [ "${QUICK:-0}" = "1" ] && gate_args+=(--quick)
    [ -n "${BENCH_JSON:-}" ] && gate_args+=(--json-report "$BENCH_JSON")
    # ${arr[@]+...} keeps `set -u` happy on bash < 4.4 when no args
    python scripts/check_bench.py ${gate_args[@]+"${gate_args[@]}"}
}

case "$TIER" in
    1) run_tier1 ;;
    2) run_tier2 ;;
    all) run_tier1 && run_tier2 ;;
    *) echo "usage: $0 [1|2|all]" >&2; exit 2 ;;
esac
echo "tiers OK"
