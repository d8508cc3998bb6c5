#!/bin/sh
# Perf-regression gate: run the quick perf bench (same code paths as the
# full run, reduced repetitions), then gate the fresh numbers against
# the *rolling median* of recent runs recorded in BENCH_history.jsonl —
# one noisy datapoint can neither fail the gate by itself nor poison
# the baseline for later runs.
#
# Fails when:
#   - any outputs_identical check in the fresh BENCH_psaflow.json is
#     false (an engine, the optimized VM or the cached flow diverged
#     from the reference bytes), or
#   - interp.bytecode.mcycles_per_s fell below 70% of the rolling
#     median of the last K comparable (quick-scale, other-commit)
#     history entries (K = PSAFLOW_HISTORY_K, default 5, min 3).
#
# No wall-time gate covers the daemon or the stage memo.  Tier-1 pins
# their counts exactly (test_service, "mixed traffic through the
# daemon: exact counts"; test_memo, "variant schedule: exact per-stage
# counts"), and perfbench's service_mix and variant_sweep workloads
# measure them end to end.
#
# Fewer than 3 comparable history entries skips that metric's check
# with a notice — a young history cannot block a merge.  After gating,
# the fresh numbers are appended to the history as one commit-keyed
# datapoint, so every CI run grows the baseline.
#
# Run from anywhere; operates on the repo this script lives in.
set -eu

cd "$(dirname "$0")/.."

dune exec bench/main.exe -- perf --quick

if grep -q '"outputs_identical": false' BENCH_psaflow.json; then
  echo "FAIL: perf bench reports non-identical outputs"; exit 1
fi
grep -q '"outputs_identical": true' BENCH_psaflow.json \
  || { echo "FAIL: perf bench reports no output-identity checks"; exit 1; }

# Rolling-median regression gate (exit 1 on any GATE FAIL line).
dune exec bench/main.exe -- gate-history --quick

# Record this run for future gates.
dune exec bench/main.exe -- history-append --quick

echo "perf gate: outputs identical, no regression vs rolling median"
