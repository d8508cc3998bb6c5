#!/bin/sh
# Repo health check: full build, full test suite, perf smoke, service smoke.
# Run from anywhere; operates on the repo this script lives in.
set -eu

cd "$(dirname "$0")/.."

echo "== knob guard (distinct PSAFLOW_* env knobs in lib/ bin/ bench/) =="
# Deleted knobs must not quietly come back: a new knob has to retire
# an old one or raise this ceiling in a reviewed change.
KNOBS=$(grep -rhoE 'PSAFLOW_[A-Z_]*' lib bin bench | sort -u | wc -l)
[ "$KNOBS" -le 13 ] \
  || { echo "FAIL: $KNOBS distinct PSAFLOW_* knobs (ceiling 13):"; \
       grep -rhoE 'PSAFLOW_[A-Z_]*' lib bin bench | sort -u; exit 1; }
echo "knobs=$KNOBS (ceiling 13)"

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== perf gate (perf --quick + svc-load --quick + regression check) =="
# Runs the quick perf bench and the quick svc-load daemon replay,
# checks every outputs_identical flag (including the service replay's
# byte-identity against direct execution) and fails when, against the
# rolling median of recent runs in BENCH_history.jsonl,
# interp.bytecode.mcycles_per_s drops below 0.7x,
# service.throughput_rps below 0.5x or service.p99_ms rises above 4x
# (then appends this run's numbers to the history).
sh scripts/perf_gate.sh

# The fused single-pass profile bounds the cold flow at one interpreter
# execution per (benchmark, workload point): the profiling size and the
# secondary size, 2 per benchmark, 10 across the five-benchmark
# evaluation.  A higher count means an analysis went back to running
# its own interpreter pass.
INTERP_RUNS=$(sed -n 's/.*"interp_runs": *\([0-9]*\).*/\1/p' BENCH_psaflow.json | head -n1)
[ -n "$INTERP_RUNS" ] \
  || { echo "FAIL: BENCH_psaflow.json reports no interp_runs"; exit 1; }
[ "$INTERP_RUNS" -le 10 ] \
  || { echo "FAIL: cold flow took $INTERP_RUNS interpreter runs (budget 10)"; exit 1; }
echo "interp_runs=$INTERP_RUNS (budget 10)"

echo "== VM allocation ceiling (minor words per virtual cycle) =="
# Every paper benchmark's tracked profiling run must allocate at most
# 0.05 minor-heap words per virtual cycle: a value boxed per loop
# iteration or per arithmetic result shows up here as a deterministic
# count, not as wall-time noise.
awk -v ceil=0.05 '
  /"[a-z_0-9]+": \{/ {
    match($0, /"[a-z_0-9]+"/)
    key = substr($0, RSTART + 1, RLENGTH - 2)
    if (key == "run") run = key; else bench = key
  }
  /"minor_words_per_cycle"/ {
    v = $2; sub(/,$/, "", v); n++
    if (v + 0 > ceil) {
      printf "FAIL: %s %s run allocates %s minor words per virtual cycle (ceiling %s)\n", bench, run, v, ceil
      bad = 1
    }
  }
  END {
    if (n != 5) {
      printf "FAIL: BENCH_psaflow.json reports %d minor_words_per_cycle values (want 5)\n", n
      exit 1
    }
    exit bad
  }' BENCH_psaflow.json
echo "minor words per virtual cycle <= 0.05 on all 5 benchmarks' profiling runs"

echo "== report smoke (psaflow report --json --strict) =="
# The freshly written BENCH_psaflow.json must satisfy the strict report:
# no missing/stale perf fields degraded to null.
_build/default/bin/psaflow.exe report --json --strict >/dev/null \
  || { echo "FAIL: report --json --strict rejected fresh perf data"; exit 1; }

echo "== trend smoke (psaflow report --trend) =="
# perf_gate.sh above appended at least one datapoint, so the trend
# report must render a non-empty table (and valid JSON) from
# BENCH_history.jsonl.
_build/default/bin/psaflow.exe report --trend | grep -q 'service.throughput_rps' \
  || { echo "FAIL: report --trend shows no service throughput series"; exit 1; }
_build/default/bin/psaflow.exe report --trend --json | grep -q '"metric"' \
  || { echo "FAIL: report --trend --json emitted no metric rows"; exit 1; }
# The fresh quick datapoint no longer carries the deleted threaded
# engine's throughput, so that series must show as retired, not live.
_build/default/bin/psaflow.exe report --trend \
  | grep -Eq '^interp\.threaded\.mcycles_per_s .* retired$' \
  || { echo "FAIL: report --trend lists a retired series as live"; exit 1; }
# Nor does it carry the bare and kernel-focused runs of the two-run
# profiling the single tracked run replaced.
_build/default/bin/psaflow.exe report --trend \
  | grep -Eq '^interp\.benchmarks\.kmeans\.focused\.vm_run_s .* retired$' \
  || { echo "FAIL: report --trend lists the focused-run series as live"; exit 1; }
# Nor the deleted svc-load variants leg, whose wall-time memo gates an
# exact per-stage count test in tier-1 replaced.
_build/default/bin/psaflow.exe report --trend \
  | grep -Eq '^service\.variants\.latency_ratio .* retired$' \
  || { echo "FAIL: report --trend lists the variants-leg series as live"; exit 1; }

PSAFLOW=_build/default/bin/psaflow.exe
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/psaflow-check-XXXXXX.sock")
TMP=$(mktemp -d "${TMPDIR:-/tmp}/psaflow-check-XXXXXX")
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$TMP" "$SOCK"
}
trap cleanup EXIT INT TERM

echo "== trace & explain smoke (all five benchmarks) =="
for b in rush_larsen nbody bezier adpredictor kmeans; do
  # --trace re-parses the export with the service Json parser before
  # writing and exits non-zero on invalid JSON, so success here means
  # the document is well-formed
  "$PSAFLOW" run "$b" --trace "$TMP/$b.trace.json" >/dev/null \
    || { echo "FAIL: $b: traced run failed"; exit 1; }
  grep -q '"traceEvents"' "$TMP/$b.trace.json" \
    || { echo "FAIL: $b: not a Chrome trace document"; exit 1; }
  for cat in branch analysis dse task; do
    grep -q "\"cat\":\"$cat\"" "$TMP/$b.trace.json" \
      || { echo "FAIL: $b: no $cat spans in trace"; exit 1; }
  done
  # a recording captures its own thread only
  TIDS=$(grep -o '"tid":[0-9]*' "$TMP/$b.trace.json" | sort -u | wc -l)
  [ "$TIDS" -eq 1 ] \
    || { echo "FAIL: $b: trace carries $TIDS distinct tids (want 1)"; exit 1; }
  "$PSAFLOW" explain "$b" >"$TMP/$b.explain.txt" \
    || { echo "FAIL: $b: explain failed"; exit 1; }
  grep -q 'branch A \[' "$TMP/$b.explain.txt" \
    || { echo "FAIL: $b: explain reports no branch A decision"; exit 1; }
  grep -q 'outcome:' "$TMP/$b.explain.txt" \
    || { echo "FAIL: $b: explain reports no outcome"; exit 1; }
  # every sweep records one decision per design (branch D.*); the
  # flow's winner must be backed by such a decision — i.e. the design
  # the outcome names went through a provenance-recorded sweep
  grep -q 'branch D\.' "$TMP/$b.explain.txt" \
    || { echo "FAIL: $b: explain reports no sweep decision"; exit 1; }
  WINNER=$(sed -n 's/^outcome: \([^ ]*\).*/\1/p' "$TMP/$b.explain.txt" | head -n1)
  [ -n "$WINNER" ] \
    || { echo "FAIL: $b: outcome names no winning design"; exit 1; }
  grep -q "branch D\\.$WINNER \\[exhaustive\\]" "$TMP/$b.explain.txt" \
    || { echo "FAIL: $b: winner $WINNER has no sweep decision"; exit 1; }
done

echo "== service smoke (psaflow serve/submit/svc-metrics) =="

"$PSAFLOW" serve --socket "$SOCK" &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
[ -S "$SOCK" ] || { echo "FAIL: daemon did not come up"; exit 1; }

# a service result must be byte-identical to a direct CLI run
"$PSAFLOW" run adpredictor | tail -n +2 >"$TMP/direct.txt"
"$PSAFLOW" submit adpredictor --wait --socket "$SOCK" \
  >"$TMP/svc.txt" 2>"$TMP/disp1.txt"
diff "$TMP/direct.txt" "$TMP/svc.txt" \
  || { echo "FAIL: service report diverges from direct run"; exit 1; }
grep -q fresh "$TMP/disp1.txt" \
  || { echo "FAIL: first submission not fresh"; exit 1; }

# duplicate submission: served from the content-addressed store
"$PSAFLOW" submit adpredictor --wait --socket "$SOCK" \
  >"$TMP/svc2.txt" 2>"$TMP/disp2.txt"
grep -q cached "$TMP/disp2.txt" \
  || { echo "FAIL: duplicate submission not served from store"; exit 1; }
diff "$TMP/direct.txt" "$TMP/svc2.txt" \
  || { echo "FAIL: cached report diverges"; exit 1; }

# variant resubmission: same benchmark, different strategy — a store
# miss (fresh job), but the stage memo must serve every
# interpreter-level artifact, so the engine's interp_runs counter may
# not move
"$PSAFLOW" svc-metrics --socket "$SOCK" >"$TMP/metrics0.json"
RUNS1=$(sed -n 's/.*"interp_runs": *\([0-9]*\).*/\1/p' "$TMP/metrics0.json" | head -n1)
[ -n "$RUNS1" ] \
  || { echo "FAIL: svc-metrics reports no interp_runs"; exit 1; }
"$PSAFLOW" submit adpredictor --strategy model_perf --wait --socket "$SOCK" \
  >/dev/null 2>"$TMP/disp3.txt"
grep -q fresh "$TMP/disp3.txt" \
  || { echo "FAIL: variant submission (new strategy) should be a store miss"; exit 1; }
"$PSAFLOW" svc-metrics --socket "$SOCK" >"$TMP/metrics.json"
RUNS2=$(sed -n 's/.*"interp_runs": *\([0-9]*\).*/\1/p' "$TMP/metrics.json" | head -n1)
[ "$RUNS1" = "$RUNS2" ] \
  || { echo "FAIL: variant resubmission re-ran the interpreter ($RUNS1 -> $RUNS2)"; exit 1; }
echo "variant resubmission: fresh job, interp_runs unchanged at $RUNS2"
grep -q jobs_completed "$TMP/metrics.json" \
  || { echo "FAIL: svc-metrics missing jobs_completed"; exit 1; }
grep -q '"engine"' "$TMP/metrics.json" \
  || { echo "FAIL: svc-metrics missing engine registry"; exit 1; }
grep -q profile_cache "$TMP/metrics.json" \
  || { echo "FAIL: engine registry missing profile-cache counters"; exit 1; }
for m in memo_ast_hits memo_extract_hits memo_features_hits; do
  grep -q "$m" "$TMP/metrics.json" \
    || { echo "FAIL: engine registry missing stage-memo counter $m"; exit 1; }
done
grep -q dse_simulate_calls "$TMP/metrics.json" \
  || { echo "FAIL: engine registry missing dse_simulate_calls"; exit 1; }

# a traced submission is a fresh job (tracing is part of the store key)
# whose result embeds its trace; tracing must not switch the stage memo
# off, so re-deriving adpredictor's kernel hits the extract memo
EXTRACT1=$(sed -n 's/.*"memo_extract_hits": *\([0-9]*\).*/\1/p' "$TMP/metrics.json" | head -n1)
"$PSAFLOW" submit adpredictor --trace --wait --socket "$SOCK" \
  >/dev/null 2>"$TMP/disp4.txt"
TRACED_JOB=$(sed -n 's/^job #\([0-9]*\) fresh.*/\1/p' "$TMP/disp4.txt")
[ -n "$TRACED_JOB" ] \
  || { echo "FAIL: traced submission should be a fresh job"; exit 1; }
"$PSAFLOW" fetch "$TRACED_JOB" --json --socket "$SOCK" >"$TMP/traced.json"
grep -q '"traceEvents"' "$TMP/traced.json" \
  || { echo "FAIL: traced job result embeds no trace document"; exit 1; }
"$PSAFLOW" svc-metrics --socket "$SOCK" >"$TMP/metrics2.json"
EXTRACT2=$(sed -n 's/.*"memo_extract_hits": *\([0-9]*\).*/\1/p' "$TMP/metrics2.json" | head -n1)
[ "${EXTRACT2:-0}" -gt "${EXTRACT1:-0}" ] \
  || { echo "FAIL: traced job did not hit the extract memo (${EXTRACT1:-0} -> ${EXTRACT2:-0})"; exit 1; }
echo "traced job: trace embedded, memo_extract_hits ${EXTRACT1:-0} -> $EXTRACT2"

# the executed submission's trace must be retrievable with its request
# id intact: the first fresh job of a daemon is always sampled
"$PSAFLOW" svc-trace --socket "$SOCK" >"$TMP/traces.txt"
grep -q 'c-' "$TMP/traces.txt" \
  || { echo "FAIL: svc-trace shows no client-minted request id"; exit 1; }
"$PSAFLOW" svc-trace --json --socket "$SOCK" >"$TMP/traces.json"
grep -q '"request_id"' "$TMP/traces.json" \
  || { echo "FAIL: svc-trace --json missing request_id"; exit 1; }
grep -q '"traceEvents"' "$TMP/traces.json" \
  || { echo "FAIL: svc-trace --json missing embedded trace documents"; exit 1; }

# error paths must exit non-zero with a one-line diagnostic
if "$PSAFLOW" run no-such-benchmark 2>/dev/null; then
  echo "FAIL: unknown benchmark must exit non-zero"; exit 1
fi
printf 'int main( {\n' >"$TMP/bad.c"
if "$PSAFLOW" submit --file "$TMP/bad.c" --socket "$SOCK" 2>/dev/null; then
  echo "FAIL: MiniC parse error must exit non-zero"; exit 1
fi

"$PSAFLOW" svc-shutdown --socket "$SOCK"
wait "$SERVE_PID"
SERVE_PID=""

echo "OK"
