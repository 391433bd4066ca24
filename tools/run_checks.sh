#!/usr/bin/env bash
# Pre-PR gate: Release + ThreadSanitizer builds, both test suites (the TSan
# pass covers the concurrent allocation tracking in obs_memory_test), an
# UndefinedBehaviorSanitizer pass over the kernel layer, the
# transferability estimators and the zoo path that feeds them, the
# statistics helpers and the util layer (whose one JSON parser reads every
# checkpoint), and
# the chaos tests (any UB report fails it), a
# kernel-backend dispatch gate (kernels_test, autograd_test and gnn_test
# under TG_ISA=scalar and under the widest host-supported backend, plus a
# forced-unavailable hard-error check), a
# kernels micro-bench smoke run, a bench-history append + regression compare
# under the fixed gate policy of src/obs/bench_history.cc (stage-time
# ratios with pinned skipgram_sharded/random_forest_fit stages, an absolute
# random_forest_fit wall-time ceiling, hardware-counter and peak-RSS ratio
# gates; the gate's own self-test is the bench_gate_self_test ctest),
# the decision-tree and random-forest tests plus an RF rank under ASan, a
# checkpoint resume gate
# (a checkpointed sweep kill -9'd mid-run and rerun with the same
# --checkpoint must finish with a checkpoint byte-identical to an
# uninterrupted sweep's under TG_THREADS=1 and =4, leaving no temp file), an
# end-to-end smoke check of the tg_cli observability path
# (--trace/--metrics/--mem/--rss-sample), including validity of the exported
# Chrome-trace JSON, and a profiling gate: `tg_cli rank --profile` must
# attribute >0 samples to named pipeline spans in a parsable
# collapsed-stack file, the obs, profiler and event-log test suites must
# pass under ASan (the TSan ctest pass above covers their race freedom), and a
# forced TG_FAULT=perf_open=always run must degrade to a labeled
# "perf counters unavailable" state with a clean exit.
#
# Usage: tools/run_checks.sh [--skip-tsan] [--skip-ubsan]
# TG_BENCH_SPEEDUPS=0 skips the multi-second speedup section AND the
# bench-history step that depends on its timings JSON.
# Build trees land in build-release/, build-tsan/ and build-ubsan/ at the
# repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_TSAN=0
SKIP_UBSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-ubsan) SKIP_UBSAN=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

section() { printf '\n=== %s ===\n' "$1"; }

section "Release build + tests"
# -Werror: the Release build stays warning-free at -Wall -Wextra.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-release -j "$JOBS"
ctest --test-dir build-release --output-on-failure

if [ "$SKIP_TSAN" -eq 1 ]; then
  section "ThreadSanitizer build + tests (SKIPPED)"
else
  section "ThreadSanitizer build + tests"
  cmake -B build-tsan -S . -DTG_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure
fi

if [ "$SKIP_UBSAN" -eq 1 ]; then
  section "UBSan kernel-layer tests (SKIPPED)"
else
  section "UBSan kernel-layer tests"
  # Focused pass: the unrolled kernels, the sigmoid table, PARC's tiled
  # triangular pair loop, the radix rank sort and the JSON parser are the
  # code most exposed to pointer/index arithmetic mistakes, so they get a
  # dedicated UB check even when the full-matrix sanitizer suite is too slow
  # for the pre-PR loop. core_baselines_test and zoo_world_test drive the
  # zoo's shared estimator miss path (extraction, source probabilities,
  # hard labels, all four estimators) on real zoo data.
  UBSAN_KERNEL_TESTS="kernels_test transferability_test stats_test util_test
      core_baselines_test zoo_world_test"
  cmake -B build-ubsan -S . -DTG_SANITIZE=undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-ubsan -j "$JOBS" --target $UBSAN_KERNEL_TESTS
  for t in $UBSAN_KERNEL_TESTS; do
    "./build-ubsan/tests/$t"
  done
fi

section "kernel backend dispatch gate"
# The kernel suite, and the autograd and GNN suites built on it, must pass
# with dispatch forced to the exact-order scalar backend AND under the
# widest backend this binary+CPU supports (what TG_ISA=auto resolves to):
# the fused message-passing ops stay bit-identical only while no vector
# backend contracts their mul+add to FMA. The GBDT suite pins its output
# bits, which must not depend on the backend either. The matrix, nn and
# estimator-baseline suites run every MatMul caller (the Adam update, the
# LogME gram) through the Gemm / MatMulTransposed / AdamUpdate entries, and
# core_baselines_test pins the estimator scores per backend. `tg_cli
# backend` prints both facts; forcing a backend that does not exist must be
# a hard error, never a silent fallback (see docs/performance.md).
DISPATCH_TESTS="kernels_test autograd_test gnn_test ml_gbdt_test nn_test \
matrix_test core_baselines_test"
# shellcheck disable=SC2086
cmake --build build-release -j "$JOBS" --target $DISPATCH_TESTS tg_cli
./build-release/tools/tg_cli backend
BEST_BACKEND="$(./build-release/tools/tg_cli backend \
    | sed -n 's/^active: //p')"
for t in $DISPATCH_TESTS; do
  TG_ISA=scalar "./build-release/tests/$t" --gtest_brief=1
done
if [ "$BEST_BACKEND" != "scalar" ]; then
  for t in $DISPATCH_TESTS; do
    TG_ISA="$BEST_BACKEND" "./build-release/tests/$t" --gtest_brief=1
  done
else
  echo "(no vector backend available on this host; scalar pass already ran)"
fi
if TG_ISA=definitely-not-a-backend ./build-release/tools/tg_cli backend \
    >/dev/null 2>&1; then
  echo "TG_ISA with a bogus backend must fail hard, not fall back" >&2
  exit 1
fi
echo "dispatch gate passed (best backend: $BEST_BACKEND)"

section "kernels micro-bench smoke"
# TG_BENCH_SPEEDUPS=0 skips the multi-second parallel-speedup section and
# the timings JSON; the kernel/sigmoid benches themselves take well under a
# second and catch gross perf or correctness breakage in the hot loops.
cmake --build build-release -j "$JOBS" --target bench_micro_components
TG_BENCH_SPEEDUPS=0 ./build-release/bench/bench_micro_components \
    --benchmark_filter='BM_(Kernel|Sigmoid)' \
    --benchmark_min_time=0.05

if [ "${TG_BENCH_SPEEDUPS:-1}" = "0" ]; then
  section "bench history append + compare (SKIPPED: TG_BENCH_SPEEDUPS=0)"
else
  section "bench history append + compare"
  # The speedup section of the micro bench writes
  # bench_csv/bench_timings.json (stage wall times + build_info + peak RSS);
  # '^$' filters out every google-benchmark case so only that section runs.
  # The appended history accumulates in bench_csv/BENCH_history.json and the
  # compare gates on run-over-run stage-time and peak-RSS regressions (see
  # docs/observability.md). The first run on a fresh checkout has no
  # baseline, so only the absolute ceiling judges it.
  cmake --build build-release -j "$JOBS" --target bench_history
  # TG_PERF_COUNTERS=1 makes the run stamp hardware-counter provenance (and
  # per-stage counter totals when the host exposes a PMU) into the timings
  # JSON, which feeds the compare's counter-ratio gates below.
  TG_PERF_COUNTERS=1 \
      ./build-release/bench/bench_micro_components --benchmark_filter='^$'
  # The timings JSON must record which kernel backend produced the numbers;
  # a timing without its backend stamp is not reproducible evidence.
  grep -q '"numeric_backend"' bench_csv/bench_timings.json || {
    echo "bench_timings.json must record numeric_backend via build_info" >&2
    exit 1
  }
  # Likewise the counter provenance stamp: "ok" runs carry real per-stage
  # counts, "unavailable"/"disabled" runs say so instead of silently
  # emitting zeros.
  grep -q '"perf_counters"' bench_csv/bench_timings.json || {
    echo "bench_timings.json must stamp hardware-counter provenance" >&2
    exit 1
  }
  ./build-release/tools/bench_history append \
      --timings bench_csv/bench_timings.json \
      --history bench_csv/BENCH_history.json
  # The thresholds are constants in src/obs/bench_history.cc
  # (docs/observability.md lists each value and why); the ctest
  # bench_gate_self_test proves that the gate fails on a regression.
  ./build-release/tools/bench_history compare \
      --history bench_csv/BENCH_history.json
fi

section "chaos gate: fault injection under ASan/UBSan"
# The chaos tests randomize fault schedules across the sweep's I/O,
# dispatch, and checkpoint paths; running them under
# AddressSanitizer+UBSan catches the use-after-free / double-close /
# leak bugs that error paths love to hide (see docs/robustness.md). The
# UBSan tree aborts on the first report (-fno-sanitize-recover=all), so a
# UB finding fails this gate; only --skip-ubsan skips it.
cmake -B build-asan -S . -DTG_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
CHAOS_TESTS="fault_injection_test chaos_pipeline_test"
# shellcheck disable=SC2086
cmake --build build-asan -j "$JOBS" --target $CHAOS_TESTS
for t in $CHAOS_TESTS; do
  "./build-asan/tests/$t"
done
if [ "$SKIP_UBSAN" -eq 1 ]; then
  echo "(UBSan chaos pass SKIPPED; ASan chaos pass already ran)"
else
  # shellcheck disable=SC2086
  cmake --build build-ubsan -j "$JOBS" --target $CHAOS_TESTS
  for t in $CHAOS_TESTS; do
    "./build-ubsan/tests/$t"
  done
fi

section "chaos gate: tg_cli under injected I/O fault"
# An injected write fault must surface as a clean Status + non-zero exit --
# never an abort (exit 134) -- and must leave no half-written temp file.
FAULT_OUT="$(mktemp -d /tmp/tg_fault.XXXXXX)"
trap 'rm -rf "$FAULT_OUT"' EXIT
set +e
TG_FAULT="atomic_file.write=always" ./build-release/tools/tg_cli \
    export-graph --out "$FAULT_OUT/graph.tsv" --models 16 \
    2> "$FAULT_OUT/stderr.txt"
FAULT_CODE=$?
set -e
if [ "$FAULT_CODE" -eq 0 ] || [ "$FAULT_CODE" -ge 128 ]; then
  echo "expected clean non-zero exit under TG_FAULT, got $FAULT_CODE" >&2
  cat "$FAULT_OUT/stderr.txt" >&2
  exit 1
fi
grep -q "injected fault" "$FAULT_OUT/stderr.txt" || {
  echo "expected 'injected fault' in stderr" >&2; exit 1;
}
if ls "$FAULT_OUT"/*.tmp >/dev/null 2>&1; then
  echo "injected fault leaked a .tmp file" >&2; exit 1
fi
[ ! -e "$FAULT_OUT/graph.tsv" ] || {
  echo "failed export must not publish the output file" >&2; exit 1;
}
# Same command without the fault must succeed and publish.
./build-release/tools/tg_cli export-graph --out "$FAULT_OUT/graph.tsv" \
    --models 16 >/dev/null
[ -s "$FAULT_OUT/graph.tsv" ] || {
  echo "fault-free export should have produced the graph" >&2; exit 1;
}
echo "injected I/O fault handled cleanly (exit $FAULT_CODE)"

section "checkpoint chaos gate: kill -9 mid-sweep, resume bit-identical"
# A checkpointed sweep is kill -9'd mid-run (after 2.5 s, once its
# checkpoint holds a target), then rerun with the same --checkpoint, which
# must resume that target and complete the sweep. The final checkpoint must
# be byte-identical to an uninterrupted sweep's, under TG_THREADS=1 and =4
# alike, and no temp file may be left beside it (see docs/robustness.md).
# The heavy strategy keeps each target slow enough (~1 s) that the kill
# reliably lands mid-sweep.
RESUME_DIR="$(mktemp -d /tmp/tg_resume.XXXXXX)"
trap 'rm -rf "$FAULT_OUT" "$RESUME_DIR"' EXIT
SWEEP_FLAGS="--modality image --models 48 \
    --learner n2v --features all --predictor xgb"
# shellcheck disable=SC2086  # SWEEP_FLAGS is a deliberate word list
./build-release/tools/tg_cli sweep $SWEEP_FLAGS \
    --checkpoint "$RESUME_DIR/serial.json" > /dev/null
for T in 1 4; do
  CHECKPOINT="$RESUME_DIR/resumed.t$T.json"
  # shellcheck disable=SC2086
  TG_THREADS="$T" ./build-release/tools/tg_cli sweep $SWEEP_FLAGS \
      --checkpoint "$CHECKPOINT" > "$RESUME_DIR/killed.t$T.log" 2>&1 &
  SWEEP_PID=$!
  sleep 2.5
  WAITED=0
  while [ ! -e "$CHECKPOINT" ] && [ "$WAITED" -lt 600 ] &&
      kill -0 "$SWEEP_PID" 2>/dev/null; do
    sleep 0.1
    WAITED=$((WAITED + 1))
  done
  KILLED=0
  if kill -9 "$SWEEP_PID" 2>/dev/null; then
    KILLED=1
    echo "(TG_THREADS=$T: killed the sweep mid-run)"
  else
    echo "(TG_THREADS=$T: the sweep finished before the kill; resume not" \
        "exercised this round)"
  fi
  wait "$SWEEP_PID" 2>/dev/null || true
  # shellcheck disable=SC2086
  TG_THREADS="$T" ./build-release/tools/tg_cli sweep $SWEEP_FLAGS \
      --checkpoint "$CHECKPOINT" > "$RESUME_DIR/resumed.t$T.log" 2>&1 || {
    echo "resumed sweep (TG_THREADS=$T) exited non-zero" >&2
    cat "$RESUME_DIR/resumed.t$T.log" >&2
    exit 1
  }
  RESUMED="$(grep -o '[0-9]* resumed' "$RESUME_DIR/resumed.t$T.log")"
  if [ "$KILLED" -eq 1 ] && [ "$RESUMED" = "0 resumed" ]; then
    echo "rerun (TG_THREADS=$T) resumed nothing from the killed sweep" >&2
    exit 1
  fi
  cmp "$RESUME_DIR/serial.json" "$CHECKPOINT" || {
    echo "resumed checkpoint (TG_THREADS=$T) differs from the" \
        "uninterrupted sweep" >&2
    exit 1
  }
  if ls "$RESUME_DIR"/*.tmp >/dev/null 2>&1; then
    echo "kill -9 left checkpoint temp files:" "$RESUME_DIR"/*.tmp >&2
    exit 1
  fi
  echo "TG_THREADS=$T: $RESUMED, checkpoint bit-identical"
done

section "random forest under ASan"
# The tree's bootstrap order expansion (decision_tree.cc) stores four copies
# unconditionally into a buffer with +4 slack, so it is exactly the kind of
# raw-pointer code ASan exists for. The tree and forest tests drive it across
# many row-multiplicity shapes; the RF rank drives it through the pipeline.
cmake --build build-asan -j "$JOBS" \
    --target tg_cli ml_decision_tree_test ml_random_forest_test
./build-asan/tests/ml_decision_tree_test
./build-asan/tests/ml_random_forest_test
./build-asan/tools/tg_cli rank --modality image --target 0 \
    --predictor rf >/dev/null
echo "RF rank passed under ASan"

section "tg_cli trace/metrics smoke check"
TRACE_FILE="$(mktemp /tmp/tg_trace.XXXXXX.json)"
trap 'rm -f "$TRACE_FILE"; \
     rm -rf "$FAULT_OUT" "$RESUME_DIR"' EXIT
# TG_THREADS=2 forces the pool path so the trace includes pool_drain spans
# (worker-side parent handoff) even on a single-core machine. --mem and
# --rss-sample exercise the allocation accounting and the background RSS
# sampler on the same run.
TG_THREADS=2 ./build-release/tools/tg_cli rank --modality image --target 0 \
    --trace "$TRACE_FILE" --metrics --mem --rss-sample 20

# The CLI already self-validates with the strict in-tree JSON checker;
# cross-check with an independent parser when one is available.
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$TRACE_FILE" >/dev/null
  echo "trace JSON parses ($(wc -c < "$TRACE_FILE") bytes)"
else
  echo "python3 not found; relying on tg_cli's built-in JSON validation"
fi
grep -q '"pool_drain"' "$TRACE_FILE" || {
  echo "expected pool_drain spans in trace" >&2; exit 1;
}
grep -q '"evaluate_target"' "$TRACE_FILE" || {
  echo "expected evaluate_target span in trace" >&2; exit 1;
}
grep -q '"alloc_bytes"' "$TRACE_FILE" || {
  echo "expected alloc_bytes span args in trace (--mem)" >&2; exit 1;
}
grep -q '"process_memory_mb"' "$TRACE_FILE" || {
  echo "expected process_memory_mb counter track in trace (--rss-sample)" \
      >&2; exit 1;
}

section "profiler + hardware-counter gate"
# The sampling profiler must attribute real samples to named pipeline spans
# and emit a parsable collapsed-stack file; counters must either produce a
# per-stage table or say why they cannot. 997 Hz (prime) keeps this short
# rank run well-sampled without phase-locking against periodic work.
PROF_DIR="$(mktemp -d /tmp/tg_prof.XXXXXX)"
trap 'rm -f "$TRACE_FILE"; \
     rm -rf "$FAULT_OUT" "$PROF_DIR" "$RESUME_DIR"' EXIT
TG_THREADS=2 ./build-release/tools/tg_cli rank --modality image --target 0 \
    --profile=997 --profile-out "$PROF_DIR/profile.collapsed" \
    --perf-counters | tee "$PROF_DIR/stdout.txt"
SAMPLES="$(sed -n 's/^profiler: \([0-9][0-9]*\) samples.*/\1/p' \
    "$PROF_DIR/stdout.txt")"
if [ -z "$SAMPLES" ] || [ "$SAMPLES" -eq 0 ]; then
  echo "expected >0 profiler samples from rank --profile" >&2; exit 1
fi
[ -s "$PROF_DIR/profile.collapsed" ] || {
  echo "rank --profile produced no collapsed-stack file" >&2; exit 1;
}
# Collapsed-stack grammar: every line is "frame;frame;...;leaf N", N > 0.
awk 'NF < 2 || $NF !~ /^[0-9]+$/ || $NF == 0 { exit 1 }' \
    "$PROF_DIR/profile.collapsed" || {
  echo "collapsed-stack lines must be 'frames... positive-count'" >&2
  exit 1
}
# Stacks are rooted at the span chain, so the rank pipeline's root span
# must appear: samples attributed to named spans, not just raw PCs.
grep -q "evaluate_target" "$PROF_DIR/profile.collapsed" || {
  echo "expected evaluate_target-rooted stacks in collapsed output" >&2
  exit 1
}
# --perf-counters must resolve to a table or a labeled degradation, never
# silence: "ok" hosts print per-stage IPC, PMU-less hosts print the reason.
grep -Eq "per-stage hardware counters|perf counters unavailable" \
    "$PROF_DIR/stdout.txt" || {
  echo "expected a counter table or a labeled unavailable state" >&2
  exit 1
}
echo "profile smoke passed ($SAMPLES samples)"

# Forced perf_event_open failure: the run must finish (exit 0) and label
# the degradation with the injected reason -- on every host, PMU or not.
set +e
TG_FAULT="perf_open=always" ./build-release/tools/tg_cli rank \
    --modality image --target 0 --perf-counters \
    > "$PROF_DIR/fault_stdout.txt" 2>&1
PERF_FAULT_CODE=$?
set -e
if [ "$PERF_FAULT_CODE" -ne 0 ]; then
  echo "rank must survive TG_FAULT=perf_open=always, got exit" \
      "$PERF_FAULT_CODE" >&2
  cat "$PROF_DIR/fault_stdout.txt" >&2
  exit 1
fi
grep -q "perf counters unavailable: injected fault at perf_open" \
    "$PROF_DIR/fault_stdout.txt" || {
  echo "expected the injected perf_open fault to be the labeled reason" >&2
  exit 1
}
echo "injected perf_open fault degraded cleanly"

# The obs suites under ASan catch buffer-lifetime mistakes: the profiler's
# signal path and the per-thread record logs (ResetSpans and the event-log
# drainer free the blocks they consume). The TSan ctest pass above already
# ran them for race freedom (event-log drainer against emitting threads,
# concurrent span writers against snapshot/reset).
cmake --build build-asan -j "$JOBS" \
    --target obs_test obs_profiler_test obs_event_log_test
./build-asan/tests/obs_test
./build-asan/tests/obs_profiler_test
./build-asan/tests/obs_event_log_test

section "all checks passed"
