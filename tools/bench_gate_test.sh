#!/bin/sh
# End-to-end self-test of the bench-history regression gate: writes small
# bench_timings.json fixtures, records them with the real
# `bench_history append`, and checks the exit status of
# `bench_history compare` (0 pass, 1 regression, 2 usage error).
#
# Usage: tools/bench_gate_test.sh BENCH_HISTORY
set -u
BENCH_HISTORY="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/tg_bench_gate.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
FAILED=0

# timings FILE GRAPH_BUILD_S RANDOM_FOREST_S: one bench_timings.json
# snapshot. An empty RANDOM_FOREST_S leaves that stage out.
timings() {
  FOREST=""
  if [ -n "$3" ]; then
    FOREST=",{\"component\":\"random_forest_fit\",\"threads\":1,\"wall_seconds\":$3}"
  fi
  cat > "$1" <<EOF
{"build_info":{"git_sha":"fixture","compiler":"GNU","flags":"-O2",
               "build_type":"Release","sanitizer":"none","tg_threads":1},
 "resources":{"peak_rss_bytes":104857600},
 "timings":[{"component":"graph_build","threads":1,"wall_seconds":$2},
            {"component":"skipgram_sharded","threads":1,"wall_seconds":0.5}$FOREST]}
EOF
}

# record NAME SNAPSHOT...: appends each snapshot to a fresh history.
record() {
  NAME="$1"
  shift
  rm -f "$WORK/$NAME.json"
  for SNAPSHOT in "$@"; do
    "$BENCH_HISTORY" append --timings "$WORK/$SNAPSHOT.json" \
        --history "$WORK/$NAME.json" >/dev/null || {
      echo "FAIL: append $SNAPSHOT to $NAME"
      FAILED=1
    }
  done
}

# expect CODE DESCRIPTION ARGS...: runs `bench_history compare ARGS...`.
expect() {
  WANT="$1"
  WHAT="$2"
  shift 2
  "$BENCH_HISTORY" compare "$@" >"$WORK/out.txt" 2>&1
  GOT=$?
  if [ "$GOT" != "$WANT" ]; then
    echo "FAIL: $WHAT: exit $GOT, want $WANT"
    cat "$WORK/out.txt"
    FAILED=1
  fi
}

timings "$WORK/base.json" 1.0 0.30
timings "$WORK/slow.json" 2.0 0.30
timings "$WORK/over.json" 1.0 0.45
timings "$WORK/missing.json" 1.0 ""

record same base base
expect 0 "unchanged pair" --history "$WORK/same.json"
record doubled base slow
expect 1 "2x graph_build stage" --history "$WORK/doubled.json"
record one base
expect 0 "one run under the ceiling" --history "$WORK/one.json"
record one_over over
expect 1 "one run with random_forest_fit@1 = 0.45 s" \
    --history "$WORK/one_over.json"
record one_missing missing
expect 1 "one run without random_forest_fit@1" \
    --history "$WORK/one_missing.json"

# The thresholds are fixed: every flag that used to set one is rejected.
for FLAG in --max-time-ratio --min-seconds --inject-time-ratio \
    --stage-max-ratio --stage-max-seconds --min-ipc-ratio \
    --max-cache-miss-ratio; do
  expect 2 "removed flag $FLAG" --history "$WORK/same.json" "$FLAG" 1
done
exit "$FAILED"
