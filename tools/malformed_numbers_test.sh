#!/bin/sh
# Every malformed numeric option of tg_cli and bench_history must be
# rejected with exit status 2 and a "not a valid number" message, before
# any work starts (never an uncaught exception or a silent fallback).
#
# Usage: tools/malformed_numbers_test.sh TG_CLI BENCH_HISTORY
set -u
TG_CLI="$1"
BENCH_HISTORY="$2"
FAILED=0

expect_rejected() {
  MESSAGE="$("$@" 2>&1 >/dev/null)"
  CODE=$?
  case "$MESSAGE" in
    *"not a valid number"*) ;;
    *) CODE="$CODE without the message" ;;
  esac
  if [ "$CODE" != 2 ]; then
    echo "FAIL (exit $CODE): $*"
    FAILED=1
  fi
}

expect_rejected "$TG_CLI" catalog --models abc
expect_rejected "$TG_CLI" catalog --models 99999999999
expect_rejected "$TG_CLI" catalog --models -3
expect_rejected "$TG_CLI" rank --target 99999999999999999999999
expect_rejected "$TG_CLI" rank --target 0abc
expect_rejected "$TG_CLI" rank --target 0 --top x
expect_rejected "$TG_CLI" sweep --workdir /nonexistent --worker-id w0 \
    --lease-sec abc
expect_rejected "$TG_CLI" sweep --workdir /nonexistent --worker-id w0 \
    --lease-sec nan
expect_rejected "$TG_CLI" catalog --telemetry-port abc
expect_rejected "$TG_CLI" catalog --telemetry-port 70000
expect_rejected "$TG_CLI" catalog --profile=abc
expect_rejected "$TG_CLI" catalog --rss-sample 5ms
for FLAG in --max-time-ratio --min-seconds --inject-time-ratio \
    --min-ipc-ratio --max-cache-miss-ratio; do
  expect_rejected "$BENCH_HISTORY" compare \
      --history /nonexistent/BENCH_history.json "$FLAG" abc
done
expect_rejected "$BENCH_HISTORY" compare \
    --history /nonexistent/BENCH_history.json --max-time-ratio nan
# Removed flags and a trailing flag without its value are rejected too,
# not silently ignored.
for ARGS in "--baseline 1" "--max-rss-ratio 1" "--min-counter-cycles 1" \
    "--max-time-ratio"; do
  # shellcheck disable=SC2086
  if "$BENCH_HISTORY" compare --history /nonexistent/BENCH_history.json \
      $ARGS >/dev/null 2>&1; then
    echo "FAIL: bench_history compare accepted $ARGS"
    FAILED=1
  fi
done
exit "$FAILED"
