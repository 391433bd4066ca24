#!/bin/sh
# Every malformed numeric option of tg_cli must be rejected with exit
# status 2 and a "not a valid number" message, and every unknown option of
# tg_cli and bench_history with exit status 2, before any work starts
# (never an uncaught exception or a silent fallback).
#
# Usage: tools/malformed_numbers_test.sh TG_CLI BENCH_HISTORY
set -u
TG_CLI="$1"
BENCH_HISTORY="$2"
FAILED=0
BAD="not a valid number"

# expect_rejected TEXT COMMAND...: COMMAND must exit 2 with TEXT on stderr.
expect_rejected() {
  TEXT="$1"
  shift
  MESSAGE="$("$@" 2>&1 >/dev/null)"
  CODE=$?
  case "$MESSAGE" in
    *"$TEXT"*) ;;
    *) CODE="$CODE without the message" ;;
  esac
  if [ "$CODE" != 2 ]; then
    echo "FAIL (exit $CODE): $*"
    FAILED=1
  fi
}

expect_rejected "$BAD" "$TG_CLI" catalog --models abc
expect_rejected "$BAD" "$TG_CLI" catalog --models 99999999999
expect_rejected "$BAD" "$TG_CLI" catalog --models -3
expect_rejected "$BAD" "$TG_CLI" rank --target 99999999999999999999999
expect_rejected "$BAD" "$TG_CLI" rank --target 0abc
expect_rejected "$BAD" "$TG_CLI" rank --target 0 --top x
expect_rejected "$BAD" "$TG_CLI" catalog --profile=abc
expect_rejected "$BAD" "$TG_CLI" catalog --rss-sample 5ms
# Unknown or misspelled options are rejected, never silently ignored.
expect_rejected "unknown option --modles" "$TG_CLI" catalog --modles 3
expect_rejected "unknown option --predictr" "$TG_CLI" rank --target 0 \
    --predictr lr
# The removed live telemetry flag is unknown, not silently accepted.
expect_rejected "unknown option --telemetry-port" "$TG_CLI" catalog \
    --telemetry-port 0
# So are the removed multi-worker sweep options, and `sweep-merge` is an
# unknown subcommand that prints the usage text.
expect_rejected "unknown option --workdir" "$TG_CLI" sweep --workdir /tmp
expect_rejected "unknown option --worker-id" "$TG_CLI" sweep --worker-id w0
expect_rejected "unknown option --lease-sec" "$TG_CLI" sweep --lease-sec 30
expect_rejected "usage: tg_cli" "$TG_CLI" sweep-merge
# bench_history compare has no threshold options: every removed flag is
# unknown, and a trailing flag without its value is rejected too.
for ARGS in "--baseline 1" "--max-rss-ratio 1" "--min-counter-cycles 1" \
    "--max-time-ratio 1.6" "--min-seconds 0.05" "--inject-time-ratio 2" \
    "--min-ipc-ratio 0.7" "--max-cache-miss-ratio 2"; do
  # shellcheck disable=SC2086
  expect_rejected "unknown option" "$BENCH_HISTORY" compare \
      --history /nonexistent/BENCH_history.json $ARGS
done
expect_rejected "needs a value" "$BENCH_HISTORY" compare \
    --history /nonexistent/BENCH_history.json --timings
exit "$FAILED"
