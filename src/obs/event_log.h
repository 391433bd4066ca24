// Structured JSON-lines event log: every TG_LOG call, every span close above
// a duration threshold, and explicit events (sweep heartbeat) become one
// self-describing JSON object on one line -- the debuggable alternative to
// interleaved stderr when the pipeline runs across a pool, a telemetry
// thread, and (eventually) multiple sweep workers.
//
// Record shape (all records):
//   {"ts_ns":..,"tid":..,"kind":"log|span|<event kind>", ...kind fields...,
//    "spans":["outermost","...","innermost"]}
// kind "log" adds level/file/line/msg; kind "span" adds name/detail/
// start_ns/dur_ns; explicit events add msg (and detail when present).
// Timestamps are obs::TraceNowNs() -- the same monotonic clock as every
// other obs artifact, so event-log lines and Chrome-trace spans line up.
//
// Write path: emitters append to the event log of their per-thread state
// (obs/thread_state.h), the one the tracer keeps its spans in, so "tid" is
// the tid of ThreadNames() and of the Chrome trace; a single drainer thread
// formats and writes the JSON lines in the background and frees
// fully-drained blocks. Emission is rate-limited
// by a token bucket (rate/burst in EventLogOptions); shed events are
// counted, never blocked on -- the "event_log.dropped_events" counter and
// EventLogDroppedCount() make the loss visible.
//
// Cost model: every emission site starts with one relaxed atomic load of
// the enabled flag; when the log is off (the default) that load is the
// entire cost, matching every other obs substrate.
//
// Determinism contract: the event log is write-only telemetry on the same
// clock discipline as tracing -- it never touches RNG, never reorders work,
// and is never read back, so pipeline outputs are bit-identical with the
// log on or off (tests/obs_telemetry_test.cc).
//
// Enabling: StartEventLog(path) at runtime, or the TG_EVENT_LOG=path
// environment variable via MaybeStartEventLogFromEnv() (tg_cli does this at
// startup). TG_EVENT_LOG_RATE / TG_EVENT_LOG_SPAN_MS tune the defaults.
#ifndef TG_OBS_EVENT_LOG_H_
#define TG_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/logging.h"
#include "util/status.h"

namespace tg::obs {

namespace internal_event_log {
// Constant-initialized so emitters can load it at any point of process
// startup (logging runs before main).
extern std::atomic<bool> g_enabled;
}  // namespace internal_event_log

// One relaxed load; false unless StartEventLog succeeded and StopEventLog
// has not run.
inline bool EventLogEnabled() {
  return internal_event_log::g_enabled.load(std::memory_order_relaxed);
}

struct EventLogOptions {
  // Token-bucket shed policy: steady-state events/second and the burst the
  // bucket absorbs before shedding. TG_EVENT_LOG_RATE overrides the rate
  // (burst follows at 2x) when > 0.
  double rate_per_sec = 2000.0;
  double burst = 4000.0;
  // Span closes shorter than this never reach the log (they would drown
  // it: a skip-gram epoch closes thousands of sub-millisecond spans).
  // TG_EVENT_LOG_SPAN_MS overrides when >= 0.
  double span_threshold_ms = 10.0;
  // Drainer wakeup period: latency between an emission and its line being
  // durable in the file.
  int flush_interval_ms = 50;
};

// Opens `path` (truncating) and starts the drainer thread. Also flips the
// span bookkeeping bit (SetEventLogSpansEnabled) so span durations are
// measured even when tracing/metrics are off. Fails with a Status on I/O
// errors; FailedPrecondition if already started.
Status StartEventLog(const std::string& path,
                     const EventLogOptions& options = {});

// Drains everything emitted so far, joins the drainer, closes the file.
// Idempotent.
void StopEventLog();

// Starts the log from TG_EVENT_LOG (honoring TG_EVENT_LOG_RATE and
// TG_EVENT_LOG_SPAN_MS) when the variable is set and non-empty. Returns
// true iff the log is running afterwards; a failed open logs a warning and
// returns false -- a bad path must never take the pipeline down.
bool MaybeStartEventLogFromEnv();

// The path of the running log ("" when stopped), for /statusz.
std::string EventLogPath();

// --- Emission ---------------------------------------------------------------
// All emitters are cheap no-ops (one relaxed load) when the log is off, and
// may be called from any thread, including pool workers.

// One TG_LOG line (util/logging.cc routes here when the log is enabled).
void EmitLogEvent(LogLevel level, const char* file, int line,
                  const std::string& message);

// One explicit structured event, e.g. kind "sweep.target_begin". `kind`
// must have static storage duration (callers pass literals).
void EmitEvent(const char* kind, const std::string& message,
               const std::string& detail = "");

// One span close; called by obs::Span when the event-log mode bit is on.
// Applies the duration threshold internally.
void MaybeEmitSpanEvent(const char* name, const std::string& detail,
                        uint64_t start_ns, uint64_t end_ns);

// --- Accounting -------------------------------------------------------------

// Events written to (or queued for) the file / shed by the rate limiter /
// shed because a record arrived after StopEventLog began draining. The
// "event_log.events" and "event_log.dropped_events" registry counters track
// the same numbers for /metrics.
uint64_t EventLogEmittedCount();
uint64_t EventLogDroppedCount();

}  // namespace tg::obs

#endif  // TG_OBS_EVENT_LOG_H_
