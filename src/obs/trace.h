// Span tracer: RAII scopes with thread-local parent nesting, lock-free
// per-thread record buffers merged at flush, explicit parent handoff across
// ThreadPool::ParallelFor, and a Chrome trace-event exporter
// (chrome://tracing / Perfetto).
//
// Cost model: every span begins with one relaxed atomic load of the global
// mode word. When neither tracing nor metrics are enabled that load is the
// entire cost -- no clocks, no allocation, no buffer writes -- so the
// instrumentation is compiled-in everywhere and left on in production code.
//
// Determinism contract: tracing records wall-clock timestamps but never
// touches any RNG, never reorders work, and is never read back by numeric
// code, so pipeline outputs are bit-identical with tracing enabled or
// disabled (asserted by tests/obs_test.cc).
//
// Enabling: SetTraceEnabled()/SetMetricsEnabled() at runtime, or the TG_TRACE
// / TG_METRICS environment variables (any non-empty value other than "0") at
// startup. See docs/observability.md.
#ifndef TG_OBS_TRACE_H_
#define TG_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/perf_counters.h"
#include "util/status.h"

namespace tg::obs {

// --- Mode control -----------------------------------------------------------

// Tracing: spans are recorded into per-thread buffers for export.
void SetTraceEnabled(bool enabled);
bool TraceEnabled();

// Metrics: span close feeds the "stage.<name>.seconds" histogram.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

// Profiler bookkeeping: keeps spans maintaining the thread-local id /
// open-span chain (without recording or histograms) when neither tracing
// nor metrics is on, so SIGPROF samples can attribute to spans. Driven by
// StartProfiler/StopProfiler (obs/profiler.h), not set directly.
void SetProfilerSpansEnabled(bool enabled);

// Event-log bookkeeping: spans measure durations and report closes above
// the configured threshold to the structured event log (obs/event_log.h).
// Driven by StartEventLog/StopEventLog, not set directly.
void SetEventLogSpansEnabled(bool enabled);

// --- Clock ------------------------------------------------------------------

// Nanoseconds since the process trace epoch (steady clock; the epoch is
// fixed on first use). Every obs timestamp -- span start/end, resource
// sampler ticks, WallTimer -- comes from this one clock.
uint64_t TraceNowNs();

// Wall-clock timer on the trace clock, for coarse timing in log lines and
// bench loops that do not want a span. (Folded in from the former
// util/stopwatch.h so the repo has a single timing source.)
class WallTimer {
 public:
  WallTimer() : start_ns_(TraceNowNs()) {}

  void Reset() { start_ns_ = TraceNowNs(); }

  double ElapsedSeconds() const {
    return static_cast<double>(TraceNowNs() - start_ns_) * 1e-9;
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  uint64_t start_ns_;
};

// --- Spans ------------------------------------------------------------------

// One closed span. `name` must have static storage duration (the TG_TRACE_*
// macros pass string literals); `detail` carries optional dynamic context
// (target name, learner name) without exploding the span-name cardinality.
struct SpanRecord {
  const char* name = "";
  std::string detail;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t start_ns = 0;  // relative to the process trace epoch
  uint64_t end_ns = 0;
  // Allocation accounting over the span's lifetime on its thread, inclusive
  // of child spans, when obs::MemoryTrackingEnabled() (see obs/memory.h);
  // zero otherwise. Allocations made by pool workers on behalf of this span
  // appear on the workers' pool_drain spans, not here.
  uint64_t alloc_bytes = 0;
  uint64_t allocs = 0;
  // Hardware-counter delta over the span's lifetime on its thread (see
  // obs/perf_counters.h); ok=false unless counters were enabled and
  // available for the whole span.
  PerfCounterValues perf;
  uint32_t tid = 0;  // dense per-thread index, see ThreadNames()
};

// RAII span scope. Construction snapshots the thread-local current span as
// parent and makes this span current; destruction records it (when tracing)
// and feeds the stage histogram (when metrics).
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::string detail);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  friend std::vector<std::string> CurrentSpanStack();
  friend const char* CurrentSpanName();
  friend size_t OpenSpanNamesForSignal(const char** names, size_t max_names);

  const char* name_ = "";
  std::string detail_;
  uint64_t id_ = 0;
  uint64_t prev_current_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t alloc_bytes_start_ = 0;
  uint64_t allocs_start_ = 0;
  PerfCounterValues perf_start_;
  bool active_ = false;
  // Link in the thread-local open-span chain behind CurrentSpanStack().
  Span* prev_open_ = nullptr;
};

// Names (with details) of the spans currently open on this thread,
// outermost first. Empty unless tracing or metrics is enabled. The TG_CHECK
// failure hook prints this so a crash report shows where in the pipeline
// the invariant broke.
std::vector<std::string> CurrentSpanStack();

// Static-storage name of the innermost span open on this thread, or nullptr
// when none is open (or no obs mode is active). One thread-local read;
// util/logging.cc stamps it onto log lines so logs and spans correlate.
const char* CurrentSpanName();

// Async-signal-safe variant for the SIGPROF handler: fills `names` with the
// open spans' static-storage name pointers, innermost first, and returns
// the count (capped at max_names). Reads only thread-local pointers; never
// allocates or locks.
size_t OpenSpanNamesForSignal(const char** names, size_t max_names);

#define TG_TRACE_CONCAT_INNER(a, b) a##b
#define TG_TRACE_CONCAT(a, b) TG_TRACE_CONCAT_INNER(a, b)
// Opens a span for the rest of the enclosing scope.
#define TG_TRACE_SPAN(name) \
  ::tg::obs::Span TG_TRACE_CONCAT(tg_trace_span_, __LINE__)(name)
#define TG_TRACE_SPAN2(name, detail) \
  ::tg::obs::Span TG_TRACE_CONCAT(tg_trace_span_, __LINE__)((name), (detail))

// Id of the innermost open span on this thread (0 if none). Cheap: a
// thread-local read, valid whether or not tracing is enabled.
uint64_t CurrentSpanId();

// Explicit parent handoff: makes `parent_span` the current span for the
// lifetime of the scope, so spans opened on this thread (e.g. inside a pool
// worker draining ParallelFor chunks) attach to the span that enqueued the
// work rather than to whatever the worker ran last.
class ParentScope {
 public:
  explicit ParentScope(uint64_t parent_span);
  ~ParentScope();

  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  uint64_t prev_;
};

// --- Thread identity --------------------------------------------------------

// Names this thread in trace exports ("tg-worker-3"); threads that never
// call it show up as "thread-<tid>".
void SetCurrentThreadName(std::string name);

// (tid, name) for every thread that recorded spans or events, or registered
// a name.
std::vector<std::pair<uint32_t, std::string>> ThreadNames();

// --- Flush / export ---------------------------------------------------------

// Merges every thread's buffer into one list (spans recorded since the last
// ResetSpans). Safe to call while other threads are still tracing: each
// buffer is published with release/acquire ordering, so only fully-written
// records are visible. Does not consume.
std::vector<SpanRecord> SnapshotSpans();

// Marks everything currently published as consumed so the next
// SnapshotSpans starts fresh, and frees the record blocks that consumption
// moved past. Spans still open stay unaffected (they are recorded on close).
// For benches/tests sectioning one process run.
void ResetSpans();

// Chrome trace-event JSON (the "JSON Object Format": {"traceEvents":[...]})
// with one complete ("ph":"X") event per span, parent/detail in args, and
// thread-name metadata events. Load via chrome://tracing or
// https://ui.perfetto.dev.
std::string ChromeTraceJson();

// ChromeTraceJson written to `path`.
Status WriteChromeTrace(const std::string& path);

}  // namespace tg::obs

#endif  // TG_OBS_TRACE_H_
