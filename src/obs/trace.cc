#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/event_log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/resource_sampler.h"
#include "obs/thread_state.h"
#include "util/atomic_file.h"
#include "util/check.h"
#include "util/json_util.h"
#include "util/logging.h"

namespace tg::obs {
namespace {

constexpr uint32_t kTraceBit = 1u;
constexpr uint32_t kMetricsBit = 2u;
// Profiler bookkeeping only: spans maintain the thread-local id / open-span
// chain (for SIGPROF attribution) without recording or histograms.
constexpr uint32_t kProfileBit = 4u;
// Event-log bookkeeping: span closes above the event log's duration
// threshold emit a structured event (obs/event_log.h).
constexpr uint32_t kEventLogBit = 8u;

std::atomic<uint32_t>& Mode() {
  // Function-local so first use (from any TU, any time) is well-defined;
  // seeded once from the environment knobs.
  static std::atomic<uint32_t> mode{
      (EnvFlagSet("TG_TRACE") ? kTraceBit : 0u) |
      (EnvFlagSet("TG_METRICS") ? kMetricsBit : 0u)};
  return mode;
}

using internal_thread_state::LocalThreadState;
using internal_thread_state::ThreadState;

// The one thread registry of src/obs (obs/thread_state.h). Leaked, with its
// states, so spans and events recorded by short-lived threads survive until
// the final flush and late emitters never touch a destroyed registry.
struct ThreadRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadState>> states;
};

ThreadRegistry& Registry() {
  static ThreadRegistry* registry = new ThreadRegistry;
  return *registry;
}

std::atomic<uint64_t> g_next_span_id{1};

thread_local uint64_t t_current_span = 0;
// Innermost open span on this thread (chained via Span::prev_open_), so a
// crash report can name the stages in flight even though records are only
// written on close.
thread_local Span* t_open_span = nullptr;

}  // namespace

uint64_t TraceNowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

void SetTraceEnabled(bool enabled) {
  if (enabled) {
    Mode().fetch_or(kTraceBit, std::memory_order_relaxed);
  } else {
    Mode().fetch_and(~kTraceBit, std::memory_order_relaxed);
  }
}

bool TraceEnabled() {
  return (Mode().load(std::memory_order_relaxed) & kTraceBit) != 0;
}

void SetMetricsEnabled(bool enabled) {
  if (enabled) {
    Mode().fetch_or(kMetricsBit, std::memory_order_relaxed);
  } else {
    Mode().fetch_and(~kMetricsBit, std::memory_order_relaxed);
  }
}

bool MetricsEnabled() {
  return (Mode().load(std::memory_order_relaxed) & kMetricsBit) != 0;
}

void SetProfilerSpansEnabled(bool enabled) {
  if (enabled) {
    Mode().fetch_or(kProfileBit, std::memory_order_relaxed);
  } else {
    Mode().fetch_and(~kProfileBit, std::memory_order_relaxed);
  }
}

void SetEventLogSpansEnabled(bool enabled) {
  if (enabled) {
    Mode().fetch_or(kEventLogBit, std::memory_order_relaxed);
  } else {
    Mode().fetch_and(~kEventLogBit, std::memory_order_relaxed);
  }
}

Span::Span(const char* name) : Span(name, std::string()) {}

Span::Span(const char* name, std::string detail) {
  const uint32_t mode = Mode().load(std::memory_order_relaxed);
  if (mode == 0) return;  // the fast path
  active_ = true;
  name_ = name;
  detail_ = std::move(detail);
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  prev_current_ = t_current_span;
  t_current_span = id_;
  prev_open_ = t_open_span;
  // The SIGPROF handler walks the chain from t_open_span; the fence keeps
  // the compiler from publishing the pointer before name_/prev_open_ are
  // written (same-thread signal visibility needs only a compiler barrier).
  std::atomic_signal_fence(std::memory_order_release);
  t_open_span = this;
  if ((mode & kProfileBit) != 0) {
    // Allocates this thread's sample ring on first use -- off-signal, so
    // the handler itself never has to.
    ProfilerEnsureThreadRegistered();
  }
  perf_start_ = ThreadPerfCounters();
  const AllocStats allocs = ThreadAllocStats();
  alloc_bytes_start_ = allocs.bytes;
  allocs_start_ = allocs.count;
  start_ns_ = TraceNowNs();
}

Span::~Span() {
  if (!active_) return;
  const uint64_t end_ns = TraceNowNs();
  // Allocation deltas are read before the tracer itself allocates (record
  // blocks, histogram map nodes), so tracer-internal allocations land on the
  // enclosing span, never on the span being closed.
  const AllocStats allocs = ThreadAllocStats();
  const uint64_t alloc_bytes = allocs.bytes - alloc_bytes_start_;
  const uint64_t alloc_count = allocs.count - allocs_start_;
  // ok=false (and zero) unless counters were enabled for the whole span.
  const PerfCounterValues perf_delta = ThreadPerfCounters() - perf_start_;
  t_current_span = prev_current_;
  std::atomic_signal_fence(std::memory_order_release);
  t_open_span = prev_open_;
  if (perf_delta.ok) AccumulateStageCounters(name_, perf_delta);
  const uint32_t mode = Mode().load(std::memory_order_relaxed);
  if ((mode & kMetricsBit) != 0) {
    StageHistogram(name_).Observe(static_cast<double>(end_ns - start_ns_) *
                                  1e-9);
    if (MemoryTrackingEnabled()) {
      StageAllocHistogram(name_).Observe(static_cast<double>(alloc_bytes));
    }
  }
  // Event-log reporting happens before the trace append consumes detail_.
  if ((mode & kEventLogBit) != 0) {
    MaybeEmitSpanEvent(name_, detail_, start_ns_, end_ns);
  }
  if ((mode & kTraceBit) != 0) {
    SpanRecord record;
    record.name = name_;
    record.detail = std::move(detail_);
    record.id = id_;
    record.parent = prev_current_;
    record.start_ns = start_ns_;
    record.end_ns = end_ns;
    record.alloc_bytes = alloc_bytes;
    record.allocs = alloc_count;
    record.perf = perf_delta;
    ThreadState& state = LocalThreadState();
    record.tid = state.tid;
    state.spans.Append(std::move(record));
  }
}

uint64_t CurrentSpanId() { return t_current_span; }

size_t OpenSpanNamesForSignal(const char** names, size_t max_names) {
  std::atomic_signal_fence(std::memory_order_acquire);
  size_t n = 0;
  for (const Span* span = t_open_span; span != nullptr && n < max_names;
       span = span->prev_open_) {
    names[n++] = span->name_;
  }
  return n;
}

const char* CurrentSpanName() {
  return t_open_span != nullptr ? t_open_span->name_ : nullptr;
}

std::vector<std::string> CurrentSpanStack() {
  std::vector<std::string> names;
  for (const Span* span = t_open_span; span != nullptr;
       span = span->prev_open_) {
    std::string entry = span->name_;
    if (!span->detail_.empty()) {
      entry += " [";
      entry += span->detail_;
      entry += "]";
    }
    names.push_back(std::move(entry));
  }
  std::reverse(names.begin(), names.end());  // outermost first
  return names;
}

ParentScope::ParentScope(uint64_t parent_span) : prev_(t_current_span) {
  t_current_span = parent_span;
}

ParentScope::~ParentScope() { t_current_span = prev_; }

namespace internal_thread_state {

ThreadState& LocalThreadState() {
  thread_local ThreadState* state = [] {
    auto fresh = std::make_unique<ThreadState>();
    ThreadRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    fresh->tid = static_cast<uint32_t>(registry.states.size());
    fresh->name = "thread-" + std::to_string(fresh->tid);
    registry.states.push_back(std::move(fresh));
    return registry.states.back().get();
  }();
  return *state;
}

std::vector<ThreadState*> RegisteredThreadStates() {
  ThreadRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<ThreadState*> states;
  states.reserve(registry.states.size());
  for (const auto& state : registry.states) states.push_back(state.get());
  return states;
}

}  // namespace internal_thread_state

void SetCurrentThreadName(std::string name) {
  ThreadState& state = LocalThreadState();
  ThreadRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  state.name = std::move(name);
}

std::vector<std::pair<uint32_t, std::string>> ThreadNames() {
  std::vector<std::pair<uint32_t, std::string>> names;
  ThreadRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  names.reserve(registry.states.size());
  for (const auto& state : registry.states) {
    names.emplace_back(state->tid, state->name);
  }
  return names;
}

std::vector<SpanRecord> SnapshotSpans() {
  std::vector<SpanRecord> out;
  ThreadRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& state : registry.states) {
    state->spans.Peek([&out](const SpanRecord& span) { out.push_back(span); });
  }
  return out;
}

void ResetSpans() {
  ThreadRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& state : registry.states) {
    state->spans.Consume([](SpanRecord&) {});
  }
}

std::string ChromeTraceJson() {
  const std::vector<SpanRecord> spans = SnapshotSpans();
  // Profiler sample counts keyed by span id, stamped onto span args below;
  // empty when the profiler never ran.
  const std::map<uint64_t, uint64_t> profile_samples =
      SpanIdProfileSampleCounts();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : ThreadNames()) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":" + JsonQuote(name) +
           "}}";
  }
  for (const SpanRecord& span : spans) {
    if (!first) out += ",";
    first = false;
    // Chrome expects microsecond ts/dur; keep ns precision as fractions.
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(span.tid);
    out += ",\"name\":" + JsonQuote(span.name);
    out += ",\"ts\":" + JsonNumber(static_cast<double>(span.start_ns) / 1e3,
                                   15);
    out += ",\"dur\":" +
           JsonNumber(static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                      15);
    out += ",\"args\":{\"id\":" + std::to_string(span.id);
    out += ",\"parent\":" + std::to_string(span.parent);
    if (!span.detail.empty()) out += ",\"detail\":" + JsonQuote(span.detail);
    if (span.allocs != 0) {
      out += ",\"alloc_bytes\":" + std::to_string(span.alloc_bytes);
      out += ",\"allocs\":" + std::to_string(span.allocs);
    }
    const auto samples_it = profile_samples.find(span.id);
    if (samples_it != profile_samples.end()) {
      out += ",\"profile_samples\":" + std::to_string(samples_it->second);
    }
    if (span.perf.ok) {
      out += ",\"cycles\":" + std::to_string(span.perf.cycles);
      out += ",\"instructions\":" + std::to_string(span.perf.instructions);
      out += ",\"cache_misses\":" + std::to_string(span.perf.cache_misses);
      out += ",\"branch_misses\":" + std::to_string(span.perf.branch_misses);
    }
    out += "}}";
  }
  // RSS timeline: "ph":"C" counter events from the resource sampler render
  // as counter tracks under the span rows in Perfetto.
  const std::string counters = ResourceCounterEventsJson();
  if (!counters.empty()) {
    if (!first) out += ",";
    first = false;
    out += counters;
  }
  // Profiler sample track: cumulative samples on the same TraceNowNs clock,
  // so the track lines up with the span rows it sampled.
  const std::string samples_track = ProfilerCounterEventsJson();
  if (!samples_track.empty()) {
    if (!first) out += ",";
    out += samples_track;
  }
  out += "]}";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  // Atomic publication: a crash (or injected fault) mid-export can never
  // leave a torn half-JSON at `path`.
  return WriteFileAtomic(path, ChromeTraceJson());
}

namespace {

// TG_CHECK failure hook: make crashes debuggable. Prints the open span
// stack (the stages in flight when the invariant broke), dumps the metrics
// table, and writes the buffered spans as a Chrome trace so the post-mortem
// has a timeline. Everything is best-effort; the process aborts right after.
void CrashReportHook() {
  const std::vector<std::string> stack = CurrentSpanStack();
  if (!stack.empty()) {
    std::fprintf(stderr, "open span stack (outermost first):\n");
    for (const std::string& frame : stack) {
      std::fprintf(stderr, "  %s\n", frame.c_str());
    }
  }
  if (MetricsEnabled()) {
    const std::string table = MetricsRegistry::Instance().RenderTable();
    std::fwrite(table.data(), 1, table.size(), stderr);
  }
  if (TraceEnabled()) {
    const char* env = std::getenv("TG_CRASH_TRACE");
    const std::string path =
        (env != nullptr && *env != '\0') ? env : "tg_crash_trace.json";
    if (WriteChromeTrace(path).ok()) {
      std::fprintf(stderr, "crash trace written to %s\n", path.c_str());
    }
  }
  std::fflush(stderr);
}

// Installed at static-init time so every binary linking the obs layer gets
// crash reports without opting in.
[[maybe_unused]] const bool g_crash_hook_installed = [] {
  tg::internal_check::InstallCheckFailureHook(&CrashReportHook);
  // Stderr log lines carry the innermost open span ("@span_name") so logs
  // and spans correlate even without the structured event log.
  SetLogSpanProvider(&CurrentSpanName);
  return true;
}();

}  // namespace

}  // namespace tg::obs
