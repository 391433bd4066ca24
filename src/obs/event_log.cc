#include "obs/event_log.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/thread_state.h"
#include "obs/trace.h"
#include "util/json_util.h"

namespace tg::obs {

namespace internal_event_log {
std::atomic<bool> g_enabled{false};
}  // namespace internal_event_log

namespace {

using internal_thread_state::EventRecord;
using internal_thread_state::ThreadState;

// --- Process-wide log state -------------------------------------------------

std::atomic<uint64_t> g_emitted{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<uint64_t> g_span_threshold_ns{10'000'000};  // 10 ms default
// Token bucket, in whole events. Writers take one token per accepted event;
// the drainer refills from the configured rate.
std::atomic<int64_t> g_tokens{0};

struct EventLogState {
  std::mutex mu;  // serializes Start/Stop
  std::FILE* file = nullptr;
  std::thread drainer;
  std::atomic<bool> stop{false};
  EventLogOptions options;
  std::string path;
  bool write_failed = false;
  // Drainer-only refill bookkeeping.
  uint64_t last_refill_ns = 0;
  double refill_carry = 0.0;
};

EventLogState& State() {
  static EventLogState* state = new EventLogState;
  return *state;
}

Counter& EmittedCounter() {
  static Counter& counter =
      MetricsRegistry::Instance().GetCounter("event_log.events");
  return counter;
}

Counter& DroppedCounter() {
  static Counter& counter =
      MetricsRegistry::Instance().GetCounter("event_log.dropped_events");
  return counter;
}

// Take one token or shed the event. Shedding is counted, never blocking.
bool TryTakeToken() {
  if (g_tokens.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    g_tokens.fetch_add(1, std::memory_order_relaxed);
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    DroppedCounter().Increment();
    return false;
  }
  g_emitted.fetch_add(1, std::memory_order_relaxed);
  EmittedCounter().Increment();
  return true;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

std::string FormatRecord(const EventRecord& record, uint32_t tid) {
  std::string out = "{\"ts_ns\":" + std::to_string(record.ts_ns);
  out += ",\"tid\":" + std::to_string(tid);
  out += ",\"kind\":" + JsonQuote(record.kind);
  if (std::strcmp(record.kind, "log") == 0) {
    out += ",\"level\":" + JsonQuote(LevelName(record.level));
    out += ",\"file\":" + JsonQuote(record.file);
    out += ",\"line\":" + std::to_string(record.line);
    out += ",\"msg\":" + JsonQuote(record.message);
  } else if (std::strcmp(record.kind, "span") == 0) {
    out += ",\"name\":" + JsonQuote(record.span_name);
    if (!record.detail.empty()) {
      out += ",\"detail\":" + JsonQuote(record.detail);
    }
    out += ",\"start_ns\":" + std::to_string(record.start_ns);
    out += ",\"dur_ns\":" + std::to_string(record.end_ns - record.start_ns);
  } else {
    out += ",\"msg\":" + JsonQuote(record.message);
    if (!record.detail.empty()) {
      out += ",\"detail\":" + JsonQuote(record.detail);
    }
  }
  out += ",\"spans\":[";
  for (size_t i = 0; i < record.span_chain.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonQuote(record.span_chain[i]);
  }
  out += "]}\n";
  return out;
}

// Formats (or discards) every record published since the last drain, on
// every thread. Drainer thread (or Start/Stop under the state mutex with the
// drainer not running) only. The registry list is copied under its lock and
// drained outside it, so thread registration never waits on a file write.
void DrainAll(EventLogState& state, bool discard) {
  for (ThreadState* thread : internal_thread_state::RegisteredThreadStates()) {
    thread->events.Consume([&](const EventRecord& record) {
      if (discard) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        DroppedCounter().Increment();
        return;
      }
      if (state.file == nullptr || state.write_failed) return;
      const std::string line = FormatRecord(record, thread->tid);
      if (std::fwrite(line.data(), 1, line.size(), state.file) !=
          line.size()) {
        // Keep draining (bounding memory) but stop writing; stderr, not
        // TG_LOG, to avoid re-entering the event log.
        std::fprintf(stderr, "event log write failed (%s); disabling file\n",
                     state.path.c_str());
        state.write_failed = true;
      }
    });
  }
}

void RefillTokens(EventLogState& state) {
  const uint64_t now = TraceNowNs();
  if (state.last_refill_ns == 0) state.last_refill_ns = now;
  const double dt = static_cast<double>(now - state.last_refill_ns) * 1e-9;
  state.last_refill_ns = now;
  const double refill = dt * state.options.rate_per_sec + state.refill_carry;
  const int64_t whole = static_cast<int64_t>(refill);
  state.refill_carry = refill - static_cast<double>(whole);
  if (whole <= 0) return;
  const int64_t burst = static_cast<int64_t>(state.options.burst);
  int64_t current = g_tokens.load(std::memory_order_relaxed);
  while (current < burst &&
         !g_tokens.compare_exchange_weak(
             current, std::min(burst, current + whole),
             std::memory_order_relaxed)) {
  }
}

void DrainerLoop(EventLogState& state) {
  while (!state.stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(state.options.flush_interval_ms));
    RefillTokens(state);
    DrainAll(state, /*discard=*/false);
    if (state.file != nullptr && !state.write_failed) std::fflush(state.file);
  }
  // Final drain after the enabled flag went down: everything accepted
  // before the flip lands in the file.
  DrainAll(state, /*discard=*/false);
  if (state.file != nullptr && !state.write_failed) std::fflush(state.file);
}

std::vector<std::string> CaptureSpanChain() {
  // CurrentSpanStack is maintained whenever any obs mode bit is on, which
  // includes the event-log bit itself.
  return CurrentSpanStack();
}

void AppendRecord(EventRecord&& record) {
  record.ts_ns = TraceNowNs();
  internal_thread_state::LocalThreadState().events.Append(std::move(record));
}

// Installed as the util/logging.h sink while the log runs: every TG_LOG
// line becomes a structured record instead of a raw stderr line.
void LogSinkToEventLog(LogLevel level, const char* file, int line,
                       const std::string& message) {
  EmitLogEvent(level, file, line, message);
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

}  // namespace

Status StartEventLog(const std::string& path, const EventLogOptions& options) {
  EventLogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file != nullptr) {
    return Status::FailedPrecondition("event log already running (" +
                                      state.path + ")");
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("event log open " + path + ": " +
                            std::strerror(errno));
  }
  // Records that raced past a previous Stop are stale; shed them (counted)
  // so the new file starts at its own epoch.
  DrainAll(state, /*discard=*/true);
  state.file = file;
  state.path = path;
  state.options = options;
  state.write_failed = false;
  state.last_refill_ns = TraceNowNs();
  state.refill_carry = 0.0;
  state.stop.store(false, std::memory_order_release);
  g_span_threshold_ns.store(
      static_cast<uint64_t>(std::max(0.0, options.span_threshold_ms) * 1e6),
      std::memory_order_relaxed);
  g_tokens.store(static_cast<int64_t>(options.burst),
                 std::memory_order_relaxed);
  state.drainer = std::thread([&state] { DrainerLoop(state); });
  SetEventLogSpansEnabled(true);
  internal_event_log::g_enabled.store(true, std::memory_order_relaxed);
  SetLogSink(&LogSinkToEventLog);
  return Status::OK();
}

void StopEventLog() {
  EventLogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.file == nullptr) return;
  SetLogSink(nullptr);
  internal_event_log::g_enabled.store(false, std::memory_order_relaxed);
  SetEventLogSpansEnabled(false);
  state.stop.store(true, std::memory_order_release);
  if (state.drainer.joinable()) state.drainer.join();
  std::fclose(state.file);
  state.file = nullptr;
  state.path.clear();
}

bool MaybeStartEventLogFromEnv() {
  if (EventLogEnabled()) return true;
  const char* path = std::getenv("TG_EVENT_LOG");
  if (path == nullptr || *path == '\0') return false;
  EventLogOptions options;
  const double rate = EnvDouble("TG_EVENT_LOG_RATE", 0.0);
  if (rate > 0.0) {
    options.rate_per_sec = rate;
    options.burst = 2.0 * rate;
  }
  const double span_ms = EnvDouble("TG_EVENT_LOG_SPAN_MS", -1.0);
  if (span_ms >= 0.0) options.span_threshold_ms = span_ms;
  Status started = StartEventLog(path, options);
  if (!started.ok()) {
    std::fprintf(stderr, "event log unavailable: %s\n",
                 started.ToString().c_str());
    return false;
  }
  return true;
}

std::string EventLogPath() {
  EventLogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.path;
}

void EmitLogEvent(LogLevel level, const char* file, int line,
                  const std::string& message) {
  if (!EventLogEnabled() || !TryTakeToken()) return;
  EventRecord record;
  record.kind = "log";
  record.level = level;
  record.file = file;
  record.line = line;
  record.message = message;
  record.span_chain = CaptureSpanChain();
  AppendRecord(std::move(record));
}

void EmitEvent(const char* kind, const std::string& message,
               const std::string& detail) {
  if (!EventLogEnabled() || !TryTakeToken()) return;
  EventRecord record;
  record.kind = kind;
  record.message = message;
  record.detail = detail;
  record.span_chain = CaptureSpanChain();
  AppendRecord(std::move(record));
}

void MaybeEmitSpanEvent(const char* name, const std::string& detail,
                        uint64_t start_ns, uint64_t end_ns) {
  if (!EventLogEnabled()) return;
  if (end_ns - start_ns <
      g_span_threshold_ns.load(std::memory_order_relaxed)) {
    return;
  }
  if (!TryTakeToken()) return;
  EventRecord record;
  record.kind = "span";
  record.span_name = name;
  record.detail = detail;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  // ~Span emits after restoring the open chain, so the captured chain is
  // the enclosing stack (the span itself is the "name" field).
  record.span_chain = CaptureSpanChain();
  AppendRecord(std::move(record));
}

uint64_t EventLogEmittedCount() {
  return g_emitted.load(std::memory_order_relaxed);
}

uint64_t EventLogDroppedCount() {
  return g_dropped.load(std::memory_order_relaxed);
}

}  // namespace tg::obs
