#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/json_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

#if defined(__linux__)
#include <dlfcn.h>
#include <ucontext.h>
#include <cxxabi.h>
#endif

namespace tg::obs {
namespace {

constexpr size_t kMaxSpanDepth = 8;
// Ring capacity per thread: ~42s of samples at the default 97 Hz before a
// drain is needed; a full ring drops (and counts) rather than overwrites,
// so the drain side never races a writer on the same slot.
constexpr size_t kRingCapacity = 4096;

// One sample, written entirely inside the signal handler. Span names are
// static-storage string pointers captured from the open-span chain
// (innermost first); `pc` is the interrupted instruction (0 = unknown).
// No caller frames: the Release build omits frame pointers, so a walk of
// the RBP chain would follow whatever the register happens to hold.
struct RawSample {
  uint64_t t_ns = 0;
  uint64_t span_id = 0;
  uint32_t num_names = 0;
  const char* names[kMaxSpanDepth];
  uintptr_t pc = 0;
};

// Lock-free SPSC ring: the owning thread's signal handler publishes with a
// release store of `published`; the drain thread consumes with an acquire
// load and advances `consumed` with a release store the handler reads with
// an acquire load before reusing a slot.
struct ThreadSampleBuffer {
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> consumed{0};
  RawSample slots[kRingCapacity];
};

struct SampleRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadSampleBuffer>> buffers;
};

SampleRegistry& Registry() {
  // Leaked (like the trace-buffer registry) so buffers outlive thread exit
  // and remain drainable until process end.
  static SampleRegistry* registry = new SampleRegistry;
  return *registry;
}

// Raw pointer read by the signal handler; the shared_ptr holder (plus the
// registry) keeps the buffer alive. Signals on this thread are sequenced
// with these writes, so a plain store plus a signal fence suffices.
thread_local ThreadSampleBuffer* t_buffer_raw = nullptr;
thread_local std::shared_ptr<ThreadSampleBuffer> t_buffer_holder;

std::atomic<bool> g_running{false};
std::atomic<uint64_t> g_dropped{0};
std::mutex g_lifecycle_mu;
int g_hz = 0;  // guarded by g_lifecycle_mu for writes; reports read racily
#if defined(__linux__)
timer_t g_timer;
bool g_handler_installed = false;  // guarded by g_lifecycle_mu
#endif

// --- Signal handler ---------------------------------------------------------

#if defined(__linux__)

// The interrupted instruction from the signal context.
uintptr_t InterruptedPc(const void* uc_void) {
  if (uc_void == nullptr) return 0;
  const ucontext_t* uc = static_cast<const ucontext_t*>(uc_void);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
  return 0;
#endif
}

// Async-signal-safe by construction: thread-local memory allocated
// off-signal, relaxed/acquire/release atomics, the (primed) trace clock,
// and ucontext register reads. No allocation, no locks, no stdio.
void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* uc_void) {
  const int saved_errno = errno;
  if (g_running.load(std::memory_order_relaxed)) {
    ThreadSampleBuffer* buf = t_buffer_raw;
    if (buf == nullptr) {
      // Thread never opened a span since profiling started: no buffer was
      // allocated off-signal, so the sample is dropped, not taken unsafely.
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      const uint64_t w = buf->published.load(std::memory_order_relaxed);
      if (w - buf->consumed.load(std::memory_order_acquire) >=
          kRingCapacity) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        RawSample& s = buf->slots[w % kRingCapacity];
        s.t_ns = TraceNowNs();
        s.span_id = CurrentSpanId();
        s.num_names = static_cast<uint32_t>(
            OpenSpanNamesForSignal(s.names, kMaxSpanDepth));
        s.pc = InterruptedPc(uc_void);
        buf->published.store(w + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}

#endif  // __linux__

// --- Aggregates (off-signal) ------------------------------------------------

struct ProfileAggregates {
  std::mutex mu;
  uint64_t samples = 0;
  std::map<std::string, uint64_t> stacks;       // collapsed key -> count
  std::map<std::string, uint64_t> span_counts;  // innermost span name
  std::map<uint64_t, uint64_t> span_id_counts;
  std::map<std::string, uint64_t> symbols;  // interrupted-PC symbol
  std::map<uintptr_t, std::string> symbol_cache;
  std::vector<uint64_t> sample_times_ns;
};

ProfileAggregates& Aggregates() {
  static ProfileAggregates* agg = new ProfileAggregates;
  return *agg;
}

std::string SymbolizePc(uintptr_t pc,
                        std::map<uintptr_t, std::string>* cache) {
  const auto it = cache->find(pc);
  if (it != cache->end()) return it->second;
  std::string name;
#if defined(__linux__)
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  }
#endif
  if (name.empty()) {
    char hex[2 + 2 * sizeof(uintptr_t) + 1];
    std::snprintf(hex, sizeof(hex), "0x%zx", static_cast<size_t>(pc));
    name = hex;
  }
  // Collapsed-stack separators must not appear inside a frame name.
  std::replace(name.begin(), name.end(), ';', ',');
  (*cache)[pc] = name;
  return name;
}

void AggregateSample(const RawSample& s, ProfileAggregates* agg) {
  agg->samples += 1;
  agg->sample_times_ns.push_back(s.t_ns);
  const char* innermost =
      s.num_names > 0 ? s.names[0] : "(no span)";
  agg->span_counts[innermost] += 1;
  if (s.span_id != 0) agg->span_id_counts[s.span_id] += 1;

  // Collapsed key, root first: outermost span .. innermost span, then the
  // interrupted PC's symbol. Without a PC the innermost span stands in as
  // the symbol, so the report still attributes the sample.
  std::string key;
  for (size_t i = s.num_names; i > 0; --i) {
    if (!key.empty()) key += ';';
    key += s.names[i - 1];
  }
  if (s.pc != 0) {
    const std::string symbol = SymbolizePc(s.pc, &agg->symbol_cache);
    if (!key.empty()) key += ';';
    key += symbol;
    agg->symbols[symbol] += 1;
  } else {
    agg->symbols[std::string("span:") + innermost] += 1;
  }
  if (key.empty()) key = "(unattributed)";
  agg->stacks[key] += 1;
}

void DrainInto(ProfileAggregates* agg) {
  SampleRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buf : registry.buffers) {
    const uint64_t published = buf->published.load(std::memory_order_acquire);
    const uint64_t consumed = buf->consumed.load(std::memory_order_relaxed);
    for (uint64_t i = consumed; i < published; ++i) {
      AggregateSample(buf->slots[i % kRingCapacity], agg);
    }
    buf->consumed.store(published, std::memory_order_release);
  }
}

}  // namespace

int ProfilerDefaultHz() {
  const char* env = std::getenv("TG_PROFILE_HZ");
  if (env != nullptr && *env != '\0') {
    const int hz = std::atoi(env);
    if (hz > 0) return hz;
  }
  return 97;
}

bool ProfilerRunning() { return g_running.load(std::memory_order_relaxed); }

int ProfilerHz() { return g_hz; }

void ProfilerEnsureThreadRegistered() {
  if (t_buffer_raw != nullptr) return;
  if (!g_running.load(std::memory_order_relaxed)) return;
  auto fresh = std::make_shared<ThreadSampleBuffer>();
  {
    SampleRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(fresh);
  }
  t_buffer_holder = fresh;
  // Publish to the signal handler last; the fence keeps the buffer's
  // initialization from sinking below the pointer store.
  std::atomic_signal_fence(std::memory_order_release);
  t_buffer_raw = fresh.get();
}

Status StartProfiler(int hz) {
#if !defined(__linux__)
  (void)hz;
  return Status::FailedPrecondition(
      "sampling profiler requires Linux (timer_create/SIGPROF)");
#else
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (g_running.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("profiler already running");
  }
  if (hz == 0) hz = ProfilerDefaultHz();
  if (hz < 1 || hz > 10000) {
    return Status::InvalidArgument("profile rate out of range [1,10000]: " +
                                   std::to_string(hz));
  }
  (void)TraceNowNs();  // prime the trace epoch off-signal
  if (!g_handler_installed) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = &SigprofHandler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
      return Status::Internal(std::string("sigaction(SIGPROF): ") +
                              std::strerror(errno));
    }
    g_handler_installed = true;
  }
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &g_timer) != 0) {
    return Status::Internal(std::string("timer_create: ") +
                            std::strerror(errno));
  }
  g_hz = hz;
  g_running.store(true, std::memory_order_relaxed);
  SetProfilerSpansEnabled(true);
  ProfilerEnsureThreadRegistered();
  const long period_ns = 1000000000L / hz;
  struct itimerspec spec;
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    const Status status = Status::Internal(std::string("timer_settime: ") +
                                           std::strerror(errno));
    g_running.store(false, std::memory_order_relaxed);
    SetProfilerSpansEnabled(false);
    timer_delete(g_timer);
    return status;
  }
  return Status::OK();
#endif
}

Status StopProfiler() {
#if !defined(__linux__)
  return Status::OK();
#else
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (!g_running.load(std::memory_order_relaxed)) return Status::OK();
  struct itimerspec zero;
  std::memset(&zero, 0, sizeof(zero));
  timer_settime(g_timer, 0, &zero, nullptr);
  timer_delete(g_timer);
  // The handler stays installed: a SIGPROF already in flight when the timer
  // was disarmed would otherwise hit the default disposition (terminate).
  // g_running gates it to a no-op instead.
  g_running.store(false, std::memory_order_relaxed);
  SetProfilerSpansEnabled(false);
  ProfilerDrain();
  return Status::OK();
#endif
}

void ProfilerDrain() {
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  DrainInto(&agg);
}

uint64_t ProfilerSampleCount() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  return agg.samples;
}

uint64_t ProfilerDroppedSampleCount() {
  return g_dropped.load(std::memory_order_relaxed);
}

void ResetProfile() {
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  {
    // Discard unconsumed samples without aggregating them.
    SampleRegistry& registry = Registry();
    std::lock_guard<std::mutex> registry_lock(registry.mu);
    for (const auto& buf : registry.buffers) {
      buf->consumed.store(buf->published.load(std::memory_order_acquire),
                          std::memory_order_release);
    }
  }
  agg.samples = 0;
  agg.stacks.clear();
  agg.span_counts.clear();
  agg.span_id_counts.clear();
  agg.symbols.clear();
  agg.sample_times_ns.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::string CollapsedStacks() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  std::string out;
  for (const auto& [key, count] : agg.stacks) {
    out += key;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

Status WriteCollapsedStacks(const std::string& path) {
  return WriteFileAtomic(path, CollapsedStacks());
}

std::string ProfileReportTable(size_t top_n) {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  if (agg.symbols.empty()) return "";
  std::vector<std::pair<std::string, uint64_t>> rows(agg.symbols.begin(),
                                                     agg.symbols.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (rows.size() > top_n) rows.resize(top_n);
  TablePrinter table({"symbol", "samples", "%"});
  const double denom = agg.samples > 0 ? static_cast<double>(agg.samples) : 1;
  for (const auto& [symbol, count] : rows) {
    table.AddRow({symbol, std::to_string(count),
                  FormatDouble(100.0 * static_cast<double>(count) / denom,
                               1)});
  }
  return table.Render();
}

std::map<std::string, uint64_t> SpanProfileSampleCounts() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  return agg.span_counts;
}

std::map<uint64_t, uint64_t> SpanIdProfileSampleCounts() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  return agg.span_id_counts;
}

std::string ProfilerCounterEventsJson() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  if (agg.sample_times_ns.empty()) return "";
  std::vector<uint64_t> times = agg.sample_times_ns;
  std::sort(times.begin(), times.end());
  // Cumulative sample count on the shared trace clock; strided so a long
  // run emits at most ~200 counter events.
  const size_t stride = std::max<size_t>(1, times.size() / 200);
  std::string out;
  bool first = true;
  for (size_t i = 0; i < times.size(); ++i) {
    if (i % stride != 0 && i + 1 != times.size()) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"C\",\"pid\":1,\"name\":\"profiler_samples\",\"ts\":" +
           JsonNumber(static_cast<double>(times[i]) / 1e3, 15) +
           ",\"args\":{\"samples\":" + std::to_string(i + 1) + "}}";
  }
  return out;
}

std::string ProfileSummaryJson() {
  const uint64_t samples = ProfilerSampleCount();
  return "{\"hz\":" + std::to_string(g_hz) +
         ",\"samples\":" + std::to_string(samples) +
         ",\"dropped\":" + std::to_string(ProfilerDroppedSampleCount()) + "}";
}

}  // namespace tg::obs
