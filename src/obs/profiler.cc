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
#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <ucontext.h>
#include <unistd.h>
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

// One STT_FUNC entry of an object's .symtab: [addr, addr + size) in the
// object's link-time addresses.
struct FunctionSymbol {
  uint64_t addr = 0;
  uint64_t size = 0;
  std::string name;
};

struct ProfileAggregates {
  std::mutex mu;
  uint64_t samples = 0;
  std::map<std::string, uint64_t> stacks;       // collapsed key -> count
  std::map<std::string, uint64_t> span_counts;  // innermost span name
  std::map<uint64_t, uint64_t> span_id_counts;
  std::map<std::string, uint64_t> symbols;  // interrupted-PC symbol
  std::map<uintptr_t, std::string> symbol_cache;
  // .symtab of each object that held a PC dladdr could not name, loaded on
  // the first such PC (empty when the file is stripped or unreadable).
  std::map<std::string, std::vector<FunctionSymbol>> function_tables;
  std::vector<uint64_t> sample_times_ns;
};

ProfileAggregates& Aggregates() {
  static ProfileAggregates* agg = new ProfileAggregates;
  return *agg;
}

#if defined(__linux__)

std::string Demangle(const char* symbol) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(symbol, nullptr, nullptr, &status);
  std::string name = status == 0 && demangled != nullptr ? demangled : symbol;
  std::free(demangled);
  return name;
}

// The function symbols (mangled names) of the .symtab of a 64-bit ELF
// image of `size` bytes, sorted by address. A stripped or malformed image
// yields an empty or partial table, never a crash: every offset, count and
// string index read from it is range-checked, and every struct is copied
// out, so no read is out of bounds or misaligned.
std::vector<FunctionSymbol> FunctionSymbols(const char* file, uint64_t size) {
  std::vector<FunctionSymbol> table;
  // `count` entries of `entry` bytes at `offset` lie inside the image.
  const auto fits = [size](uint64_t offset, uint64_t count, uint64_t entry) {
    return offset <= size && count <= (size - offset) / entry;
  };
  Elf64_Ehdr ehdr{};
  if (fits(0, 1, sizeof(ehdr))) std::memcpy(&ehdr, file, sizeof(ehdr));
  if (std::memcmp(ehdr.e_ident, ELFMAG, SELFMAG) != 0 ||
      ehdr.e_ident[EI_CLASS] != ELFCLASS64 ||
      ehdr.e_shentsize != sizeof(Elf64_Shdr) ||
      !fits(ehdr.e_shoff, ehdr.e_shnum, sizeof(Elf64_Shdr))) {
    return table;
  }
  const auto section_at = [&](size_t i) {
    Elf64_Shdr section;
    std::memcpy(&section, file + ehdr.e_shoff + i * sizeof(section),
                sizeof(section));
    return section;
  };
  for (size_t i = 0; i < ehdr.e_shnum; ++i) {
    const Elf64_Shdr symtab = section_at(i);
    if (symtab.sh_type != SHT_SYMTAB || symtab.sh_link >= ehdr.e_shnum) {
      continue;
    }
    const Elf64_Shdr strtab = section_at(symtab.sh_link);
    const uint64_t count = symtab.sh_size / sizeof(Elf64_Sym);
    if (!fits(symtab.sh_offset, count, sizeof(Elf64_Sym)) ||
        !fits(strtab.sh_offset, strtab.sh_size, 1)) {
      continue;
    }
    for (uint64_t k = 0; k < count; ++k) {
      Elf64_Sym sym;
      std::memcpy(&sym, file + symtab.sh_offset + k * sizeof(sym),
                  sizeof(sym));
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
          sym.st_shndx == SHN_UNDEF || sym.st_name >= strtab.sh_size) {
        continue;
      }
      const char* name = file + strtab.sh_offset + sym.st_name;
      const size_t max_len = strtab.sh_size - sym.st_name;
      const size_t len = strnlen(name, max_len);
      if (len == 0 || len == max_len) continue;  // empty or unterminated
      table.push_back({sym.st_value, sym.st_size, std::string(name, len)});
    }
  }
  std::sort(table.begin(), table.end(),
            [](const FunctionSymbol& a, const FunctionSymbol& b) {
              return a.addr < b.addr;
            });
  return table;
}

// FunctionSymbols of the file at `path`; empty when it cannot be mapped.
std::vector<FunctionSymbol> LoadFunctionTable(const char* path) {
  const int fd = open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  struct stat st;
  void* map = MAP_FAILED;
  if (fstat(fd, &st) == 0 && st.st_size > 0) {
    map = mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
               MAP_PRIVATE, fd, 0);
  }
  close(fd);
  if (map == MAP_FAILED) return {};
  const size_t size = static_cast<size_t>(st.st_size);
  const auto unmap = [size](void* p) { munmap(p, size); };
  const std::unique_ptr<void, decltype(unmap)> mapping(map, unmap);
  return FunctionSymbols(static_cast<const char*>(map), size);
}

// The .symtab function holding `pc`, for PCs in internal-linkage functions,
// which dladdr cannot name because they are absent from .dynsym. `object`
// is the loaded object holding `pc`; l_addr is its load bias, so
// `pc - l_addr` is the link-time address (pc - dli_fbase for a PIE or a
// shared library).
std::string SymtabName(
    uintptr_t pc, const Dl_info& info, const link_map* object,
    std::map<std::string, std::vector<FunctionSymbol>>* tables) {
  if (info.dli_fname == nullptr || object == nullptr) return "";
  auto it = tables->find(info.dli_fname);
  if (it == tables->end()) {
    it = tables->emplace(info.dli_fname, LoadFunctionTable(info.dli_fname))
             .first;
  }
  const std::vector<FunctionSymbol>& table = it->second;
  const uint64_t addr = static_cast<uint64_t>(pc - object->l_addr);
  const auto after = std::upper_bound(
      table.begin(), table.end(), addr,
      [](uint64_t a, const FunctionSymbol& f) { return a < f.addr; });
  if (after == table.begin()) return "";
  const FunctionSymbol& f = *std::prev(after);
  return addr - f.addr < f.size ? Demangle(f.name.c_str()) : "";
}

#endif  // __linux__

std::string SymbolizePc(uintptr_t pc, ProfileAggregates* agg) {
  const auto it = agg->symbol_cache.find(pc);
  if (it != agg->symbol_cache.end()) return it->second;
  std::string name;
#if defined(__linux__)
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  link_map* object = nullptr;
  if (dladdr1(reinterpret_cast<void*>(pc), &info,
              reinterpret_cast<void**>(&object), RTLD_DL_LINKMAP) != 0) {
    name = info.dli_sname != nullptr
               ? Demangle(info.dli_sname)
               : SymtabName(pc, info, object, &agg->function_tables);
    // An object with no symbol for `pc` (a stripped libm or libc) is named
    // itself, so its samples share one row instead of one hex row per PC.
    if (name.empty() && info.dli_fname != nullptr &&
        *info.dli_fname != '\0') {
      const char* slash = std::strrchr(info.dli_fname, '/');
      name = std::string("[") +
             (slash != nullptr ? slash + 1 : info.dli_fname) + "]";
    }
  }
#endif
  if (name.empty()) {
    char hex[2 + 2 * sizeof(uintptr_t) + 1];
    std::snprintf(hex, sizeof(hex), "0x%zx", static_cast<size_t>(pc));
    name = hex;
  }
  // Collapsed-stack separators must not appear inside a frame name.
  std::replace(name.begin(), name.end(), ';', ',');
  agg->symbol_cache[pc] = name;
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
    const std::string symbol = SymbolizePc(s.pc, agg);
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
  if (hz == 0) hz = kProfilerDefaultHz;
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

std::string ProfilerFrameName(uintptr_t pc) {
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  return SymbolizePc(pc, &agg);
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
