// Allocation accounting: global operator new interposition feeding
// thread-local allocation counters, attributed to the active span by
// obs::Span (alloc_bytes / allocs on every SpanRecord, plus
// "stage.<name>.alloc_bytes" histograms when metrics are enabled).
//
// Cost model: the replacement operator new begins with one relaxed atomic
// load of the tracking flag. When tracking is disabled (the default) that
// load is the entire added cost -- allocation then forwards straight to
// malloc, exactly as the default operator new does. operator delete is never
// instrumented at all (frees are not netted; see below), so the disabled
// hot path is provably one relaxed load per allocation and zero per free.
//
// What is counted: requested bytes and call count of every successful
// operator new / new[] (aligned and nothrow variants included) on the
// calling thread, from the moment tracking is enabled. What is NOT counted:
// frees (the counters are gross allocation, not live bytes -- use the
// resource sampler for RSS), malloc/calloc called directly by C code, and
// allocations made before a thread's counters are registered inside the
// first tracked allocation (the registration itself is excluded via a
// re-entrancy guard).
//
// Determinism contract: tracking only increments counters that nothing in
// numeric code ever reads back, and the replacement operator new returns
// malloc's pointer untouched in both modes -- pipeline outputs are
// bit-identical with tracking on or off (tests/obs_memory_test.cc).
//
// Enabling: SetMemoryTrackingEnabled() at runtime, the TG_MEM_TRACK
// environment variable at startup, or `tg_cli --mem`.
#ifndef TG_OBS_MEMORY_H_
#define TG_OBS_MEMORY_H_

#include <cstdint>

namespace tg::obs {

// Turns allocation accounting on or off process-wide. Counters freeze (not
// reset) when disabled, so sections can be bracketed.
void SetMemoryTrackingEnabled(bool enabled);
bool MemoryTrackingEnabled();

struct AllocStats {
  uint64_t bytes = 0;  // requested bytes, gross (frees not subtracted)
  uint64_t count = 0;  // number of operator new calls

  AllocStats operator-(const AllocStats& other) const {
    return {bytes - other.bytes, count - other.count};
  }
};

// This thread's counters since its first tracked allocation. Owner-thread
// relaxed loads: cheap enough for obs::Span to snapshot on open and close.
AllocStats ThreadAllocStats();

// Sum over every thread that ever allocated under tracking (counters of
// exited threads are retained, like trace buffers). Takes the registry lock;
// for reports, not hot paths.
AllocStats TotalAllocStats();

// True when environment variable `name` is set, non-empty and not "0": the
// one reader of the obs on/off switches (TG_TRACE, TG_METRICS, TG_MEM_TRACK,
// TG_PERF_COUNTERS). Allocation-free, because TG_MEM_TRACK is read from a
// dynamic initializer that may run before the operator-new hook is safe.
bool EnvFlagSet(const char* name);

}  // namespace tg::obs

#endif  // TG_OBS_MEMORY_H_
