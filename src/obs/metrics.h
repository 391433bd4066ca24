// Process-wide metrics registry: named counters, gauges (accumulating
// doubles), and fixed-exponential-bucket histograms.
//
// Hot-path contract: instruments are resolved by name ONCE (call sites hold a
// function-local static reference) and then updated with a single relaxed
// atomic RMW -- safe from any thread, including pool workers, and never
// observable in pipeline results (metrics are write-only telemetry; nothing
// in the numeric code reads them back).
//
// Naming convention (see docs/observability.md):
//   <subsystem>.<object>.<event>        counters   e.g. pipeline.embedding_cache.hit
//   stage.<span_name>.seconds           histograms fed by obs::Span on close
//   thread_pool.worker_busy_seconds     gauges accumulate
#ifndef TG_OBS_METRICS_H_
#define TG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tg::obs {

class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A double-valued instrument supporting both Set (last-write-wins gauge
// semantics) and Add (accumulator semantics, e.g. busy-seconds).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) {
    // std::atomic<double>::fetch_add is a C++20 library feature
    // (P0020R6); older standard libraries declare atomic<double> without
    // it, so fall back to a CAS loop where the feature macro is absent.
#if defined(__cpp_lib_atomic_float) && __cpp_lib_atomic_float >= 201711L
    value_.fetch_add(v, std::memory_order_relaxed);
#else
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + v,
                                         std::memory_order_relaxed)) {
    }
#endif
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramOptions {
  // Bucket i covers (first_bound * growth^(i-1), first_bound * growth^i];
  // bucket 0 covers (-inf, first_bound]. One extra overflow bucket catches
  // everything above the last finite bound. Defaults span 1us .. ~34s in
  // powers of two -- suited to stage durations in seconds.
  double first_bound = 1e-6;
  double growth = 2.0;
  size_t num_buckets = 36;
};

class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options = {});

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // +inf / -inf respectively when empty.
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

  // Finite buckets + one overflow bucket.
  size_t num_buckets() const { return buckets_.size(); }
  // Inclusive upper bound of bucket i; +inf for the overflow bucket.
  double BucketUpperBound(size_t i) const;
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Bucket-resolution quantile estimate (returns the upper bound of the
  // bucket containing the q-quantile); 0 when empty.
  double Quantile(double q) const;

  void Reset();

  const HistogramOptions& options() const { return options_; }

 private:
  HistogramOptions options_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Point-in-time copy of one histogram's summary statistics. Quantiles are
// bucket-resolution estimates (see Histogram::Quantile).
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Point-in-time copy of the whole registry, for diffing (cold vs warm
// passes) and rendering without holding the registry lock.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  // Resolve-or-create by name. The returned references live as long as the
  // process; call sites cache them (function-local static) so the map lookup
  // happens once per site, not per event.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          const HistogramOptions& options = {});

  // Point-in-time copy of the registry.
  MetricsSnapshot Snapshot() const;

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  // Histograms include count/sum/min/max/p50/p95 and the nonzero buckets.
  std::string ToJson() const;

  // Aligned text table of every instrument (counters sorted first), rendered
  // through TablePrinter.
  std::string RenderTable() const;

  // Zeroes every registered instrument. For tests and benches only: callers
  // must be quiescent (no concurrent updates) or counts may be torn across
  // the reset boundary (individual operations stay atomic).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// The "stage.<span_name>.seconds" histogram fed by obs::Span when metrics
// are enabled; exposed so benches/CLI can read stage timings back.
Histogram& StageHistogram(const std::string& span_name);

// The "stage.<span_name>.alloc_bytes" histogram fed by obs::Span when
// metrics AND memory tracking (obs/memory.h) are both enabled: one
// observation per span close, valued at the span's inclusive allocated
// bytes. Buckets span 1 KiB .. ~32 TiB in powers of two.
Histogram& StageAllocHistogram(const std::string& span_name);

}  // namespace tg::obs

#endif  // TG_OBS_METRICS_H_
