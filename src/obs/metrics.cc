#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/json_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tg::obs {

Histogram::Histogram(const HistogramOptions& options)
    : options_(options), buckets_(options.num_buckets + 1) {
  // buckets_ value-initializes its atomics to zero (C++20).
}

double Histogram::BucketUpperBound(size_t i) const {
  if (i + 1 >= buckets_.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return options_.first_bound * std::pow(options_.growth,
                                         static_cast<double>(i));
}

void Histogram::Observe(double value) {
  size_t bucket = 0;
  if (value > options_.first_bound) {
    // ceil(log_growth(value / first_bound)), clamped into the overflow
    // bucket. log-based rather than a scan: O(1) for any bucket count.
    const double exact =
        std::log(value / options_.first_bound) / std::log(options_.growth);
    bucket = static_cast<size_t>(std::min(
        static_cast<double>(buckets_.size() - 1), std::ceil(exact - 1e-12)));
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // CAS loops for min/max: contention is negligible (span closes are coarse).
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += BucketCount(i);
    if (seen >= rank) {
      return i + 1 < buckets_.size() ? BucketUpperBound(i) : max();
    }
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(options);
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramStats s;
    s.count = h->count();
    s.sum = h->sum();
    s.min = s.count > 0 ? h->min() : 0.0;
    s.max = s.count > 0 ? h->max() : 0.0;
    s.p50 = h->Quantile(0.5);
    s.p95 = h->Quantile(0.95);
    s.p99 = h->Quantile(0.99);
    snap.histograms[name] = std::move(s);
  }
  return snap;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(name) + ":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(name) + ":" + JsonNumber(g->value(), 9);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    const uint64_t count = h->count();
    out += JsonQuote(name) + ":{\"count\":" + std::to_string(count);
    out += ",\"sum\":" + JsonNumber(h->sum(), 9);
    out += ",\"min\":" + JsonNumber(count > 0 ? h->min() : 0.0, 9);
    out += ",\"max\":" + JsonNumber(count > 0 ? h->max() : 0.0, 9);
    out += ",\"p50\":" + JsonNumber(h->Quantile(0.5), 9);
    out += ",\"p95\":" + JsonNumber(h->Quantile(0.95), 9);
    out += ",\"p99\":" + JsonNumber(h->Quantile(0.99), 9);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (size_t i = 0; i < h->num_buckets(); ++i) {
      const uint64_t n = h->BucketCount(i);
      if (n == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      const double le = h->BucketUpperBound(i);
      out += "{\"le\":";
      out += std::isfinite(le) ? JsonNumber(le, 9) : JsonQuote("inf");
      out += ",\"count\":" + std::to_string(n) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::RenderTable() const {
  const MetricsSnapshot snap = Snapshot();
  TablePrinter table({"metric", "type", "count", "value", "mean", "p50",
                      "p95", "p99", "max"});
  for (const auto& [name, value] : snap.counters) {
    table.AddRow({name, "counter", std::to_string(value), "", "", "", "", "",
                  ""});
  }
  for (const auto& [name, value] : snap.gauges) {
    table.AddRow({name, "gauge", "", FormatDouble(value, 6), "", "", "", "",
                  ""});
  }
  for (const auto& [name, h] : snap.histograms) {
    const double mean =
        h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    table.AddRow({name, "histogram", std::to_string(h.count),
                  FormatDouble(h.sum, 6), FormatDouble(mean, 6),
                  FormatDouble(h.p50, 6), FormatDouble(h.p95, 6),
                  FormatDouble(h.p99, 6), FormatDouble(h.max, 6)});
  }
  return table.Render();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

Histogram& StageHistogram(const std::string& span_name) {
  return MetricsRegistry::Instance().GetHistogram("stage." + span_name +
                                                  ".seconds");
}

Histogram& StageAllocHistogram(const std::string& span_name) {
  // Byte-scale buckets: 1 KiB * 2^i, 36 finite buckets (~32 TiB) + overflow.
  HistogramOptions options;
  options.first_bound = 1024.0;
  options.growth = 2.0;
  options.num_buckets = 36;
  return MetricsRegistry::Instance().GetHistogram(
      "stage." + span_name + ".alloc_bytes", options);
}

}  // namespace tg::obs
