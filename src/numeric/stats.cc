#include "numeric/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "util/check.h"

namespace tg {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = std::accumulate(values.begin(), values.end(), 0.0);
  return acc / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - mu) * (v - mu);
  return acc / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double Min(const std::vector<double>& values) {
  TG_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  TG_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

double Quantile(std::vector<double> values, double q) {
  TG_CHECK(!values.empty());
  TG_CHECK_GE(q, 0.0);
  TG_CHECK_LE(q, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  TG_CHECK_EQ(a.size(), b.size());
  if (a.size() < 2) return 0.0;
  const double ma = Mean(a);
  const double mb = Mean(b);
  double cov = 0.0;
  double va = 0.0;
  double vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  const double denom = std::sqrt(va * vb);
  if (denom <= 0.0) return 0.0;
  return cov / denom;
}

namespace {

// Maps a double to an unsigned key in the same order: a < b implies
// OrderKey(a) < OrderKey(b), and -0.0 takes +0.0's key, so two values are
// equal exactly when their keys are (NaN aside).
uint64_t OrderKey(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

}  // namespace

std::vector<double> AverageRanks(const std::vector<double>& values) {
  const size_t n = values.size();
  if (n == 0) return {};
  // LSD radix sort of (key, index) pairs, one key byte per pass. One
  // counting sweep fills every pass's histogram, and a pass whose byte is
  // the same in every key moves nothing, so it is skipped.
  struct Item {
    uint64_t key;
    size_t index;
  };
  std::vector<Item> sorted(n);
  std::vector<Item> scratch(n);
  std::vector<size_t> counts(8 * 256, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = OrderKey(values[i]);
    sorted[i] = {key, i};
    for (int pass = 0; pass < 8; ++pass) {
      ++counts[pass * 256 + ((key >> (8 * pass)) & 0xFF)];
    }
  }
  for (int pass = 0; pass < 8; ++pass) {
    size_t* count = counts.data() + pass * 256;
    const int shift = 8 * pass;
    if (count[(sorted[0].key >> shift) & 0xFF] == n) continue;
    size_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const size_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (const Item& item : sorted) {
      scratch[count[(item.key >> shift) & 0xFF]++] = item;
    }
    sorted.swap(scratch);
  }
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && sorted[j + 1].key == sorted[i].key) ++j;
    // Tie block [i, j]: assign the average of ranks i+1 .. j+1.
    const double avg = (static_cast<double>(i + 1) +
                        static_cast<double>(j + 1)) / 2.0;
    for (size_t k = i; k <= j; ++k) ranks[sorted[k].index] = avg;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  TG_CHECK_EQ(a.size(), b.size());
  return PearsonCorrelation(AverageRanks(a), AverageRanks(b));
}

std::vector<double> MinMaxNormalize(const std::vector<double>& values) {
  if (values.empty()) return {};
  const double lo = Min(values);
  const double hi = Max(values);
  std::vector<double> out(values.size());
  if (hi - lo <= 0.0) {
    std::fill(out.begin(), out.end(), 0.5);
    return out;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = (values[i] - lo) / (hi - lo);
  }
  return out;
}

double CorrelationDistance(const std::vector<double>& a,
                           const std::vector<double>& b) {
  return 1.0 - PearsonCorrelation(a, b);
}

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  TG_CHECK_EQ(a.size(), b.size());
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  TG_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace tg
