#include "transferability/parc.h"

#include <algorithm>
#include <cmath>

#include "numeric/stats.h"
#include "util/rng.h"

namespace tg {
namespace {

// Independent covariance accumulators per row in the pair loop.
constexpr size_t kTile = 4;

// Lower-triangle entries (i > j, i-major) of the correlation-distance matrix
// of the given rows of `x`: bit for bit CorrelationDistance(row i, row j).
// PearsonCorrelation recomputes both rows' means, centred values and sums of
// squares for every pair. Here each row's are computed once, with the same
// sequential operations, so the pair loop accumulates only the covariance,
// in ascending k, for kTile pairs at a time. Fewer than two columns leave
// every Pearson term at its d < 2 zero, so every distance is exactly 1.
// This TU is built without -mfma, so no mul+add here contracts.
std::vector<double> PairwiseCorrelationDistances(
    const Matrix& x, const std::vector<size_t>& rows) {
  const size_t n = rows.size();
  const size_t d = x.cols();
  if (d < 2) return std::vector<double>(n * (n - 1) / 2, 1.0);

  std::vector<double> centred(n * d);
  std::vector<double> sq(n);
  for (size_t r = 0; r < n; ++r) {
    const double* src = x.RowPtr(rows[r]);
    double sum = 0.0;
    for (size_t k = 0; k < d; ++k) sum += src[k];
    const double mean = sum / static_cast<double>(d);
    double* c = centred.data() + r * d;
    double acc = 0.0;
    for (size_t k = 0; k < d; ++k) {
      c[k] = src[k] - mean;
      acc += c[k] * c[k];
    }
    sq[r] = acc;
  }

  std::vector<double> out(n * (n - 1) / 2);
  const auto finish = [&](size_t i, size_t j, double cov) {
    const double denom = std::sqrt(sq[i] * sq[j]);
    return 1.0 - (denom <= 0.0 ? 0.0 : cov / denom);
  };
  for (size_t i = 1; i < n; ++i) {
    const double* ci = centred.data() + i * d;
    double* row_out = out.data() + i * (i - 1) / 2;
    size_t j = 0;
    for (; j + kTile <= i; j += kTile) {
      const double* c0 = centred.data() + j * d;
      const double* c1 = c0 + d;
      const double* c2 = c1 + d;
      const double* c3 = c2 + d;
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (size_t k = 0; k < d; ++k) {
        const double v = ci[k];
        a0 += v * c0[k];
        a1 += v * c1[k];
        a2 += v * c2[k];
        a3 += v * c3[k];
      }
      row_out[j] = finish(i, j, a0);
      row_out[j + 1] = finish(i, j + 1, a1);
      row_out[j + 2] = finish(i, j + 2, a2);
      row_out[j + 3] = finish(i, j + 3, a3);
    }
    for (; j < i; ++j) {
      const double* cj = centred.data() + j * d;
      double a = 0.0;
      for (size_t k = 0; k < d; ++k) a += ci[k] * cj[k];
      row_out[j] = finish(i, j, a);
    }
  }
  return out;
}

// AverageRanks of the lower-triangle label distances of the one-hot rows
// e_{labels[i]}, bit for bit, without building or sorting them. A pair's
// label distance depends only on its two labels (CorrelationDistance(e_p,
// e_q) and (e_q, e_p) have the same bits), so it is one entry of a table
// over the class pairs in use. Sorting that table by value, each entry
// weighted by how many sample pairs carry it, gives every tie block's first
// and last position and so its average rank.
std::vector<double> LabelDistanceRanks(const std::vector<int>& labels,
                                       int num_classes) {
  const size_t n = labels.size();
  // Compact ids of the classes in use, in order of first appearance.
  std::vector<int> compact(static_cast<size_t>(num_classes), -1);
  std::vector<int> used;
  std::vector<size_t> members;
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    int& id = compact[static_cast<size_t>(labels[i])];
    if (id < 0) {
      id = static_cast<int>(used.size());
      used.push_back(labels[i]);
      members.push_back(0);
    }
    y[i] = id;
    ++members[static_cast<size_t>(id)];
  }
  const size_t u = used.size();

  // One entry per unordered class pair {p, q}, p <= q, that some sample
  // pair carries.
  struct Entry {
    double dist;
    size_t pairs;
    size_t p, q;
  };
  std::vector<Entry> entries;
  std::vector<double> ep(static_cast<size_t>(num_classes), 0.0);
  std::vector<double> eq(static_cast<size_t>(num_classes), 0.0);
  for (size_t p = 0; p < u; ++p) {
    ep[static_cast<size_t>(used[p])] = 1.0;
    for (size_t q = p; q < u; ++q) {
      const size_t pairs = p == q ? members[p] * (members[p] - 1) / 2
                                  : members[p] * members[q];
      if (pairs == 0) continue;
      eq[static_cast<size_t>(used[q])] = 1.0;
      entries.push_back({CorrelationDistance(ep, eq), pairs, p, q});
      eq[static_cast<size_t>(used[q])] = 0.0;
    }
    ep[static_cast<size_t>(used[p])] = 0.0;
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.dist < b.dist; });

  // Same average rank as AverageRanks gives a tie block spanning sorted
  // positions [start, start + count).
  std::vector<double> rank(u * u);
  size_t start = 0;
  for (size_t a = 0; a < entries.size();) {
    size_t b = a;
    size_t count = 0;
    for (; b < entries.size() && entries[b].dist == entries[a].dist; ++b) {
      count += entries[b].pairs;
    }
    const double avg = (static_cast<double>(start + 1) +
                        static_cast<double>(start + count)) / 2.0;
    for (; a < b; ++a) {
      rank[entries[a].p * u + entries[a].q] = avg;
      rank[entries[a].q * u + entries[a].p] = avg;
    }
    start += count;
  }

  std::vector<double> out;
  out.reserve(n * (n - 1) / 2);
  for (size_t i = 1; i < n; ++i) {
    const double* row = rank.data() + static_cast<size_t>(y[i]) * u;
    for (size_t j = 0; j < i; ++j) out.push_back(row[y[j]]);
  }
  return out;
}

}  // namespace

Result<double> ParcScore(const Matrix& features,
                         const std::vector<int>& labels, int num_classes,
                         const ParcOptions& options) {
  const size_t n = features.rows();
  if (n < 3 || features.cols() == 0) {
    return Status::InvalidArgument("need at least 3 samples with features");
  }
  if (labels.size() != n) {
    return Status::InvalidArgument("label size mismatch");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least two classes");
  }
  if (options.max_samples < 3) {
    return Status::InvalidArgument("max_samples must be at least 3");
  }
  for (int label : labels) {
    if (label < 0 || label >= num_classes) {
      return Status::OutOfRange("label outside [0, num_classes)");
    }
  }

  // Subsample for tractability (pairwise cost is quadratic).
  std::vector<size_t> keep;
  if (n > options.max_samples) {
    Rng rng(options.seed);
    keep = rng.SampleWithoutReplacement(n, options.max_samples);
    std::sort(keep.begin(), keep.end());
  } else {
    keep.resize(n);
    for (size_t i = 0; i < n; ++i) keep[i] = i;
  }
  std::vector<int> kept_labels(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) kept_labels[i] = labels[keep[i]];

  // Spearman correlation of the two distance lists, as SpearmanCorrelation
  // computes it: Pearson of their average ranks.
  const std::vector<double> feat_ranks =
      AverageRanks(PairwiseCorrelationDistances(features, keep));
  const std::vector<double> label_ranks =
      LabelDistanceRanks(kept_labels, num_classes);
  return 100.0 * PearsonCorrelation(feat_ranks, label_ranks);
}

}  // namespace tg
