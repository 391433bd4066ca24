#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ml/binning.h"
#include "numeric/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg::ml {
namespace {

struct NodeStats {
  double g = 0.0;
  double h = 0.0;
};

// Two doubles in one SSE2 (x86-64) or NEON (aarch64) register. Packed
// add and division are correctly rounded, and no FMA contraction applies
// (ISO mode, base ISA flags), so each lane computes exactly the scalar
// expression.
using Double2 = double __attribute__((vector_size(16)));

// Histogram bytes of one feature block: its bins stay in L1 while the
// node's rows scatter into them.
constexpr size_t kMaxBlockBytes = 16 * 1024;

// Rows scattered per pass over a block's features; they share each
// feature's slot load and loop overhead.
constexpr size_t kRowsPerPass = 4;

// XGBoost split gain for a left child (left_g, left_h) of a node with
// totals (total_g, total_h); V is double or Double2, one formula for both.
template <typename V>
inline V SplitGain(V left_g, V left_h, double total_g, double total_h,
                   double lambda, double parent_score, double gamma) {
  const V right_g = total_g - left_g;
  const V right_h = total_h - left_h;
  return 0.5 * (left_g * left_g / (left_h + lambda) +
                right_g * right_g / (right_h + lambda) - parent_score) -
         gamma;
}

// Adds R rows' {g_i, h_i = 1} into their bin of each of a block's `width`
// features. `codes` points at the block's first code column (row stride
// `stride`), `slots[k]` is feature k's bin 0 in `hist`. Each bin receives
// its adds in row order. The row loops must unroll so `gh` and `row_codes`
// stay in registers; -O2 alone keeps them in memory.
template <size_t R>
inline void ScatterRows(const size_t* rows, const double* grad,
                        const uint8_t* codes, size_t stride,
                        const size_t* slots, size_t width, Double2* hist) {
  Double2 gh[R];
  const uint8_t* row_codes[R];
#pragma GCC unroll 4
  for (size_t q = 0; q < R; ++q) {
    gh[q] = Double2{grad[rows[q]], 1.0};
    row_codes[q] = codes + rows[q] * stride;
  }
  for (size_t k = 0; k < width; ++k) {
    Double2* feature_hist = hist + slots[k];
#pragma GCC unroll 4
    for (size_t q = 0; q < R; ++q) feature_hist[row_codes[q][k]] += gh[q];
  }
}

// Same flush-once-per-event-batch pattern as the decision tree counters:
// disabled runs pay one predictable branch.
void BumpGbdtCounters(uint64_t split_evals, uint64_t hist_builds) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& eval_counter =
      obs::MetricsRegistry::Instance().GetCounter("tree.split_evaluations");
  static obs::Counter& hist_counter =
      obs::MetricsRegistry::Instance().GetCounter("tree.hist_builds");
  if (split_evals != 0) eval_counter.Increment(split_evals);
  if (hist_builds != 0) hist_counter.Increment(hist_builds);
}

}  // namespace

double Gbdt::Tree::PredictRow(const double* row) const {
  int node = 0;
  while (!nodes[node].is_leaf) {
    node = row[nodes[node].feature] <= nodes[node].threshold
               ? nodes[node].left
               : nodes[node].right;
  }
  return nodes[node].value;
}

Status Gbdt::Fit(const TabularDataset& data) {
  TG_TRACE_SPAN("gbdt_fit");
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (data.y.size() != data.num_rows()) {
    return Status::InvalidArgument("target size mismatch");
  }
  if (config_.num_trees < 1) {
    return Status::InvalidArgument("num_trees must be at least 1");
  }
  // Bin codes are one byte each.
  if (config_.max_bins < 2 || config_.max_bins > 256) {
    return Status::InvalidArgument("max_bins must be in [2, 256]");
  }
  if (!(config_.subsample > 0.0 && config_.subsample <= 1.0)) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }
  const size_t n = data.num_rows();
  const size_t d = data.num_features();

  trees_.clear();
  rmse_curve_.clear();
  feature_gains_.assign(d, 0.0);
  base_score_ = Mean(data.y);

  // Bin the feature matrix once. Features bin independently; parallel over
  // features -- but only when the n x d binning work can amortize pool
  // dispatch. The split search then reads one row-major code matrix over
  // the features with edges (a constant column can never split): `active`
  // maps its columns back to feature indices.
  std::vector<std::vector<double>> edges(d);
  std::vector<size_t> active;
  std::vector<uint8_t> codes(n * d);
  {
    TG_TRACE_SPAN("bin_build");
    ParallelForIfWorth(
        0, d, 1, n * d, [&](size_t begin, size_t end, size_t /*chunk*/) {
          std::vector<double> column(n);
          for (size_t f = begin; f < end; ++f) {
            for (size_t r = 0; r < n; ++r) column[r] = data.x(r, f);
            edges[f] = ComputeBinEdges(column.data(), n, config_.max_bins);
            for (size_t r = 0; r < n; ++r) {
              codes[r * d + f] =
                  static_cast<uint8_t>(BinOf(column[r], edges[f]));
            }
          }
        });
    for (size_t f = 0; f < d; ++f) {
      if (!edges[f].empty()) active.push_back(f);
    }
  }
  const size_t m = active.size();
  // Drop the constant columns in place: code (r, j) moves down from
  // r * d + active[j] to r * m + j, below every code not yet moved.
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < m; ++j) codes[r * m + j] = codes[r * d + active[j]];
  }
  codes.resize(n * m);

  // Histogram slots: active feature j owns bins [offset[j], offset[j + 1])
  // of one buffer. Consecutive features group into blocks of at most
  // kMaxBlockBytes of histogram (at least one feature each); blocks own
  // disjoint slot ranges, so they fill and scan concurrently without
  // per-thread copies.
  std::vector<size_t> offset(m + 1, 0);
  std::vector<size_t> block_begin;
  size_t block_bytes = 0;
  for (size_t j = 0; j < m; ++j) {
    const size_t bins = edges[active[j]].size() + 1;
    offset[j + 1] = offset[j] + bins;
    const size_t bytes = bins * sizeof(Double2);
    if (j == 0 || block_bytes + bytes > kMaxBlockBytes) {
      block_begin.push_back(j);
      block_bytes = 0;
    }
    block_bytes += bytes;
  }
  block_begin.push_back(m);

  // Per-fit scratch, reused by every node of every tree.
  std::vector<Double2> hist(offset[m]);
  std::vector<double> feature_best_gain(m);
  std::vector<uint8_t> feature_best_bin(m);
  std::vector<uint64_t> block_evals(block_begin.size() - 1);
  std::vector<size_t> rows;
  rows.reserve(n);

  std::vector<double> predictions(n, base_score_);
  std::vector<double> grad(n);
  Rng rng(config_.seed);

  const double lambda = config_.lambda;

  for (int round = 0; round < config_.num_trees; ++round) {
    // Squared-error objective: g_i = pred - y, h_i = 1.
    for (size_t i = 0; i < n; ++i) grad[i] = predictions[i] - data.y[i];

    // Row sample for this tree.
    rows.clear();
    if (config_.subsample >= 1.0) {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBernoulli(config_.subsample)) rows.push_back(i);
      }
      if (rows.empty()) rows.push_back(static_cast<size_t>(rng.NextBelow(n)));
    }

    Tree tree;
    // Recursive depth-wise build over [begin, end) index ranges.
    struct Builder {
      const GbdtConfig& config;
      const std::vector<std::vector<double>>& edges;
      const std::vector<size_t>& active;
      const std::vector<uint8_t>& codes;
      const std::vector<size_t>& offset;
      const std::vector<size_t>& block_begin;
      const std::vector<double>& grad;
      std::vector<Double2>& hist;
      std::vector<double>& feature_best_gain;
      std::vector<uint8_t>& feature_best_bin;
      std::vector<uint64_t>& block_evals;
      Tree& tree;
      std::vector<size_t>& rows;
      double lambda;
      std::vector<double>& feature_gains;

      // Fills the histograms of block features [j0, j1) over the node's
      // rows, then scans each for its best split; returns the number of
      // gains evaluated.
      uint64_t ScanBlock(size_t j0, size_t j1, size_t begin, size_t end,
                         const NodeStats& total, double parent_score) {
        Double2* bins = hist.data();
        std::fill(bins + offset[j0], bins + offset[j1], Double2{0.0, 0.0});
        // Each row's gradient is loaded once per block and scattered into
        // every block feature's bin as a {g, 1} pair: lane 0 sums gradients,
        // lane 1 counts rows in exact double integers. Every (feature, bin)
        // sum still receives its adds in row order, exactly as a
        // per-feature pass would, so the sums are bit-identical to it.
        const uint8_t* block_codes = codes.data() + j0;
        const size_t stride = active.size();
        const size_t* slots = offset.data() + j0;
        const size_t width = j1 - j0;
        size_t i = begin;
        for (; i + kRowsPerPass <= end; i += kRowsPerPass) {
          ScatterRows<kRowsPerPass>(rows.data() + i, grad.data(), block_codes,
                                    stride, slots, width, bins);
        }
        for (; i < end; ++i) {
          ScatterRows<1>(rows.data() + i, grad.data(), block_codes, stride,
                         slots, width, bins);
        }

        uint64_t evals = 0;
        double left_g[256];
        double left_h[256];
        for (size_t j = j0; j < j1; ++j) {
          const Double2* bin = bins + offset[j];
          // Splits after bins 0 .. splits - 1; the last bin has no split.
          const size_t splits = offset[j + 1] - offset[j] - 1;
          Double2 left = {0.0, 0.0};
          for (size_t b = 0; b < splits; ++b) {
            left += bin[b];
            left_g[b] = left[0];
            left_h[b] = left[1];
          }
          // left.h is an exact non-decreasing count and right.h = total.h -
          // left.h, so the splits passing min_child_weight on both sides
          // are one contiguous range [lo, hi).
          size_t lo = 0;
          while (lo < splits && left_h[lo] < config.min_child_weight) ++lo;
          size_t hi = splits;
          while (hi > lo &&
                 total.h - left_h[hi - 1] < config.min_child_weight) {
            --hi;
          }
          evals += hi - lo;
          // Gains two at a time, then a scalar tail; the arg-best takes the
          // same strict `>` in ascending split order as a one-by-one scan.
          double best_gain = 0.0;
          size_t best_bin = 0;
          size_t b = lo;
          for (; b + 2 <= hi; b += 2) {
            const Double2 gain = SplitGain(
                Double2{left_g[b], left_g[b + 1]},
                Double2{left_h[b], left_h[b + 1]}, total.g, total.h, lambda,
                parent_score, config.gamma);
            if (gain[0] > best_gain) {
              best_gain = gain[0];
              best_bin = b;
            }
            if (gain[1] > best_gain) {
              best_gain = gain[1];
              best_bin = b + 1;
            }
          }
          for (; b < hi; ++b) {
            const double gain =
                SplitGain(left_g[b], left_h[b], total.g, total.h, lambda,
                          parent_score, config.gamma);
            if (gain > best_gain) {
              best_gain = gain;
              best_bin = b;
            }
          }
          feature_best_gain[j] = best_gain;
          feature_best_bin[j] = static_cast<uint8_t>(best_bin);
        }
        return evals;
      }

      int Build(size_t begin, size_t end, int depth) {
        NodeStats total;
        for (size_t i = begin; i < end; ++i) {
          total.g += grad[rows[i]];
          total.h += 1.0;
        }
        const int node_index = static_cast<int>(tree.nodes.size());
        tree.nodes.emplace_back();
        tree.nodes[node_index].value =
            -total.g / (total.h + lambda) * config.learning_rate;

        if (depth >= config.max_depth ||
            total.h < 2.0 * config.min_child_weight) {
          return node_index;
        }

        // Best histogram split across all features. Feature blocks fill
        // and scan independently, so the search fans out over the pool;
        // the arg-best reduction below runs in feature order with the same
        // strict `>` as a sequential scan, keeping the chosen split
        // bit-identical for any thread count. Histogram work is (rows x
        // features); ParallelForIfWorth fans out only when the node is
        // large enough for the dispatch to pay for itself and runs inline
        // (same chunking) otherwise.
        const double parent_score = total.g * total.g / (total.h + lambda);
        const size_t num_features = edges.size();
        {
          TG_TRACE_SPAN("split_search");
          ParallelForIfWorth(
              0, block_evals.size(), 1, (end - begin) * num_features,
              [&](size_t b_begin, size_t b_end, size_t /*chunk*/) {
                for (size_t k = b_begin; k < b_end; ++k) {
                  block_evals[k] = ScanBlock(block_begin[k],
                                             block_begin[k + 1], begin, end,
                                             total, parent_score);
                }
              });
        }
        // One histogram build per node (covering all features).
        BumpGbdtCounters(
            std::accumulate(block_evals.begin(), block_evals.end(),
                            uint64_t{0}),
            1);
        double best_gain = 0.0;
        size_t best_j = 0;
        for (size_t j = 0; j < active.size(); ++j) {
          if (feature_best_gain[j] > best_gain) {
            best_gain = feature_best_gain[j];
            best_j = j;
          }
        }
        if (best_gain <= 0.0) return node_index;

        const size_t m = active.size();
        const uint8_t best_bin = feature_best_bin[best_j];
        auto middle = std::partition(
            rows.begin() + static_cast<long>(begin),
            rows.begin() + static_cast<long>(end),
            [&](size_t r) { return codes[r * m + best_j] <= best_bin; });
        const size_t mid = static_cast<size_t>(middle - rows.begin());
        if (mid == begin || mid == end) return node_index;
        const size_t best_feature = active[best_j];
        feature_gains[best_feature] += best_gain;

        const int left_child = Build(begin, mid, depth + 1);
        const int right_child = Build(mid, end, depth + 1);
        tree.nodes[node_index].is_leaf = false;
        tree.nodes[node_index].feature = best_feature;
        tree.nodes[node_index].threshold = edges[best_feature][best_bin];
        tree.nodes[node_index].left = left_child;
        tree.nodes[node_index].right = right_child;
        return node_index;
      }
    };

    Builder builder{config_,           edges,       active,  codes,
                    offset,            block_begin, grad,    hist,
                    feature_best_gain, feature_best_bin,
                    block_evals,       tree,        rows,    lambda,
                    feature_gains_};
    {
      TG_TRACE_SPAN("tree_fit");
      builder.Build(0, rows.size(), 0);
    }

    // Update predictions on all rows with the new tree (disjoint writes).
    // Per-row work is one root-to-leaf descent, so the work estimate scales
    // rows by the tree depth; small datasets run inline.
    ParallelForIfWorth(
        0, n, 512, n * static_cast<size_t>(std::max(config_.max_depth, 1)),
        [&](size_t r_begin, size_t r_end, size_t /*chunk*/) {
          for (size_t r = r_begin; r < r_end; ++r) {
            predictions[r] += tree.PredictRow(data.x.RowPtr(r));
          }
        });
    trees_.push_back(std::move(tree));
    rmse_curve_.push_back(Rmse(predictions, data.y));
  }
  return Status::OK();
}

std::vector<double> Gbdt::FeatureImportances() const {
  if (feature_gains_.empty()) return {};
  double sum = 0.0;
  for (double v : feature_gains_) sum += v;
  std::vector<double> out = feature_gains_;
  if (sum > 0.0) {
    for (double& v : out) v /= sum;
  }
  return out;
}

double Gbdt::Predict(const std::vector<double>& row) const {
  TG_CHECK_MSG(!trees_.empty(), "Predict before Fit");
  double acc = base_score_;
  for (const Tree& tree : trees_) acc += tree.PredictRow(row.data());
  return acc;
}

}  // namespace tg::ml
