#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace tg::ml {
namespace {

struct SplitCandidate {
  bool found = false;
  size_t feature = 0;
  double threshold = 0.0;
  double score = -std::numeric_limits<double>::infinity();
};

// Per-fit instrumentation, flushed once per tree (not per node) so the hot
// recursion pays one local increment per split evaluated.
void BumpTreeCounters(uint64_t split_evals) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& eval_counter =
      obs::MetricsRegistry::Instance().GetCounter("tree.split_evaluations");
  if (split_evals != 0) eval_counter.Increment(split_evals);
}

}  // namespace

FeatureColumns::FeatureColumns(const Matrix& x)
    : rows_(x.rows()), cols_(x.cols()), data_(x.rows() * x.cols()) {
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) data_[c * rows_ + r] = row[c];
  }
}

void FeatureColumns::EnsureSortedOrders() {
  if (orders_built_) return;
  TG_TRACE_SPAN("order_build");
  TG_CHECK_LE(rows_, static_cast<size_t>(UINT32_MAX));
  sorted_.resize(cols_ * rows_);
  for (size_t f = 0; f < cols_; ++f) {
    uint32_t* ord = sorted_.data() + f * rows_;
    std::iota(ord, ord + rows_, 0u);
    const double* col = Column(f);
    // Explicit (value, row index) key: equal-value runs are ordered by row
    // index, a deterministic function of the data alone -- never of
    // std::sort's internal choices.
    std::sort(ord, ord + rows_, [col](uint32_t a, uint32_t b) {
      if (col[a] != col[b]) return col[a] < col[b];
      return a < b;
    });
  }
  orders_built_ = true;
}

// --- Exact pre-sorted split search -------------------------------------------

// Per-fit state. `order` holds, for every feature, this
// fit's row multiset sorted by (value, row index) -- expanded once from the
// FeatureColumns global orders, then stably partitioned into the children at
// each split, so no node ever sorts anything.
struct DecisionTree::ExactContext {
  const FeatureColumns& columns;
  const std::vector<double>& y;
  std::vector<size_t>* rows;  // node-major working segments (seed layout)
  Rng* rng;
  size_t n = 0;                  // rows->size()
  std::vector<uint32_t> order;   // columns.cols() blocks of n
  std::vector<uint32_t> scratch; // n, right half of the stable partition
  std::vector<double> tie_y;     // equal-value run gather buffer
  std::vector<uint8_t> side;     // columns.rows(), split side per row id
  uint64_t split_evals = 0;
};

int DecisionTree::BuildExactNode(ExactContext* ctx, size_t begin, size_t end,
                                 int depth) {
  const FeatureColumns& columns = ctx->columns;
  const std::vector<double>& y = ctx->y;
  std::vector<size_t>& rows = *ctx->rows;
  const size_t n = end - begin;
  TG_CHECK_GT(n, 0u);

  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    sum += y[rows[i]];
    sum_sq += y[rows[i]] * y[rows[i]];
  }
  const double mean = sum / static_cast<double>(n);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].value = mean;
  nodes_[node_index].depth = depth;

  const double node_impurity =
      sum_sq - sum * sum / static_cast<double>(n);  // n * variance
  if (depth >= config_.max_depth || n < config_.min_samples_split ||
      node_impurity <= 1e-12) {
    return node_index;
  }

  // Candidate features (all, or a random subset per split as in RF).
  std::vector<size_t> features;
  if (config_.max_features == 0 || config_.max_features >= columns.cols()) {
    features.resize(columns.cols());
    std::iota(features.begin(), features.end(), 0);
  } else {
    TG_CHECK(ctx->rng != nullptr);
    features = ctx->rng->SampleWithoutReplacement(columns.cols(),
                                                  config_.max_features);
  }

  SplitCandidate best;
  {
    TG_TRACE_SPAN("split_search");
    for (size_t f : features) {
      const double* col = columns.Column(f);
      const uint32_t* seg = ctx->order.data() + f * ctx->n + begin;
      // Walk the pre-sorted segment run by run. Within an equal-value run
      // the y values are accumulated in ascending order: together with the
      // run-end boundaries this reproduces the historical per-node
      // std::sort of (value, y) pairs addition-for-addition, so scores,
      // thresholds and tie-breaks are bit-identical to the sorting
      // formulation.
      double left_sum = 0.0;
      size_t i = 0;
      while (i < n) {
        const double v = col[seg[i]];
        size_t j = i + 1;
        while (j < n && col[seg[j]] == v) ++j;
        if (j == i + 1) {
          left_sum += y[seg[i]];
        } else {
          ctx->tie_y.clear();
          for (size_t k = i; k < j; ++k) ctx->tie_y.push_back(y[seg[k]]);
          std::sort(ctx->tie_y.begin(), ctx->tie_y.end());
          for (double ty : ctx->tie_y) left_sum += ty;
        }
        if (j < n) {  // boundary between distinct feature values
          const size_t n_left = j;
          const size_t n_right = n - n_left;
          if (n_left >= config_.min_samples_leaf &&
              n_right >= config_.min_samples_leaf) {
            ++ctx->split_evals;
            const double right_sum = sum - left_sum;
            // Variance reduction is monotone in this score.
            const double score =
                left_sum * left_sum / static_cast<double>(n_left) +
                right_sum * right_sum / static_cast<double>(n_right);
            if (score > best.score) {
              best.found = true;
              best.score = score;
              best.feature = f;
              best.threshold = 0.5 * (v + col[seg[j]]);
            }
          }
        }
        i = j;
      }
    }
  }
  if (!best.found) return node_index;
  // Variance reduction of the chosen split, attributed to its feature.
  feature_gains_[best.feature] +=
      std::max(best.score - sum * sum / static_cast<double>(n), 0.0);

  // Split side per row id, computed once; every partition below reads the
  // one-byte flag instead of re-comparing the column.
  const double* best_col = columns.Column(best.feature);
  for (size_t i = begin; i < end; ++i) {
    const size_t r = rows[i];
    ctx->side[r] = best_col[r] <= best.threshold ? 1 : 0;
  }

  // Partition the working rows in place around the threshold -- the exact
  // std::partition the seed formulation used, so the children's accumulation
  // order (and thus every leaf mean) is unchanged.
  auto middle = std::partition(rows.begin() + static_cast<long>(begin),
                               rows.begin() + static_cast<long>(end),
                               [&](size_t r) { return ctx->side[r] != 0; });
  const size_t mid = static_cast<size_t>(middle - rows.begin());
  TG_CHECK_GT(mid, begin);
  TG_CHECK_LT(mid, end);

  // Stable two-pass partition of every feature's order segment: left-going
  // entries compact forward, right-going pass through the scratch buffer.
  // Stability preserves the (value, row index) sortedness in both children.
  // Both stores are unconditional (the cursor that should not advance just
  // overwrites its own slot next iteration): the split side is close to a
  // coin flip per element, so a branchy version eats a mispredict on most of
  // the d * n entries moved per node.
  const size_t n_left = mid - begin;
  const uint8_t* side = ctx->side.data();
  for (size_t f = 0; f < columns.cols(); ++f) {
    uint32_t* seg = ctx->order.data() + f * ctx->n + begin;
    uint32_t* scratch = ctx->scratch.data();
    size_t out = 0;
    size_t sc = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = seg[i];
      const uint8_t s = side[r];
      seg[out] = r;
      scratch[sc] = r;
      out += s;
      sc += static_cast<size_t>(1) - s;
    }
    TG_CHECK_EQ(out, n_left);
    std::copy(scratch, scratch + sc, seg + out);
  }

  const int left = BuildExactNode(ctx, begin, mid, depth + 1);
  const int right = BuildExactNode(ctx, mid, end, depth + 1);
  nodes_[node_index].is_leaf = false;
  nodes_[node_index].feature = best.feature;
  nodes_[node_index].threshold = best.threshold;
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

// --- Fit / Predict -----------------------------------------------------------

void DecisionTree::Fit(const Matrix& x, const std::vector<double>& y,
                       const std::vector<size_t>& rows, Rng* rng) {
  FeatureColumns columns(x);
  columns.EnsureSortedOrders();
  Fit(columns, y, rows, rng);
}

void DecisionTree::Fit(const FeatureColumns& columns,
                       const std::vector<double>& y,
                       const std::vector<size_t>& rows, Rng* rng) {
  TG_TRACE_SPAN("tree_fit");
  TG_CHECK_EQ(columns.rows(), y.size());
  TG_CHECK(!rows.empty());
  nodes_.clear();
  feature_gains_.assign(columns.cols(), 0.0);
  std::vector<size_t> working = rows;
  const size_t n = working.size();
  const size_t total_rows = columns.rows();
  TG_CHECK_MSG(columns.has_sorted_orders(),
               "Fit requires FeatureColumns::EnsureSortedOrders() first");
  ExactContext ctx{columns, y, &working, rng};
  ctx.n = n;
  // Expand the global per-feature orders into this fit's row multiset:
  // count each row's multiplicity, then emit rows in global sorted order,
  // each repeated multiplicity times. Duplicates land adjacent, which is
  // exactly where a (value, row index) sort would place them.
  std::vector<uint32_t> mult(total_rows, 0);
  for (size_t r : working) {
    TG_CHECK_LT(r, total_rows);
    ++mult[static_cast<uint32_t>(r)];
  }
  const size_t d = columns.cols();
  // +4 slack: the expansion below stores four copies unconditionally and
  // advances by the actual multiplicity, so trailing rows of a block may
  // write up to four entries past its logical end (multiplicity 0 leaves k
  // at n while out[k..k+3] are still stored; overwritten by the next block,
  // absorbed by the slack on the last one). Bootstrap multiplicities are
  // ~Poisson(1), which makes a per-row copy loop mispredict constantly;
  // the unconditional stores cost nothing extra.
  ctx.order.resize(d * n + 4);
  for (size_t f = 0; f < d; ++f) {
    const uint32_t* global = columns.SortedOrder(f);
    uint32_t* out = ctx.order.data() + f * n;
    size_t k = 0;
    for (size_t i = 0; i < total_rows; ++i) {
      const uint32_t r = global[i];
      const uint32_t m = mult[r];
      out[k] = r;
      out[k + 1] = r;
      out[k + 2] = r;
      out[k + 3] = r;
      if (m > 4) {  // vanishingly rare for bootstrap samples
        for (uint32_t c = 4; c < m; ++c) out[k + c] = r;
      }
      k += m;
    }
    TG_CHECK_EQ(k, n);
  }
  ctx.scratch.resize(n);
  ctx.side.resize(total_rows);
  BuildExactNode(&ctx, 0, n, 0);
  BumpTreeCounters(ctx.split_evals);
}

double DecisionTree::Predict(const std::vector<double>& row) const {
  return Predict(row.data());
}

double DecisionTree::Predict(const double* row) const {
  TG_CHECK(!nodes_.empty());
  int node = 0;
  while (!nodes_[node].is_leaf) {
    node = row[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

int DecisionTree::MaxDepthReached() const {
  int max_depth = 0;
  for (const TreeNode& node : nodes_) {
    max_depth = std::max(max_depth, node.depth);
  }
  return max_depth;
}

std::string DecisionTree::DebugString() const {
  std::string out;
  char line[192];
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& nd = nodes_[i];
    if (nd.is_leaf) {
      std::snprintf(line, sizeof(line), "%zu: leaf value=%.17g depth=%d\n", i,
                    nd.value, nd.depth);
    } else {
      std::snprintf(line, sizeof(line),
                    "%zu: f=%zu t=%.17g l=%d r=%d depth=%d\n", i, nd.feature,
                    nd.threshold, nd.left, nd.right, nd.depth);
    }
    out += line;
  }
  return out;
}

}  // namespace tg::ml
