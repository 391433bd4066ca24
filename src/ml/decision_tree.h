// CART regression tree with variance-reduction splits, the base learner for
// the random forest. Split search is exact and pre-sorted: instead of the
// classic per-node std::sort of (value, y) pairs, each feature's row order is
// sorted ONCE per FeatureColumns (by an explicit (value, row index) key) and
// every node walks its contiguous segment of those order lists, partitioning
// them stably into the children. The boundaries evaluated, the accumulation
// order of every partial sum, and the tie-breaks are arranged to reproduce
// the per-node-sort formulation EXACTLY, so fitted trees are bit-identical to
// the historical implementation while skipping the O(n log n) factor per
// node.
#ifndef TG_ML_DECISION_TREE_H_
#define TG_ML_DECISION_TREE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "numeric/matrix.h"
#include "util/rng.h"

namespace tg::ml {

// Column-major copy of a feature matrix: Column(f)[r] == x(r, f). Split
// search scans one feature at a time across many rows, so the column layout
// turns the per-(node, feature) gather from a cols()-strided walk over the
// row-major matrix into reads within one contiguous column that usually fits
// in L1/L2. Build it once and share it read-only across trees (the forest
// does); the values are the same doubles, so fitted trees are bit-identical
// to fitting against the matrix directly.
//
// Split search needs the per-fit-invariant sorted orders: call
// EnsureSortedOrders() BEFORE sharing the object read-only across threads --
// DecisionTree::Fit checks they exist rather than building them lazily,
// precisely so a shared const FeatureColumns is never mutated under a
// parallel fit.
class FeatureColumns {
 public:
  explicit FeatureColumns(const Matrix& x);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  const double* Column(size_t f) const {
    TG_CHECK_LT(f, cols_);
    return data_.data() + f * rows_;
  }

  // For each feature, the row indices sorted by the explicit key
  // (value, row index). The secondary key makes equal-value runs a
  // deterministic function of the data alone, independent of std::sort
  // implementation details. Idempotent.
  void EnsureSortedOrders();
  bool has_sorted_orders() const { return orders_built_; }
  const uint32_t* SortedOrder(size_t f) const {
    TG_CHECK_LT(f, cols_);
    TG_CHECK(has_sorted_orders());
    return sorted_.data() + f * rows_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double, AlignedAllocator<double, 64>> data_;
  // Sorted orders (EnsureSortedOrders): cols_ blocks of rows_.
  bool orders_built_ = false;
  std::vector<uint32_t> sorted_;
};

struct TreeConfig {
  int max_depth = 5;
  size_t min_samples_leaf = 1;
  size_t min_samples_split = 2;
  // Number of candidate features per split; 0 means all features.
  size_t max_features = 0;
};

class DecisionTree {
 public:
  explicit DecisionTree(const TreeConfig& config) : config_(config) {}

  // Fits on the rows of x selected by `rows` (with multiplicity, enabling
  // bootstrap samples). `rng` drives feature subsampling; may be null when
  // max_features == 0. The Matrix form builds a FeatureColumns (and its
  // sorted orders) internally; callers fitting many trees on the same data
  // (RandomForest) pass a shared prebuilt one instead -- with
  // EnsureSortedOrders() already called. Both forms produce bit-identical
  // trees.
  void Fit(const Matrix& x, const std::vector<double>& y,
           const std::vector<size_t>& rows, Rng* rng);
  void Fit(const FeatureColumns& columns, const std::vector<double>& y,
           const std::vector<size_t>& rows, Rng* rng);

  double Predict(const std::vector<double>& row) const;
  double Predict(const double* row) const;

  size_t num_nodes() const { return nodes_.size(); }
  int MaxDepthReached() const;

  // Total variance reduction attributed to each feature (unnormalized);
  // empty before Fit.
  const std::vector<double>& feature_gains() const { return feature_gains_; }

  // One line per node ("<i>: leaf value=..." / "<i>: f=... t=... l=... r=..."
  // with %.17g doubles): byte-equal iff the trees are bit-identical. Golden
  // tests diff this against a reference fit.
  std::string DebugString() const;

 private:
  struct TreeNode {
    bool is_leaf = true;
    double value = 0.0;     // leaf prediction (mean target)
    size_t feature = 0;     // split feature (internal nodes)
    double threshold = 0.0;  // go left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    int depth = 0;
  };

  struct ExactContext;

  int BuildExactNode(ExactContext* ctx, size_t begin, size_t end, int depth);

  TreeConfig config_;
  std::vector<TreeNode> nodes_;
  std::vector<double> feature_gains_;
};

}  // namespace tg::ml

#endif  // TG_ML_DECISION_TREE_H_
