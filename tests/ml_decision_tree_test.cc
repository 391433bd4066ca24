#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ml/decision_tree.h"
#include "util/rng.h"

namespace tg::ml {
namespace {

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

double VarianceOf(const std::vector<double>& v) {
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double acc = 0.0;
  for (double x : v) acc += (x - mean) * (x - mean);
  return acc / static_cast<double>(v.size());
}

TEST(DecisionTreeTest, SingleSplitRecovered) {
  // y = 1 if x0 > 0.5 else 0.
  Matrix x(100, 1);
  std::vector<double> y(100);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<double>(i) / 100.0;
    y[i] = x(i, 0) > 0.5 ? 1.0 : 0.0;
  }
  DecisionTree tree(TreeConfig{.max_depth = 1});
  tree.Fit(x, y, AllRows(100), nullptr);
  EXPECT_DOUBLE_EQ(tree.Predict({0.2}), 0.0);
  EXPECT_DOUBLE_EQ(tree.Predict({0.9}), 1.0);
}

TEST(DecisionTreeTest, DepthZeroIsMean) {
  Matrix x(4, 1);
  std::vector<double> y = {1, 2, 3, 4};
  DecisionTree tree(TreeConfig{.max_depth = 0});
  tree.Fit(x, y, AllRows(4), nullptr);
  EXPECT_DOUBLE_EQ(tree.Predict({0.0}), 2.5);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Rng rng(1);
  Matrix x = Matrix::Gaussian(200, 4, &rng);
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) y[i] = rng.NextGaussian();
  DecisionTree tree(TreeConfig{.max_depth = 3});
  tree.Fit(x, y, AllRows(200), &rng);
  EXPECT_LE(tree.MaxDepthReached(), 3);
}

TEST(DecisionTreeTest, PureNodeBecomesLeaf) {
  Matrix x(10, 1);
  std::vector<double> y(10, 5.0);  // constant target
  for (size_t i = 0; i < 10; ++i) x(i, 0) = static_cast<double>(i);
  DecisionTree tree(TreeConfig{.max_depth = 5});
  tree.Fit(x, y, AllRows(10), nullptr);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict({3.0}), 5.0);
}

TEST(DecisionTreeTest, XorNeedsDepthTwo) {
  Matrix x(400, 2);
  std::vector<double> y(400);
  Rng rng(2);
  for (size_t i = 0; i < 400; ++i) {
    x(i, 0) = rng.NextDouble();
    x(i, 1) = rng.NextDouble();
    y[i] = ((x(i, 0) > 0.5) != (x(i, 1) > 0.5)) ? 1.0 : 0.0;
  }
  // Greedy CART gets no gain from the ideal root split on XOR, so give the
  // deep tree a little slack (depth 4) to recover after a noisy root split.
  DecisionTree shallow(TreeConfig{.max_depth = 1});
  shallow.Fit(x, y, AllRows(400), nullptr);
  DecisionTree deep(TreeConfig{.max_depth = 4});
  deep.Fit(x, y, AllRows(400), nullptr);

  auto error = [&](const DecisionTree& tree) {
    double acc = 0.0;
    for (size_t i = 0; i < 400; ++i) {
      const double d = tree.Predict(x.Row(i)) - y[i];
      acc += d * d;
    }
    return acc / 400.0;
  };
  EXPECT_LT(error(deep), 0.05);
  EXPECT_GT(error(shallow), 0.2);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 9 ? 0.0 : 100.0;  // one outlier
  }
  // With min_samples_leaf = 3, the outlier cannot be isolated; the split at
  // 8.5 is forbidden.
  DecisionTree tree(TreeConfig{.max_depth = 1, .min_samples_leaf = 3});
  tree.Fit(x, y, AllRows(10), nullptr);
  // Any allowed split keeps the outlier with at least 2 other samples.
  EXPECT_LT(tree.Predict({9.0}), 100.0);
}

TEST(DecisionTreeTest, BootstrapRowsWithMultiplicity) {
  Matrix x(4, 1);
  for (size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i);
  std::vector<double> y = {0, 0, 10, 10};
  // Duplicated row indices simulate a bootstrap sample.
  std::vector<size_t> rows = {0, 0, 0, 2, 2, 3};
  DecisionTree tree(TreeConfig{.max_depth = 2});
  tree.Fit(x, y, rows, nullptr);
  EXPECT_NEAR(tree.Predict({0.0}), 0.0, 1e-9);
  EXPECT_NEAR(tree.Predict({3.0}), 10.0, 1e-9);
}

TEST(DecisionTreeTest, FeatureSubsamplingStillFits) {
  Rng rng(3);
  Matrix x = Matrix::Gaussian(300, 6, &rng);
  std::vector<double> y(300);
  for (size_t i = 0; i < 300; ++i) y[i] = x(i, 2);
  TreeConfig config;
  config.max_depth = 6;
  config.max_features = 2;
  DecisionTree tree(config);
  tree.Fit(x, y, AllRows(300), &rng);
  // With random 2-of-6 features per split and depth 6, feature 2 is found.
  double err = 0.0;
  for (size_t i = 0; i < 300; ++i) {
    const double d = tree.Predict(x.Row(i)) - y[i];
    err += d * d;
  }
  EXPECT_LT(err / 300.0, VarianceOf(y) * 0.9);
}

// --- Exact-engine bit-identity against the per-node-sort formulation --------

// Independent reference CART in the historical formulation the exact engine
// must reproduce bit for bit: every node gathers its (value, y) pairs, sorts
// them with std::sort (pair's value-then-y order), scans run boundaries, and
// partitions rows with std::partition on col <= threshold. Node layout and
// DebugString format mirror DecisionTree so the golden comparison is a
// string diff.
class ReferenceSortTree {
 public:
  explicit ReferenceSortTree(const TreeConfig& config) : config_(config) {}

  void Fit(const Matrix& x, const std::vector<double>& y,
           const std::vector<size_t>& rows, Rng* rng) {
    x_ = &x;
    y_ = &y;
    rng_ = rng;
    nodes_.clear();
    std::vector<size_t> working = rows;
    Build(&working, 0, working.size(), 0);
  }

  std::string DebugString() const {
    std::string out;
    char line[192];
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const Node& nd = nodes_[i];
      if (nd.is_leaf) {
        std::snprintf(line, sizeof(line), "%zu: leaf value=%.17g depth=%d\n",
                      i, nd.value, nd.depth);
      } else {
        std::snprintf(line, sizeof(line),
                      "%zu: f=%zu t=%.17g l=%d r=%d depth=%d\n", i, nd.feature,
                      nd.threshold, nd.left, nd.right, nd.depth);
      }
      out += line;
    }
    return out;
  }

 private:
  struct Node {
    bool is_leaf = true;
    double value = 0.0;
    size_t feature = 0;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    int depth = 0;
  };

  int Build(std::vector<size_t>* rows, size_t begin, size_t end, int depth) {
    const Matrix& x = *x_;
    const std::vector<double>& y = *y_;
    const size_t n = end - begin;
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = begin; i < end; ++i) {
      sum += y[(*rows)[i]];
      sum_sq += y[(*rows)[i]] * y[(*rows)[i]];
    }
    const int node_index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_index].value = sum / static_cast<double>(n);
    nodes_[node_index].depth = depth;
    const double impurity = sum_sq - sum * sum / static_cast<double>(n);
    if (depth >= config_.max_depth || n < config_.min_samples_split ||
        impurity <= 1e-12) {
      return node_index;
    }

    std::vector<size_t> features;
    if (config_.max_features == 0 || config_.max_features >= x.cols()) {
      features.resize(x.cols());
      std::iota(features.begin(), features.end(), 0);
    } else {
      features = rng_->SampleWithoutReplacement(x.cols(),
                                                config_.max_features);
    }

    bool found = false;
    size_t best_feature = 0;
    double best_threshold = 0.0;
    double best_score = -std::numeric_limits<double>::infinity();
    std::vector<std::pair<double, double>> pairs(n);
    for (size_t f : features) {
      for (size_t i = 0; i < n; ++i) {
        const size_t r = (*rows)[begin + i];
        pairs[i] = {x(r, f), y[r]};
      }
      std::sort(pairs.begin(), pairs.end());
      double left_sum = 0.0;
      for (size_t i = 0; i + 1 < n; ++i) {
        left_sum += pairs[i].second;
        if (pairs[i].first == pairs[i + 1].first) continue;
        const size_t n_left = i + 1;
        const size_t n_right = n - n_left;
        if (n_left < config_.min_samples_leaf ||
            n_right < config_.min_samples_leaf) {
          continue;
        }
        const double right_sum = sum - left_sum;
        const double score =
            left_sum * left_sum / static_cast<double>(n_left) +
            right_sum * right_sum / static_cast<double>(n_right);
        if (score > best_score) {
          found = true;
          best_score = score;
          best_feature = f;
          best_threshold = 0.5 * (pairs[i].first + pairs[i + 1].first);
        }
      }
    }
    if (!found) return node_index;

    auto middle =
        std::partition(rows->begin() + static_cast<long>(begin),
                       rows->begin() + static_cast<long>(end), [&](size_t r) {
                         return x(r, best_feature) <= best_threshold;
                       });
    const size_t mid = static_cast<size_t>(middle - rows->begin());
    const int left = Build(rows, begin, mid, depth + 1);
    const int right = Build(rows, mid, end, depth + 1);
    nodes_[node_index].is_leaf = false;
    nodes_[node_index].feature = best_feature;
    nodes_[node_index].threshold = best_threshold;
    nodes_[node_index].left = left;
    nodes_[node_index].right = right;
    return node_index;
  }

  TreeConfig config_;
  const Matrix* x_ = nullptr;
  const std::vector<double>* y_ = nullptr;
  Rng* rng_ = nullptr;
  std::vector<Node> nodes_;
};

// Tie-heavy data (values quantized to a coarse grid) so equal-value runs,
// the hardest part of the bit-identity argument, dominate the walk.
Matrix TieHeavyMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      x(r, c) = std::floor(rng.NextUniform(0.0, 8.0)) / 4.0;
    }
  }
  return x;
}

TEST(DecisionTreeTest, ExactEngineBitIdenticalToPerNodeSortReference) {
  const size_t n = 300;
  Matrix x = TieHeavyMatrix(n, 5, 101);
  Rng rng(102);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = x(i, 1) - 0.5 * x(i, 3) + rng.NextGaussian(0.0, 0.3);
  }
  // Bootstrap-style rows: duplicates and omissions.
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = rng.NextBelow(n);

  TreeConfig config;
  config.max_depth = 6;
  config.min_samples_leaf = 2;
  DecisionTree tree(config);
  tree.Fit(x, y, rows, nullptr);
  ReferenceSortTree reference(config);
  reference.Fit(x, y, rows, nullptr);
  EXPECT_EQ(tree.DebugString(), reference.DebugString());
}

TEST(DecisionTreeTest, ExactEngineBitIdenticalWithFeatureSampling) {
  const size_t n = 250;
  Matrix x = TieHeavyMatrix(n, 6, 201);
  Rng rng(202);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0) * x(i, 4) + rng.NextGaussian(0.0, 0.2);
  }
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = rng.NextBelow(n);

  TreeConfig config;
  config.max_depth = 5;
  config.min_samples_leaf = 2;
  config.max_features = 2;
  // Identical recursion order means identical RNG draw order, so seeding
  // both fits the same way must give identical feature subsets per node.
  Rng tree_rng(77);
  DecisionTree tree(config);
  tree.Fit(x, y, rows, &tree_rng);
  Rng ref_rng(77);
  ReferenceSortTree reference(config);
  reference.Fit(x, y, rows, &ref_rng);
  EXPECT_EQ(tree.DebugString(), reference.DebugString());
}

TEST(DecisionTreeTest, SortedOrdersBreakValueTiesByRowIndex) {
  // Regression for sort-tie nondeterminism: the pre-sort key is explicitly
  // (value, row index), never std::sort's whim on equal keys.
  Matrix x(8, 2);
  const double vals[8] = {1.0, 0.0, 1.0, 0.0, 2.0, 1.0, 0.0, 2.0};
  for (size_t r = 0; r < 8; ++r) {
    x(r, 0) = vals[r];
    x(r, 1) = 3.0;  // fully constant column: order must be 0..n-1
  }
  FeatureColumns columns(x);
  columns.EnsureSortedOrders();
  const uint32_t* ord = columns.SortedOrder(0);
  const std::vector<uint32_t> want = {1, 3, 6, 0, 2, 5, 4, 7};
  EXPECT_EQ(std::vector<uint32_t>(ord, ord + 8), want);
  const uint32_t* constant = columns.SortedOrder(1);
  for (uint32_t r = 0; r < 8; ++r) EXPECT_EQ(constant[r], r);
}

TEST(DecisionTreeTest, ExactFitDeterministicAcrossRepeatsAndFitForms) {
  const size_t n = 200;
  Matrix x = TieHeavyMatrix(n, 4, 301);
  Rng rng(302);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = x(i, 2) + rng.NextGaussian(0.0, 0.1);

  TreeConfig config;
  config.max_depth = 6;
  DecisionTree via_matrix(config);
  via_matrix.Fit(x, y, AllRows(n), nullptr);
  DecisionTree again(config);
  again.Fit(x, y, AllRows(n), nullptr);
  EXPECT_EQ(via_matrix.DebugString(), again.DebugString());

  FeatureColumns columns(x);
  columns.EnsureSortedOrders();
  DecisionTree via_columns(config);
  via_columns.Fit(columns, y, AllRows(n), nullptr);
  EXPECT_EQ(via_matrix.DebugString(), via_columns.DebugString());
}

}  // namespace
}  // namespace tg::ml
