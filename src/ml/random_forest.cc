#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg::ml {

Status RandomForest::Fit(const TabularDataset& data) {
  TG_TRACE_SPAN("forest_fit");
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (data.y.size() != data.num_rows()) {
    return Status::InvalidArgument("target size mismatch");
  }
  trees_.clear();
  trees_.reserve(static_cast<size_t>(config_.num_trees));

  TreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(config_.feature_fraction *
                                         static_cast<double>(
                                             data.num_features()))));
  }

  // Trees are independent given their own random stream: tree t draws its
  // bootstrap sample and split-feature subsets from Fork(t) of the config
  // seed, so the fitted forest is bit-identical for any thread count.
  //
  // The column-major feature copy is built once and shared read-only by
  // every tree, together with its (value, row index) sorted orders. Building
  // them here, before the parallel loop, keeps the shared object immutable
  // under the per-tree fits.
  const Rng base_rng(config_.seed);
  const size_t n = data.num_rows();
  FeatureColumns columns(data.x);
  columns.EnsureSortedOrders();
  trees_.resize(static_cast<size_t>(config_.num_trees),
                DecisionTree(tree_config));
  // Work estimate: each tree visits ~n bootstrap rows per level; tiny fits
  // (unit tests, few rows) run inline rather than paying pool dispatch.
  const size_t estimated_work = static_cast<size_t>(config_.num_trees) * n;
  ParallelForIfWorth(0, static_cast<size_t>(config_.num_trees), 1,
                     estimated_work,
                     [&](size_t begin, size_t end, size_t /*chunk*/) {
                       std::vector<size_t> bootstrap(n);
                       for (size_t t = begin; t < end; ++t) {
                         Rng tree_rng = base_rng.Fork(t);
                         for (size_t i = 0; i < n; ++i) {
                           bootstrap[i] =
                               static_cast<size_t>(tree_rng.NextBelow(n));
                         }
                         trees_[t].Fit(columns, data.y, bootstrap, &tree_rng);
                       }
                     });
  return Status::OK();
}

std::vector<double> RandomForest::FeatureImportances() const {
  if (trees_.empty()) return {};
  std::vector<double> total(trees_.front().feature_gains().size(), 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto& gains = tree.feature_gains();
    for (size_t f = 0; f < total.size(); ++f) total[f] += gains[f];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

double RandomForest::Predict(const std::vector<double>& row) const {
  TG_CHECK_MSG(!trees_.empty(), "Predict before Fit");
  double acc = 0.0;
  for (const DecisionTree& tree : trees_) acc += tree.Predict(row);
  return acc / static_cast<double>(trees_.size());
}

}  // namespace tg::ml
