// XGBoost-style gradient-boosted regression trees (Chen & Guestrin 2016):
// second-order Taylor objective, leaf weight -G/(H+lambda), split gain
//   1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma,
// histogram-binned features (quantile bin edges) for fast exact-enough
// splits, shrinkage, and optional row subsampling.
// Paper §VI-C settings: 500 trees, max depth 5.
//
// Split search (LightGBM-style row-wise histograms, Ke et al. 2017): bin
// codes are one row-major byte matrix over the non-constant features, so
// max_bins is at most 256. Each node walks its rows once per block of
// features whose histograms fit in L1, then scans each feature's prefix
// sums over the contiguous range of bins that satisfy min_child_weight,
// two gains at a time. Every histogram sum keeps the row order of a
// per-feature pass and every gain its scalar rounding, so fits are
// bit-identical for any thread count and numeric backend.
#ifndef TG_ML_GBDT_H_
#define TG_ML_GBDT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/tabular.h"

namespace tg::ml {

struct GbdtConfig {
  int num_trees = 500;         // at least 1
  int max_depth = 5;
  double learning_rate = 0.1;  // shrinkage eta
  double lambda = 1.0;         // L2 on leaf weights
  double gamma = 0.0;          // complexity penalty per split
  double min_child_weight = 1.0;
  double subsample = 1.0;      // row subsample fraction per tree, in (0, 1]
  int max_bins = 64;           // in [2, 256]: bin codes are one byte
  uint64_t seed = 23;
};

class Gbdt : public Regressor {
 public:
  explicit Gbdt(const GbdtConfig& config = {}) : config_(config) {}

  Status Fit(const TabularDataset& data) override;
  double Predict(const std::vector<double>& row) const override;
  std::string name() const override { return "XGB"; }
  // Total split gain per feature over all boosting rounds, sum-normalized.
  std::vector<double> FeatureImportances() const override;

  size_t num_trees() const { return trees_.size(); }
  // Training RMSE after each boosting round (for convergence tests).
  const std::vector<double>& train_rmse_curve() const { return rmse_curve_; }

 private:
  struct GbdtNode {
    bool is_leaf = true;
    double value = 0.0;      // leaf weight (already shrunk)
    size_t feature = 0;
    double threshold = 0.0;  // raw-value threshold; left when <=
    int left = -1;
    int right = -1;
  };
  struct Tree {
    std::vector<GbdtNode> nodes;
    double PredictRow(const double* row) const;
  };

  GbdtConfig config_;
  double base_score_ = 0.0;
  std::vector<Tree> trees_;
  std::vector<double> rmse_curve_;
  std::vector<double> feature_gains_;
};

}  // namespace tg::ml

#endif  // TG_ML_GBDT_H_
