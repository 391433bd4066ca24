#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "ml/gbdt.h"
#include "numeric/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace tg::ml {
namespace {

TabularDataset NonlinearData(size_t n, uint64_t seed, double noise = 0.05) {
  Rng rng(seed);
  TabularDataset data;
  data.x = Matrix::Gaussian(n, 5, &rng);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.y[i] = data.x(i, 0) * data.x(i, 1) + std::cos(data.x(i, 2)) +
                0.3 * data.x(i, 3) + noise * rng.NextGaussian();
  }
  return data;
}

// FNV-1a over the "%.17g" text of every fitted output: predictions on the
// training rows, then FeatureImportances(), then train_rmse_curve(). Equal
// hashes mean bit-equal outputs.
uint64_t FitHash(const GbdtConfig& config, const TabularDataset& data) {
  Gbdt model(config);
  EXPECT_TRUE(model.Fit(data).ok());
  std::string text;
  char buf[32];
  const auto append = [&](const std::vector<double>& values) {
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), "%.17g\n", v);
      text += buf;
    }
    text += "|";
  };
  append(model.PredictBatch(data.x));
  append(model.FeatureImportances());
  append(model.train_rmse_curve());
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Pins the GBDT's exact output bits, so a rewrite of the split search (bin
// layout, histogram order, gain evaluation) cannot move a single prediction
// unnoticed. The data has a constant column (no edges, never split on) and
// a three-valued column (fewer distinct values than bins). The last config
// turns off every guard on the scan range: with min_child_weight = 0 and
// lambda = 0 an empty side gives 0/0 = NaN gains, which must never win.
TEST(GbdtTest, PredictionsPinnedAcrossRewrite) {
  TabularDataset data = NonlinearData(300, 21);
  Matrix x(300, 7);
  for (size_t r = 0; r < 300; ++r) {
    for (size_t c = 0; c < 5; ++c) x(r, c) = data.x(r, c);
    x(r, 5) = 1.0;
    x(r, 6) = static_cast<double>(r % 3);
    data.y[r] += 0.5 * x(r, 6);
  }
  data.x = x;

  GbdtConfig defaults;
  GbdtConfig subsampled;
  subsampled.subsample = 0.5;
  GbdtConfig coarse;
  coarse.max_bins = 8;
  coarse.min_child_weight = 0.0;
  coarse.lambda = 0.0;
  coarse.gamma = 0.1;

  EXPECT_EQ(FitHash(defaults, data), 0xb01ef664b6890251ULL);
  EXPECT_EQ(FitHash(subsampled, data), 0x92258d311c97773bULL);
  EXPECT_EQ(FitHash(coarse, data), 0x4477dd98f92d9c2bULL);
}

// 256 bins over 512 rows, grown 8 deep: a deep node's few rows leave most
// of a feature's bins empty, and each empty bin repeats the previous split's
// gain. The alternating 0/1 target makes many non-empty splits tie as well,
// and column 3 duplicates column 0, so equal gains also meet across
// features. The unguarded config (min_child_weight = 0, lambda = 0) scans
// from split 0, where an empty left side gives a 0/0 = NaN gain. Hashes and
// the split-evaluation count were recorded before the gain scan skipped
// empty bins; the count still covers every candidate split.
TEST(GbdtTest, EmptyBinsAndRepeatedGainsPinned) {
  constexpr size_t kRows = 512;
  Rng rng(8);
  TabularDataset data;
  data.x = Matrix(kRows, 5);
  data.y.resize(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    data.x(r, 0) = static_cast<double>(r);
    data.x(r, 1) = static_cast<double>((r * 37) % kRows);
    data.x(r, 2) = static_cast<double>(r % 5);
    data.x(r, 3) = data.x(r, 0);
    data.x(r, 4) = rng.NextGaussian();
    data.y[r] = static_cast<double>(r % 2) + (r % 5 == 3 ? 0.25 : 0.0);
  }

  GbdtConfig deep;
  deep.num_trees = 20;
  deep.max_depth = 8;
  deep.max_bins = 256;
  GbdtConfig unguarded = deep;
  unguarded.min_child_weight = 0.0;
  unguarded.lambda = 0.0;
  GbdtConfig subsampled = deep;
  subsampled.max_depth = 6;
  subsampled.subsample = 0.6;
  subsampled.gamma = 0.05;

  obs::SetMetricsEnabled(true);
  obs::Counter& evals =
      obs::MetricsRegistry::Instance().GetCounter("tree.split_evaluations");
  const uint64_t evals_before = evals.value();
  const uint64_t deep_hash = FitHash(deep, data);
  const uint64_t deep_evals = evals.value() - evals_before;
  obs::SetMetricsEnabled(false);

  EXPECT_EQ(deep_hash, 0xe66f3d50680a6f55ULL);
  EXPECT_EQ(deep_evals, 798576u);
  EXPECT_EQ(FitHash(unguarded, data), 0x994afa5dc858d918ULL);
  EXPECT_EQ(FitHash(subsampled, data), 0x216e545ff0f75852ULL);
}

TEST(GbdtTest, TrainRmseDecreasesMonotonically) {
  TabularDataset data = NonlinearData(400, 1);
  GbdtConfig config;
  config.num_trees = 100;
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  const auto& curve = model.train_rmse_curve();
  ASSERT_EQ(curve.size(), 100u);
  // Squared-loss boosting on training data is non-increasing (up to tiny
  // histogram-boundary effects).
  EXPECT_LT(curve.back(), curve.front() * 0.5);
  int increases = 0;
  for (size_t i = 1; i < curve.size(); ++i) {
    if (curve[i] > curve[i - 1] + 1e-9) ++increases;
  }
  EXPECT_LE(increases, 2);
}

TEST(GbdtTest, FitsInteractionTerm) {
  TabularDataset data = NonlinearData(600, 2);
  GbdtConfig config;
  config.num_trees = 200;
  config.max_depth = 4;
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> pred = model.PredictBatch(data.x);
  EXPECT_GT(PearsonCorrelation(pred, data.y), 0.95);
}

TEST(GbdtTest, GeneralizesBetterThanMean) {
  TabularDataset train = NonlinearData(500, 3);
  TabularDataset test = NonlinearData(300, 4);
  GbdtConfig config;
  config.num_trees = 150;
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(train).ok());
  const double model_rmse = Rmse(model.PredictBatch(test.x), test.y);
  std::vector<double> mean_pred(test.y.size(), Mean(train.y));
  const double mean_rmse = Rmse(mean_pred, test.y);
  EXPECT_LT(model_rmse, mean_rmse * 0.6);
}

TEST(GbdtTest, ShrinkageSlowsFitting) {
  TabularDataset data = NonlinearData(300, 5);
  GbdtConfig fast;
  fast.num_trees = 20;
  fast.learning_rate = 0.3;
  GbdtConfig slow;
  slow.num_trees = 20;
  slow.learning_rate = 0.01;
  Gbdt fast_model(fast);
  Gbdt slow_model(slow);
  ASSERT_TRUE(fast_model.Fit(data).ok());
  ASSERT_TRUE(slow_model.Fit(data).ok());
  EXPECT_LT(fast_model.train_rmse_curve().back(),
            slow_model.train_rmse_curve().back());
}

TEST(GbdtTest, LambdaRegularizesLeafValues) {
  // Heavier L2 on leaves -> less training-set fit per tree.
  TabularDataset data = NonlinearData(300, 6);
  GbdtConfig light;
  light.num_trees = 10;
  light.lambda = 0.01;
  GbdtConfig heavy;
  heavy.num_trees = 10;
  heavy.lambda = 100.0;
  Gbdt light_model(light);
  Gbdt heavy_model(heavy);
  ASSERT_TRUE(light_model.Fit(data).ok());
  ASSERT_TRUE(heavy_model.Fit(data).ok());
  EXPECT_LT(light_model.train_rmse_curve().back(),
            heavy_model.train_rmse_curve().back());
}

TEST(GbdtTest, SubsampleWorks) {
  TabularDataset data = NonlinearData(300, 7);
  GbdtConfig config;
  config.num_trees = 50;
  config.subsample = 0.5;
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_GT(PearsonCorrelation(model.PredictBatch(data.x), data.y), 0.8);
}

TEST(GbdtTest, ConstantTargetIsExact) {
  TabularDataset data;
  Rng rng(8);
  data.x = Matrix::Gaussian(50, 3, &rng);
  data.y.assign(50, 2.5);
  Gbdt model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_NEAR(model.Predict(data.x.Row(0)), 2.5, 1e-9);
}

TEST(GbdtTest, DeterministicGivenSeed) {
  TabularDataset data = NonlinearData(200, 9);
  GbdtConfig config;
  config.num_trees = 30;
  Gbdt a(config);
  Gbdt b(config);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Predict(data.x.Row(i)), b.Predict(data.x.Row(i)));
  }
}

TEST(GbdtTest, PaperDefaults) {
  // Paper §VI-C: 500 trees, depth 5.
  GbdtConfig config;
  EXPECT_EQ(config.num_trees, 500);
  EXPECT_EQ(config.max_depth, 5);
}

TEST(GbdtTest, RejectsInvalidInput) {
  Gbdt model;
  TabularDataset empty;
  EXPECT_FALSE(model.Fit(empty).ok());

  // Configs the fit cannot honour: bin codes are one byte and need at least
  // one edge, a row sample needs a positive fraction of at most one, and
  // Predict needs a tree.
  const TabularDataset data = NonlinearData(50, 10);
  const auto rejects = [&](const GbdtConfig& config) {
    Gbdt bad(config);
    const Status status = bad.Fit(data);
    return !status.ok() && status.code() == StatusCode::kInvalidArgument;
  };
  for (int max_bins : {-1, 0, 1, 257, 65536}) {
    GbdtConfig config;
    config.max_bins = max_bins;
    EXPECT_TRUE(rejects(config)) << "max_bins " << max_bins;
  }
  for (double subsample : {0.0, -0.5, 1.5, std::nan("")}) {
    GbdtConfig config;
    config.subsample = subsample;
    EXPECT_TRUE(rejects(config)) << "subsample " << subsample;
  }
  for (int num_trees : {0, -3}) {
    GbdtConfig config;
    config.num_trees = num_trees;
    EXPECT_TRUE(rejects(config)) << "num_trees " << num_trees;
  }
  // The edges of the valid ranges still fit.
  GbdtConfig edge;
  edge.num_trees = 1;
  edge.max_bins = 2;
  edge.subsample = 1e-9;
  EXPECT_TRUE(Gbdt(edge).Fit(data).ok());
  // 600 distinct values per column fill all 256 bins, so codes reach 255.
  edge.max_bins = 256;
  edge.subsample = 1.0;
  EXPECT_TRUE(Gbdt(edge).Fit(NonlinearData(600, 11)).ok());
}

}  // namespace
}  // namespace tg::ml
