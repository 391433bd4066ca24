#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ml/random_forest.h"
#include "numeric/stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg::ml {
namespace {

TabularDataset NonlinearData(size_t n, uint64_t seed, double noise = 0.1) {
  Rng rng(seed);
  TabularDataset data;
  data.x = Matrix::Gaussian(n, 4, &rng);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.y[i] = std::sin(data.x(i, 0)) + (data.x(i, 1) > 0 ? 1.0 : -1.0) *
                                             std::fabs(data.x(i, 2)) +
                noise * rng.NextGaussian();
  }
  return data;
}

TEST(RandomForestTest, FitsNonlinearFunction) {
  TabularDataset data = NonlinearData(600, 1);
  RandomForestConfig config;
  config.num_trees = 50;
  config.tree.max_depth = 6;
  RandomForest model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> pred = model.PredictBatch(data.x);
  EXPECT_GT(PearsonCorrelation(pred, data.y), 0.85);
  EXPECT_EQ(model.num_trees(), 50u);
}

TEST(RandomForestTest, MoreTreesReduceVariance) {
  TabularDataset train = NonlinearData(400, 2);
  TabularDataset test = NonlinearData(200, 3);

  auto test_rmse = [&](int trees) {
    RandomForestConfig config;
    config.num_trees = trees;
    config.tree.max_depth = 6;
    config.seed = 5;
    RandomForest model(config);
    EXPECT_TRUE(model.Fit(train).ok());
    return Rmse(model.PredictBatch(test.x), test.y);
  };
  // An ensemble should beat a single bagged tree out of sample.
  EXPECT_LT(test_rmse(60), test_rmse(1));
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  TabularDataset data = NonlinearData(200, 4);
  RandomForestConfig config;
  config.num_trees = 10;
  config.seed = 99;
  RandomForest a(config);
  RandomForest b(config);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.Predict(data.x.Row(i)), b.Predict(data.x.Row(i)));
  }
}

TEST(RandomForestTest, PredictionWithinTargetRange) {
  // Tree ensembles cannot extrapolate beyond observed targets.
  TabularDataset data = NonlinearData(300, 6);
  RandomForest model;
  ASSERT_TRUE(model.Fit(data).ok());
  const double lo = Min(data.y);
  const double hi = Max(data.y);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> far = {rng.NextGaussian(0, 10), rng.NextGaussian(0, 10),
                               rng.NextGaussian(0, 10),
                               rng.NextGaussian(0, 10)};
    const double p = model.Predict(far);
    EXPECT_GE(p, lo - 1e-9);
    EXPECT_LE(p, hi + 1e-9);
  }
}

TEST(RandomForestTest, RejectsEmptyAndMismatched) {
  RandomForest model;
  TabularDataset empty;
  EXPECT_FALSE(model.Fit(empty).ok());
  TabularDataset bad;
  bad.x = Matrix(5, 2);
  bad.y.resize(3);
  EXPECT_FALSE(model.Fit(bad).ok());
}

TEST(RandomForestTest, BitIdenticalAcrossThreadCounts) {
  // Per-tree Rng::Fork plus fixed bagging order makes the forest a pure
  // function of (data, seed) regardless of TG_THREADS. Any scheduling
  // dependence would show up as a flipped bit here.
  TabularDataset data = NonlinearData(300, 8);
  auto fit_predictions = [&](size_t threads) {
    SetThreadCount(threads);
    RandomForestConfig config;
    config.num_trees = 12;
    config.tree.max_depth = 5;
    config.seed = 31;
    RandomForest model(config);
    EXPECT_TRUE(model.Fit(data).ok());
    return model.PredictBatch(data.x);
  };
  const std::vector<double> one = fit_predictions(1);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    const std::vector<double> many = fit_predictions(threads);
    ASSERT_EQ(one.size(), many.size());
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i], many[i]) << "threads=" << threads << " row=" << i;
    }
  }
  SetThreadCount(0);
}

TEST(RandomForestTest, PaperDefaultsConstructible) {
  // Paper §VI-C: 100 trees, depth 5.
  RandomForestConfig config;
  EXPECT_EQ(config.num_trees, 100);
  EXPECT_EQ(config.tree.max_depth, 5);
}

}  // namespace
}  // namespace tg::ml
