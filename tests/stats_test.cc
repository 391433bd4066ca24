#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "numeric/stats.h"
#include "util/rng.h"

namespace tg {
namespace {

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(v), std::sqrt(1.25));
}

TEST(StatsTest, EmptyVectorIsSafe) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(StatsTest, MinMax) {
  std::vector<double> v = {3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(Min(v), -1.0);
  EXPECT_DOUBLE_EQ(Max(v), 7.0);
}

TEST(StatsTest, Quantile) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
}

TEST(PearsonTest, PerfectPositive) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {10, 20, 30, 40};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegative) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {5, 3, 1};
  EXPECT_NEAR(PearsonCorrelation(a, b), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSeriesYieldsZero) {
  std::vector<double> a = {1, 1, 1};
  std::vector<double> b = {1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

TEST(PearsonTest, AffineInvariance) {
  Rng rng(3);
  std::vector<double> a(100);
  std::vector<double> b(100);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextGaussian();
    b[i] = 0.7 * a[i] + rng.NextGaussian();
  }
  const double base = PearsonCorrelation(a, b);
  std::vector<double> scaled = a;
  for (double& v : scaled) v = 5.0 * v - 3.0;
  EXPECT_NEAR(PearsonCorrelation(scaled, b), base, 1e-12);
}

TEST(PearsonTest, IndependentSeriesNearZero) {
  Rng rng(5);
  std::vector<double> a(5000);
  std::vector<double> b(5000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextGaussian();
  }
  EXPECT_NEAR(PearsonCorrelation(a, b), 0.0, 0.05);
}

TEST(AverageRanksTest, SimpleOrdering) {
  std::vector<double> v = {30, 10, 20};
  EXPECT_EQ(AverageRanks(v), (std::vector<double>{3, 1, 2}));
}

TEST(AverageRanksTest, TiesGetAverageRank) {
  std::vector<double> v = {5, 5, 1};
  auto ranks = AverageRanks(v);
  EXPECT_DOUBLE_EQ(ranks[0], 2.5);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 1.0);
}

// The index-sort ranking AverageRanks used before it sorted contiguous
// (value, index) pairs; kept as the bit-level reference.
std::vector<double> IndexSortAverageRanks(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return values[x] < values[y]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg = (static_cast<double>(i + 1) +
                        static_cast<double>(j + 1)) / 2.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(AverageRanksTest, MatchesIndexSortBitForBit) {
  // Heavy ties, both signed zeros (equal, so one tie block), and sizes on
  // either side of small-sort cutoffs.
  const double pool[] = {-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 1e300};
  Rng rng(77);
  for (size_t n : {0, 1, 2, 3, 15, 16, 17, 100, 1000, 32640}) {
    std::vector<double> tied(n);
    std::vector<double> mixed(n);
    for (size_t i = 0; i < n; ++i) {
      tied[i] = pool[rng.NextBelow(8)];
      mixed[i] = rng.NextBelow(3) == 0 ? tied[i] : rng.NextGaussian();
    }
    EXPECT_TRUE(SameBits(AverageRanks(tied), IndexSortAverageRanks(tied)))
        << "n=" << n;
    EXPECT_TRUE(SameBits(AverageRanks(mixed), IndexSortAverageRanks(mixed)))
        << "n=" << n;
  }
}

TEST(SpearmanTest, MonotoneNonlinearIsPerfect) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> b = {1, 8, 27, 64, 125};  // cubic, monotone
  EXPECT_NEAR(SpearmanCorrelation(a, b), 1.0, 1e-12);
}

TEST(SpearmanTest, ReversedIsMinusOne) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {9, 7, 5, 2};
  EXPECT_NEAR(SpearmanCorrelation(a, b), -1.0, 1e-12);
}

TEST(MinMaxNormalizeTest, MapsToUnitInterval) {
  std::vector<double> v = {2, 4, 6};
  auto n = MinMaxNormalize(v);
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
  EXPECT_DOUBLE_EQ(n[2], 1.0);
}

TEST(MinMaxNormalizeTest, ConstantMapsToHalf) {
  auto n = MinMaxNormalize({3, 3, 3});
  for (double v : n) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(MinMaxNormalizeTest, EmptyInput) {
  EXPECT_TRUE(MinMaxNormalize({}).empty());
}

TEST(DistanceTest, CorrelationDistanceBounds) {
  std::vector<double> a = {1, 2, 3};
  EXPECT_NEAR(CorrelationDistance(a, a), 0.0, 1e-12);
  std::vector<double> b = {3, 2, 1};
  EXPECT_NEAR(CorrelationDistance(a, b), 2.0, 1e-12);
}

TEST(DistanceTest, CosineSimilarity) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {1, 0}), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 1}, {-1, -1}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 1}), 0.0);
}

TEST(DistanceTest, Euclidean) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({1, 1}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace tg
