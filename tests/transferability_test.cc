#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "transferability/hscore.h"
#include "transferability/leep.h"
#include "transferability/logme.h"
#include "transferability/nce.h"
#include "transferability/parc.h"
#include "util/rng.h"

namespace tg {
namespace {

// Features with class structure: centers +/- separation along each dim.
struct LabeledFeatures {
  Matrix features;
  std::vector<int> labels;
};

LabeledFeatures MakeSeparable(size_t n, size_t dim, int classes,
                              double separation, uint64_t seed) {
  Rng rng(seed);
  LabeledFeatures data;
  data.features = Matrix(n, dim);
  data.labels.resize(n);
  std::vector<std::vector<double>> centers(classes);
  for (auto& c : centers) {
    c.resize(dim);
    for (double& v : c) v = separation * rng.NextGaussian();
  }
  for (size_t i = 0; i < n; ++i) {
    const int y = static_cast<int>(i % classes);
    data.labels[i] = y;
    for (size_t d = 0; d < dim; ++d) {
      data.features(i, d) = centers[y][d] + rng.NextGaussian();
    }
  }
  return data;
}

// --- LogME ---

TEST(LogMeTest, InformativeFeaturesScoreHigher) {
  LabeledFeatures good = MakeSeparable(300, 16, 4, 3.0, 1);
  LabeledFeatures noise = MakeSeparable(300, 16, 4, 0.0, 2);
  double s_good = LogMeScore(good.features, good.labels, 4).value();
  double s_noise = LogMeScore(noise.features, noise.labels, 4).value();
  EXPECT_GT(s_good, s_noise + 0.05);
}

TEST(LogMeTest, MonotoneInSeparation) {
  double prev = -1e18;
  for (double sep : {0.0, 1.0, 3.0}) {
    LabeledFeatures data = MakeSeparable(400, 12, 3, sep, 3);
    double score = LogMeScore(data.features, data.labels, 3).value();
    EXPECT_GT(score, prev);
    prev = score;
  }
}

TEST(LogMeTest, EvidenceOfPerfectlyPredictableTargetIsHigh) {
  Rng rng(4);
  Matrix f = Matrix::Gaussian(200, 8, &rng);
  std::vector<double> target(200);
  for (size_t i = 0; i < 200; ++i) target[i] = f(i, 0) * 2.0 - f(i, 3);
  std::vector<double> random_target(200);
  for (double& t : random_target) t = rng.NextGaussian();
  double predictable = LogMeEvidence(f, target).value();
  double random = LogMeEvidence(f, random_target).value();
  EXPECT_GT(predictable, random);
}

TEST(LogMeTest, InputValidation) {
  Matrix f(10, 4);
  std::vector<int> labels(10, 0);
  EXPECT_FALSE(LogMeScore(Matrix(), labels, 2).ok());
  EXPECT_FALSE(LogMeScore(f, std::vector<int>(5, 0), 2).ok());
  EXPECT_FALSE(LogMeScore(f, labels, 1).ok());
  std::vector<int> bad = labels;
  bad[0] = 7;
  EXPECT_FALSE(LogMeScore(f, bad, 2).ok());
}

TEST(LogMeTest, DeterministicScore) {
  LabeledFeatures data = MakeSeparable(150, 8, 3, 2.0, 5);
  double a = LogMeScore(data.features, data.labels, 3).value();
  double b = LogMeScore(data.features, data.labels, 3).value();
  EXPECT_DOUBLE_EQ(a, b);
}

// --- LEEP ---

TEST(LeepTest, AlignedSourcePredictionsScoreHigher) {
  const size_t n = 300;
  Rng rng(6);
  // Aligned: source class z == target label y with prob 0.9.
  Matrix aligned(n, 3);
  Matrix uninformative(n, 3, 1.0 / 3.0);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    const int y = static_cast<int>(i % 3);
    labels[i] = y;
    for (int z = 0; z < 3; ++z) aligned(i, z) = z == y ? 0.9 : 0.05;
  }
  double s_aligned = LeepScore(aligned, labels, 3).value();
  double s_flat = LeepScore(uninformative, labels, 3).value();
  EXPECT_GT(s_aligned, s_flat + 0.1);
}

TEST(LeepTest, ScoreIsNonPositiveLogLikelihood) {
  Matrix probs(10, 2, 0.5);
  std::vector<int> labels(10, 0);
  for (size_t i = 5; i < 10; ++i) labels[i] = 1;
  double score = LeepScore(probs, labels, 2).value();
  EXPECT_LE(score, 0.0);
  // With flat predictions the empirical predictor equals the marginal: log 0.5.
  EXPECT_NEAR(score, std::log(0.5), 1e-9);
}

TEST(LeepTest, InputValidation) {
  EXPECT_FALSE(LeepScore(Matrix(), {0}, 2).ok());
  EXPECT_FALSE(LeepScore(Matrix(3, 2), {0, 1}, 2).ok());
  EXPECT_FALSE(LeepScore(Matrix(2, 2), {0, 5}, 2).ok());
}

// --- NCE ---

TEST(NceTest, PerfectAlignmentGivesZero) {
  std::vector<int> z = {0, 1, 2, 0, 1, 2};
  // y is a deterministic function of z -> H(Y|Z) = 0 -> NCE = 0.
  std::vector<int> y = {5, 6, 7, 5, 6, 7};
  EXPECT_NEAR(NceScore(z, y).value(), 0.0, 1e-12);
}

TEST(NceTest, IndependentLabelsGiveNegative) {
  Rng rng(7);
  std::vector<int> z(2000);
  std::vector<int> y(2000);
  for (size_t i = 0; i < z.size(); ++i) {
    z[i] = static_cast<int>(rng.NextBelow(4));
    y[i] = static_cast<int>(rng.NextBelow(4));
  }
  const double score = NceScore(z, y).value();
  // H(Y|Z) ~ log 4.
  EXPECT_NEAR(score, -std::log(4.0), 0.05);
}

TEST(NceTest, MoreInformativeSourceScoresHigher) {
  Rng rng(8);
  std::vector<int> y(1000);
  std::vector<int> z_good(1000);
  std::vector<int> z_bad(1000);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<int>(rng.NextBelow(3));
    z_good[i] = rng.NextBernoulli(0.9) ? y[i] : static_cast<int>(
                                                    rng.NextBelow(3));
    z_bad[i] = static_cast<int>(rng.NextBelow(3));
  }
  EXPECT_GT(NceScore(z_good, y).value(), NceScore(z_bad, y).value() + 0.2);
}

TEST(NceTest, InputValidation) {
  EXPECT_FALSE(NceScore({}, {}).ok());
  EXPECT_FALSE(NceScore({0, 1}, {0}).ok());
}

// --- PARC ---

TEST(ParcTest, SeparableFeaturesScoreHigher) {
  LabeledFeatures good = MakeSeparable(200, 12, 4, 4.0, 9);
  LabeledFeatures noise = MakeSeparable(200, 12, 4, 0.0, 10);
  double s_good = ParcScore(good.features, good.labels, 4).value();
  double s_noise = ParcScore(noise.features, noise.labels, 4).value();
  EXPECT_GT(s_good, s_noise + 10.0);  // PARC is scaled by 100
}

TEST(ParcTest, BoundedByHundred) {
  LabeledFeatures data = MakeSeparable(100, 8, 2, 5.0, 11);
  double score = ParcScore(data.features, data.labels, 2).value();
  EXPECT_LE(score, 100.0);
  EXPECT_GE(score, -100.0);
}

TEST(ParcTest, SubsamplingKeepsScoreStable) {
  LabeledFeatures data = MakeSeparable(800, 10, 3, 3.0, 12);
  ParcOptions small;
  small.max_samples = 128;
  ParcOptions large;
  large.max_samples = 512;
  double a = ParcScore(data.features, data.labels, 3, small).value();
  double b = ParcScore(data.features, data.labels, 3, large).value();
  EXPECT_NEAR(a, b, 15.0);
}

TEST(ParcTest, InputValidation) {
  EXPECT_FALSE(ParcScore(Matrix(2, 3), {0, 1}, 2).ok());  // too few samples
  EXPECT_FALSE(ParcScore(Matrix(5, 3), {0, 1, 0, 1}, 2).ok());

  // Every label is checked, not only those of the subsampled rows.
  LabeledFeatures data = MakeSeparable(400, 8, 3, 2.0, 15);
  ASSERT_TRUE(ParcScore(data.features, data.labels, 3).ok());
  const ParcOptions defaults;
  Rng rng(defaults.seed);
  std::vector<size_t> kept =
      rng.SampleWithoutReplacement(400, defaults.max_samples);
  std::sort(kept.begin(), kept.end());
  size_t dropped = 0;
  while (std::binary_search(kept.begin(), kept.end(), dropped)) ++dropped;
  for (int bad : {7, -5, 3}) {
    for (size_t row : {dropped, kept.front(), size_t{399}}) {
      std::vector<int> labels = data.labels;
      labels[row] = bad;
      EXPECT_EQ(ParcScore(data.features, labels, 3).status().code(),
                StatusCode::kOutOfRange)
          << "label " << bad << " in row " << row;
    }
  }

  // A subsample of fewer than 3 rows has no pair geometry to compare.
  for (size_t max_samples : {0, 1, 2}) {
    ParcOptions options;
    options.max_samples = max_samples;
    EXPECT_EQ(ParcScore(data.features, data.labels, 3, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "max_samples " << max_samples;
  }
  ParcOptions three;
  three.max_samples = 3;
  EXPECT_TRUE(ParcScore(data.features, data.labels, 3, three).ok());
}

// FNV-1a over the %.17g text of each score, so two runs hash equal only when
// every score has the same bits.
std::string ScoreHash(const std::vector<double>& scores) {
  uint64_t hash = 1469598103934665603ULL;
  char text[32];
  for (double v : scores) {
    const int n = std::snprintf(text, sizeof(text), "%.17g\n", v);
    for (int k = 0; k < n; ++k) {
      hash ^= static_cast<unsigned char>(text[k]);
      hash *= 1099511628211ULL;
    }
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash);
  return hex;
}

// PARC scores of MakeSeparable data over three seeds, with `edit` applied
// to each data set first.
template <typename Edit>
std::string ParcHash(size_t n, size_t dim, int used_classes, int num_classes,
                     const ParcOptions& options, Edit edit) {
  std::vector<double> scores;
  for (uint64_t seed : {41, 42, 43}) {
    LabeledFeatures data = MakeSeparable(n, dim, used_classes, 1.5, seed);
    edit(&data);
    Result<double> score =
        ParcScore(data.features, data.labels, num_classes, options);
    EXPECT_TRUE(score.ok());
    scores.push_back(score.ok() ? score.value() : -1e300);
  }
  return ScoreHash(scores);
}

// Pins PARC's exact output bits, so a rewrite of the pairwise distances or
// of the rank sort cannot move a score unnoticed. The hashes were recorded
// from the per-pair CorrelationDistance formulation with index-sorted ranks.
TEST(ParcTest, OutputsPinnedAcrossRewrite) {
  const auto none = [](LabeledFeatures*) {};
  const ParcOptions defaults;
  // n > max_samples: a 256-row subsample.
  EXPECT_EQ(ParcHash(300, 20, 4, 4, defaults, none), "9877e93222d1aaff");
  // n <= max_samples, n and d not multiples of any tile width.
  EXPECT_EQ(ParcHash(203, 13, 5, 5, defaults, none), "911d5cba383cc9f3");
  // C = 2.
  EXPECT_EQ(ParcHash(150, 12, 2, 2, defaults, none), "a5391bb9bf317ed2");
  // C = 32 with 12 classes never used.
  EXPECT_EQ(ParcHash(190, 24, 20, 32, defaults, none), "a38690e733360588");
  // The cold-estimator benchmark's shape: 400 x 32 features, 32 classes.
  EXPECT_EQ(ParcHash(400, 32, 32, 32, defaults, none), "aefc249db2d42a7c");
  // Constant and all-zero rows: every pair with them has denom == 0.
  EXPECT_EQ(ParcHash(97, 9, 3, 3, defaults,
                     [](LabeledFeatures* data) {
                       for (size_t k = 0; k < data->features.cols(); ++k) {
                         data->features(5, k) = 2.5;
                         data->features(50, k) = 0.0;
                       }
                     }),
            "5c2c9c8144b29218");
  // Few distinct feature values: many tied distances to rank.
  EXPECT_EQ(ParcHash(120, 6, 3, 3, defaults,
                     [](LabeledFeatures* data) {
                       for (size_t i = 0; i < data->features.size(); ++i) {
                         double& v = data->features.data()[i];
                         v = v > 0.0 ? 1.0 : 0.0;
                       }
                     }),
            "86a683520592b97c");
  // d = 1: every Pearson term is the d < 2 zero, so every feature distance
  // is exactly 1 and every score exactly +0.
  EXPECT_EQ(ParcHash(120, 1, 3, 3, defaults, none), "1b6b475915cad6c9");
  // A small subsample of an odd size.
  ParcOptions small;
  small.max_samples = 37;
  small.seed = 5;
  EXPECT_EQ(ParcHash(260, 17, 6, 7, small, none), "11bd6e2ec0947518");
}

// --- H-Score ---

TEST(HScoreTest, SeparableFeaturesScoreHigher) {
  LabeledFeatures good = MakeSeparable(300, 10, 4, 3.0, 13);
  LabeledFeatures noise = MakeSeparable(300, 10, 4, 0.0, 14);
  double s_good = HScore(good.features, good.labels, 4).value();
  double s_noise = HScore(noise.features, noise.labels, 4).value();
  EXPECT_GT(s_good, s_noise + 0.5);
}

TEST(HScoreTest, NonNegativeAndBoundedByDim) {
  // tr(cov^{-1} cov_between) is between 0 and d (between <= total).
  LabeledFeatures data = MakeSeparable(400, 8, 3, 2.0, 15);
  double score = HScore(data.features, data.labels, 3).value();
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 8.0 + 1e-6);
}

TEST(HScoreTest, InvariantToFeatureScaling) {
  LabeledFeatures data = MakeSeparable(300, 6, 3, 2.0, 16);
  double base = HScore(data.features, data.labels, 3).value();
  Matrix scaled = data.features * 10.0;
  double after = HScore(scaled, data.labels, 3).value();
  // Whitening makes H-Score scale invariant (up to the tiny ridge term).
  EXPECT_NEAR(base, after, 0.05);
}

TEST(HScoreTest, InputValidation) {
  EXPECT_FALSE(HScore(Matrix(), {}, 2).ok());
  EXPECT_FALSE(HScore(Matrix(4, 2), {0, 1}, 2).ok());
  EXPECT_FALSE(HScore(Matrix(4, 2), {0, 1, 0, 1}, 1).ok());
  EXPECT_FALSE(HScore(Matrix(4, 2), {0, 9, 0, 1}, 2).ok());
}

}  // namespace
}  // namespace tg
