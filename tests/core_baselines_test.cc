#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "numeric/kernel_backend.h"
#include "numeric/stats.h"
#include "util/thread_pool.h"

namespace tg::core {
namespace {

constexpr EstimatorBaseline kAllEstimators[] = {
    EstimatorBaseline::kLogMe, EstimatorBaseline::kLeep,
    EstimatorBaseline::kNce, EstimatorBaseline::kParc,
    EstimatorBaseline::kHScore};

// FNV-1a over the bit patterns of the scores, as 16 hex digits.
std::string BitsHash(const std::vector<double>& scores) {
  uint64_t hash = 1469598103934665603ULL;
  for (double v : scores) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(v));
    for (unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ULL;
    }
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash);
  return hex;
}

zoo::ModelZooConfig FixtureConfig() {
  zoo::ModelZooConfig config;
  config.catalog.num_image_models = 48;
  config.catalog.num_text_models = 24;
  config.world.max_samples_per_dataset = 80;
  return config;
}

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() {
    zoo_ = std::make_unique<zoo::ModelZoo>(FixtureConfig());
    target_ = zoo_->EvaluationTargets(zoo::Modality::kImage)[0];
  }

  std::unique_ptr<zoo::ModelZoo> zoo_;
  size_t target_ = 0;
};

TEST_F(BaselinesTest, LogMeBaselineBeatsRandomOnAverage) {
  TargetEvaluation logme = EvaluateEstimatorBaseline(
      zoo_.get(), target_, EstimatorBaseline::kLogMe);
  // Average several random baselines for a stable comparison.
  double random_mean = 0.0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    random_mean +=
        EvaluateRandomBaseline(zoo_.get(), target_, seed).pearson;
  }
  random_mean /= 10.0;
  EXPECT_GT(logme.pearson, random_mean + 0.1);
}

TEST_F(BaselinesTest, AllEstimatorsProduceFiniteScores) {
  for (EstimatorBaseline baseline :
       {EstimatorBaseline::kLogMe, EstimatorBaseline::kLeep,
        EstimatorBaseline::kNce, EstimatorBaseline::kParc,
        EstimatorBaseline::kHScore}) {
    TargetEvaluation eval =
        EvaluateEstimatorBaseline(zoo_.get(), target_, baseline);
    EXPECT_EQ(eval.predicted.size(), 48u)
        << EstimatorBaselineName(baseline);
    EXPECT_TRUE(std::isfinite(eval.pearson))
        << EstimatorBaselineName(baseline);
  }
}

TEST_F(BaselinesTest, RandomBaselineNearZeroOnAverage) {
  double total = 0.0;
  const int trials = 30;
  for (int seed = 0; seed < trials; ++seed) {
    total += EvaluateRandomBaseline(zoo_.get(), target_,
                                    static_cast<uint64_t>(seed))
                 .pearson;
  }
  EXPECT_NEAR(total / trials, 0.0, 0.1);
}

TEST_F(BaselinesTest, RandomBaselineDeterministicPerSeed) {
  TargetEvaluation a = EvaluateRandomBaseline(zoo_.get(), target_, 7);
  TargetEvaluation b = EvaluateRandomBaseline(zoo_.get(), target_, 7);
  EXPECT_EQ(a.predicted, b.predicted);
}

TEST_F(BaselinesTest, EstimatorNamesStable) {
  EXPECT_STREQ(EstimatorBaselineName(EstimatorBaseline::kLogMe), "LogME");
  EXPECT_STREQ(EstimatorBaselineName(EstimatorBaseline::kLeep), "LEEP");
  EXPECT_STREQ(EstimatorBaselineName(EstimatorBaseline::kNce), "NCE");
  EXPECT_STREQ(EstimatorBaselineName(EstimatorBaseline::kParc), "PARC");
  EXPECT_STREQ(EstimatorBaselineName(EstimatorBaseline::kHScore), "H-Score");
}

TEST_F(BaselinesTest, WorksOnTextModality) {
  const size_t text_target =
      zoo_->EvaluationTargets(zoo::Modality::kText)[0];
  TargetEvaluation eval = EvaluateEstimatorBaseline(
      zoo_.get(), text_target, EstimatorBaseline::kLogMe);
  EXPECT_EQ(eval.predicted.size(), 24u);
  EXPECT_TRUE(std::isfinite(eval.pearson));
}

// Pins the exact bits of every estimator's scores on an image and a text
// target, so restructuring how the zoo computes or caches them cannot move
// a single score unnoticed. LogME and H-score reduce through the backend's
// dot and gram products, so they are pinned per x86 backend (recorded
// before MatMul and TransposedMatMul became one Gemm call); the test checks
// the column of the backend TG_ISA selected, and the avx512 column, the
// only one it had before, on any other backend.
TEST_F(BaselinesTest, EstimatorScoresPinned) {
  const size_t text_target =
      zoo_->EvaluationTargets(zoo::Modality::kText)[0];
  const struct {
    size_t target;
    EstimatorBaseline baseline;
    const char* scalar;
    const char* avx2;
    const char* avx512;
  } kPinned[] = {
      {target_, EstimatorBaseline::kLogMe, "dd63449f7c1b6521",
       "69615c65b333e449", "69615c65b333e449"},
      {target_, EstimatorBaseline::kLeep, "d0504f024f451376",
       "d0504f024f451376", "d0504f024f451376"},
      {target_, EstimatorBaseline::kNce, "89bf4fad89cdf0d7",
       "89bf4fad89cdf0d7", "89bf4fad89cdf0d7"},
      {target_, EstimatorBaseline::kParc, "7446f65aa29cdf05",
       "7446f65aa29cdf05", "7446f65aa29cdf05"},
      {target_, EstimatorBaseline::kHScore, "aa7905e7b491deee",
       "b58a0a0ae02a01f9", "cc2ba9f09c1a7ec9"},
      {text_target, EstimatorBaseline::kLogMe, "877a0c070c8dd9a4",
       "8e8bd1badefc5586", "8e8bd1badefc5586"},
      {text_target, EstimatorBaseline::kLeep, "99631243cfbbceac",
       "99631243cfbbceac", "99631243cfbbceac"},
      {text_target, EstimatorBaseline::kNce, "517f0026aed91f1b",
       "517f0026aed91f1b", "517f0026aed91f1b"},
      {text_target, EstimatorBaseline::kParc, "0d8551145d5af322",
       "0d8551145d5af322", "0d8551145d5af322"},
      {text_target, EstimatorBaseline::kHScore, "07e4f56aafabd1ee",
       "3527ec1ed236f20a", "02491376614bf747"},
  };
  const std::string backend = kernels::ActiveBackendName();
  for (const auto& pin : kPinned) {
    const char* want = backend == "scalar" ? pin.scalar
                       : backend == "avx2" ? pin.avx2
                                           : pin.avx512;
    EXPECT_EQ(BitsHash(EvaluateEstimatorBaseline(zoo_.get(), pin.target,
                                                 pin.baseline)
                           .predicted),
              want)
        << EstimatorBaselineName(pin.baseline) << " on target "
        << pin.target << " under " << backend;
  }
}

// A score is the same whichever estimator of its (model, dataset) pair was
// asked for first.
TEST_F(BaselinesTest, ScoresDoNotDependOnCallOrder) {
  std::vector<std::vector<double>> in_order;
  for (EstimatorBaseline baseline : kAllEstimators) {
    in_order.push_back(
        EvaluateEstimatorBaseline(zoo_.get(), target_, baseline).predicted);
  }
  zoo::ModelZoo fresh(FixtureConfig());
  for (size_t e : {3, 4, 1, 2, 0}) {  // PARC, H-score, LEEP, NCE, LogME
    EXPECT_EQ(BitsHash(EvaluateEstimatorBaseline(&fresh, target_,
                                                 kAllEstimators[e])
                           .predicted),
              BitsHash(in_order[e]))
        << EstimatorBaselineName(kAllEstimators[e]);
  }
}

// Concurrent misses on a cold zoo agree with serial ones (the TSan pass
// runs this with real contention on the score cache).
TEST_F(BaselinesTest, ConcurrentMissesMatchSerialScores) {
  const std::vector<size_t> models =
      zoo_->ModelsOfModality(zoo::Modality::kImage);
  std::vector<double> parc(models.size());
  std::vector<double> leep(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    parc[i] = zoo_->Parc(models[i], target_);
    leep[i] = zoo_->Leep(models[i], target_);
  }
  zoo::ModelZoo cold(FixtureConfig());
  std::vector<double> parc_par(models.size());
  std::vector<double> leep_par(models.size());
  SetThreadCount(3);
  ParallelFor(0, models.size(), 1, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      parc_par[i] = cold.Parc(models[i], target_);
      leep_par[i] = cold.Leep(models[i], target_);
    }
  });
  SetThreadCount(0);
  EXPECT_EQ(BitsHash(parc_par), BitsHash(parc));
  EXPECT_EQ(BitsHash(leep_par), BitsHash(leep));
}

}  // namespace
}  // namespace tg::core
