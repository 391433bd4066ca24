#include <cmath>

#include <gtest/gtest.h>

#include "numeric/stats.h"
#include "zoo/synthetic_world.h"

namespace tg::zoo {
namespace {

class WorldTest : public ::testing::Test {
 protected:
  WorldTest() {
    CatalogOptions catalog_options;
    catalog_options.num_image_models = 40;
    catalog_options.num_text_models = 24;
    catalog_ = BuildCatalog(catalog_options);
    WorldConfig config;
    config.max_samples_per_dataset = 150;
    world_ = std::make_unique<SyntheticWorld>(catalog_, config);
  }

  size_t FindDataset(const std::string& name) const {
    for (size_t d = 0; d < catalog_.datasets.size(); ++d) {
      if (catalog_.datasets[d].name == name) return d;
    }
    ADD_FAILURE() << "missing dataset " << name;
    return 0;
  }

  Catalog catalog_;
  std::unique_ptr<SyntheticWorld> world_;
};

TEST_F(WorldTest, AffinityBounds) {
  for (size_t m = 0; m < catalog_.models.size(); m += 3) {
    for (size_t d = 0; d < catalog_.datasets.size(); d += 7) {
      const double a = world_->Affinity(m, d);
      EXPECT_GE(a, 0.0);
      EXPECT_LE(a, 1.0);
    }
  }
}

TEST_F(WorldTest, ModelsPreferTheirSourceDomain) {
  // A model's affinity with its own source dataset should on average beat
  // its affinity with a random dataset of another domain group.
  double own = 0.0;
  double other = 0.0;
  int count = 0;
  for (size_t m = 0; m < catalog_.models.size(); ++m) {
    const size_t source = catalog_.models[m].source_dataset;
    const DatasetInfo& src = catalog_.datasets[source];
    for (size_t d = 0; d < catalog_.datasets.size(); ++d) {
      const DatasetInfo& ds = catalog_.datasets[d];
      if (ds.modality != src.modality || ds.domain == src.domain) continue;
      own += world_->Affinity(m, source);
      other += world_->Affinity(m, d);
      ++count;
      break;
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(own / count, other / count + 0.05);
}

TEST_F(WorldTest, SameDomainDatasetsHaveCorrelatedLatents) {
  // Datasets in the same domain group share the group direction.
  const size_t caltech = FindDataset("caltech101");
  const size_t cifar = FindDataset("cifar100");   // same domain (generic)
  const size_t dtd = FindDataset("dtd");          // textures
  const auto& a = world_->DatasetLatent(caltech);
  const auto& b = world_->DatasetLatent(cifar);
  const auto& c = world_->DatasetLatent(dtd);
  EXPECT_GT(CosineSimilarity(a, b), CosineSimilarity(a, c));
}

TEST_F(WorldTest, CapacityNormalizedPerModality) {
  double min_cap = 1e9;
  double max_cap = -1e9;
  for (size_t m = 0; m < catalog_.models.size(); ++m) {
    if (catalog_.models[m].modality != Modality::kImage) continue;
    min_cap = std::min(min_cap, world_->Capacity(m));
    max_cap = std::max(max_cap, world_->Capacity(m));
  }
  EXPECT_NEAR(min_cap, 0.0, 1e-9);
  EXPECT_NEAR(max_cap, 1.0, 1e-9);
}

TEST_F(WorldTest, DifficultyTracksClassCount) {
  // ImageNet-21k (21841 classes) should be harder than eurosat (10 classes).
  EXPECT_GT(world_->Difficulty(FindDataset("imagenet21k")),
            world_->Difficulty(FindDataset("eurosat")));
}

TEST_F(WorldTest, PretrainAccuracyInRange) {
  for (size_t m = 0; m < catalog_.models.size(); ++m) {
    EXPECT_GE(world_->PretrainAccuracy(m), 0.3);
    EXPECT_LE(world_->PretrainAccuracy(m), 0.99);
  }
}

TEST_F(WorldTest, SamplesShapeAndLabels) {
  const size_t flowers = FindDataset("flowers");
  const DatasetSamples& samples = world_->Samples(flowers);
  EXPECT_EQ(samples.num_classes, 10);
  EXPECT_EQ(samples.labels.size(), samples.latent.rows());
  EXPECT_EQ(samples.ambient.rows(), samples.latent.rows());
  EXPECT_LE(samples.latent.rows(), 150u);
  for (int label : samples.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, samples.num_classes);
  }
}

TEST_F(WorldTest, SamplesCached) {
  const size_t pets = FindDataset("pets");
  const DatasetSamples& a = world_->Samples(pets);
  const DatasetSamples& b = world_->Samples(pets);
  EXPECT_EQ(&a, &b);
}

TEST_F(WorldTest, ClassCapRespected) {
  const size_t cars = FindDataset("stanfordcars");  // 196 classes
  const DatasetSamples& samples = world_->Samples(cars);
  EXPECT_LE(samples.num_classes, 32);
}

TEST_F(WorldTest, ExtractedFeaturesShape) {
  const size_t dtd = FindDataset("dtd");
  Matrix f = world_->ExtractFeatures(0, dtd);
  EXPECT_EQ(f.rows(), world_->Samples(dtd).latent.rows());
  EXPECT_EQ(f.cols(), world_->config().feature_dim);
}

TEST_F(WorldTest, HighAffinityModelsGetMoreSeparableFeatures) {
  // Pick the image model with max vs min affinity to a target; class
  // separation (between/within distance ratio) should be larger for the
  // high-affinity model.
  const size_t target = FindDataset("stanfordcars");
  size_t best_model = 0, worst_model = 0;
  double best = -1.0, worst = 2.0;
  for (size_t m = 0; m < catalog_.models.size(); ++m) {
    if (catalog_.models[m].modality != Modality::kImage) continue;
    const double a = world_->Affinity(m, target);
    if (a > best) {
      best = a;
      best_model = m;
    }
    if (a < worst) {
      worst = a;
      worst_model = m;
    }
  }
  ASSERT_GT(best, worst);

  auto separation = [&](size_t model) {
    const DatasetSamples& samples = world_->Samples(target);
    Matrix f = world_->ExtractFeatures(model, target);
    // Between-class variance of per-class means over total variance.
    const int k = samples.num_classes;
    Matrix class_mean(k, f.cols());
    std::vector<int> counts(k, 0);
    for (size_t i = 0; i < f.rows(); ++i) {
      const int y = samples.labels[i];
      ++counts[y];
      for (size_t c = 0; c < f.cols(); ++c) class_mean(y, c) += f(i, c);
    }
    for (int y = 0; y < k; ++y) {
      for (size_t c = 0; c < f.cols(); ++c) {
        class_mean(y, c) /= std::max(counts[y], 1);
      }
    }
    double between = 0.0;
    for (int y = 0; y < k; ++y) {
      for (size_t c = 0; c < f.cols(); ++c) {
        between += class_mean(y, c) * class_mean(y, c);
      }
    }
    return between;
  };
  EXPECT_GT(separation(best_model), separation(worst_model));
}

TEST_F(WorldTest, SourceProbabilitiesAreDistributions) {
  const size_t svhn = FindDataset("svhn");
  Matrix probs =
      world_->SourceProbabilities(0, world_->ExtractFeatures(0, svhn));
  EXPECT_EQ(probs.rows(), world_->Samples(svhn).latent.rows());
  for (size_t i = 0; i < probs.rows(); ++i) {
    double total = 0.0;
    for (size_t z = 0; z < probs.cols(); ++z) {
      EXPECT_GE(probs(i, z), 0.0);
      total += probs(i, z);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(WorldTest, HardLabelsMatchArgmax) {
  const size_t svhn = FindDataset("svhn");
  Matrix probs =
      world_->SourceProbabilities(3, world_->ExtractFeatures(3, svhn));
  std::vector<int> hard = SourceHardLabels(probs);
  ASSERT_EQ(hard.size(), probs.rows());
  for (size_t i = 0; i < probs.rows(); ++i) {
    for (size_t z = 0; z < probs.cols(); ++z) {
      EXPECT_LE(probs(i, z), probs(i, static_cast<size_t>(hard[i])) + 1e-12);
    }
  }
}

// FNV-1a over the bytes of `values`.
template <typename T>
uint64_t BitsHash(const T* values, size_t n) {
  uint64_t hash = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values);
  for (size_t i = 0; i < n * sizeof(T); ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Pins the exact bits of the source probabilities and hard labels, so the
// extraction and the probability map can be restructured without moving a
// single LEEP or NCE input.
TEST_F(WorldTest, SourceProbabilitiesPinned) {
  const struct {
    const char* dataset;
    size_t model;
    uint64_t probs_hash;
    uint64_t labels_hash;
  } kPinned[] = {
      {"svhn", 0, 0x5d56a18bfaa4008eULL, 0x929a07f36437a0e2ULL},
      {"svhn", 3, 0x1a5be7b08e9a022dULL, 0x13404841ce63aa92ULL},
      {"svhn", 17, 0xf09a901db6f279e7ULL, 0x5352319718185af8ULL},
      {"cifar100", 0, 0xa975784253152905ULL, 0x1642062a3cd007c1ULL},
      {"cifar100", 3, 0xa57eebc0bd26b71cULL, 0xff697cfd4296f634ULL},
      {"cifar100", 17, 0x671e20348b7e030cULL, 0x7c9bf4cff666ee0fULL},
  };
  for (const auto& pin : kPinned) {
    const size_t d = FindDataset(pin.dataset);
    const Matrix probs = world_->SourceProbabilities(
        pin.model, world_->ExtractFeatures(pin.model, d));
    ASSERT_EQ(probs.rows(), 150u);
    ASSERT_EQ(probs.cols(), 12u);
    const std::vector<int> hard = SourceHardLabels(probs);
    EXPECT_EQ(BitsHash(probs.data(), probs.rows() * probs.cols()),
              pin.probs_hash)
        << pin.dataset << " model " << pin.model;
    EXPECT_EQ(BitsHash(hard.data(), hard.size()), pin.labels_hash)
        << pin.dataset << " model " << pin.model;
  }
}

}  // namespace
}  // namespace tg::zoo
