#include "zoo/synthetic_world.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "numeric/stats.h"
#include "util/check.h"

namespace tg::zoo {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

std::vector<double> NormalizedAbs(std::vector<double> v) {
  double norm = 0.0;
  for (double& x : v) {
    x = std::fabs(x);
    norm += x * x;
  }
  norm = std::sqrt(std::max(norm, 1e-12));
  for (double& x : v) x /= norm;
  return v;
}

// Orthonormalizes the columns of a (rows x cols, rows >= cols) in place.
Matrix GramSchmidt(Matrix a) {
  const size_t rows = a.rows();
  const size_t cols = a.cols();
  for (size_t c = 0; c < cols; ++c) {
    for (size_t prev = 0; prev < c; ++prev) {
      double dot = 0.0;
      for (size_t r = 0; r < rows; ++r) dot += a(r, c) * a(r, prev);
      for (size_t r = 0; r < rows; ++r) a(r, c) -= dot * a(r, prev);
    }
    double norm = 0.0;
    for (size_t r = 0; r < rows; ++r) norm += a(r, c) * a(r, c);
    norm = std::sqrt(std::max(norm, 1e-12));
    for (size_t r = 0; r < rows; ++r) a(r, c) /= norm;
  }
  return a;
}

}  // namespace

SyntheticWorld::SyntheticWorld(const Catalog& catalog,
                               const WorldConfig& config)
    : config_(config), catalog_(&catalog) {
  TG_CHECK_GE(config.ambient_dim, config.latent_dim);
  Rng root(config.seed);

  Rng basis_rng = root.Fork(1);
  basis_ = GramSchmidt(Matrix::Gaussian(config.ambient_dim,
                                        config.latent_dim, &basis_rng));

  // --- Dataset latents: group direction + dataset-specific component ---
  std::map<std::pair<Modality, DomainGroup>, std::vector<double>> group_dirs;
  Rng group_rng = root.Fork(2);
  Rng dataset_rng = root.Fork(3);
  const double coherence = config.group_coherence;
  for (const DatasetInfo& d : catalog.datasets) {
    auto key = std::make_pair(d.modality, d.domain);
    auto it = group_dirs.find(key);
    if (it == group_dirs.end()) {
      std::vector<double> dir(config.latent_dim);
      for (double& x : dir) x = group_rng.NextGaussian();
      it = group_dirs.emplace(key, std::move(dir)).first;
    }
    std::vector<double> z(config.latent_dim);
    const double own = std::sqrt(1.0 - coherence * coherence);
    for (size_t l = 0; l < config.latent_dim; ++l) {
      z[l] = coherence * it->second[l] + own * dataset_rng.NextGaussian();
    }
    dataset_latent_.push_back(NormalizedAbs(std::move(z)));
  }

  // --- Dataset difficulty: classes raise it, samples lower it ---
  {
    std::vector<double> log_classes;
    std::vector<double> log_samples;
    for (const DatasetInfo& d : catalog.datasets) {
      log_classes.push_back(std::log(static_cast<double>(d.num_classes)));
      log_samples.push_back(
          std::log(static_cast<double>(std::max<size_t>(d.num_samples, 1))));
    }
    const std::vector<double> nc = MinMaxNormalize(log_classes);
    const std::vector<double> ns = MinMaxNormalize(log_samples);
    Rng diff_rng = root.Fork(4);
    dataset_difficulty_.resize(catalog.datasets.size());
    for (size_t i = 0; i < catalog.datasets.size(); ++i) {
      const double raw = 0.55 * nc[i] + 0.25 * (1.0 - ns[i]) +
                         0.20 * diff_rng.NextDouble();
      dataset_difficulty_[i] = std::clamp(raw, 0.0, 1.0);
    }
  }

  // --- Architecture-domain inductive-bias table ---
  {
    DomainGroup max_domain = 0;
    for (const DatasetInfo& d : catalog.datasets) {
      max_domain = std::max(max_domain, d.domain);
    }
    Rng bias_rng = root.Fork(5);
    arch_domain_bias_.assign(
        kNumArchitectures,
        std::vector<double>(static_cast<size_t>(max_domain) + 1, 0.0));
    for (auto& row : arch_domain_bias_) {
      for (double& b : row) b = bias_rng.NextGaussian(0.0, 1.0);
    }
  }

  // --- Model parameters ---
  // Capacity: normalized log parameter count within each modality.
  std::vector<double> capacity(catalog.models.size(), 0.5);
  for (Modality modality : {Modality::kImage, Modality::kText}) {
    std::vector<size_t> idx;
    std::vector<double> log_params;
    for (size_t m = 0; m < catalog.models.size(); ++m) {
      if (catalog.models[m].modality != modality) continue;
      idx.push_back(m);
      log_params.push_back(
          std::log(catalog.models[m].num_parameters_millions));
    }
    const std::vector<double> norm = MinMaxNormalize(log_params);
    for (size_t i = 0; i < idx.size(); ++i) capacity[idx[i]] = norm[i];
  }

  Rng model_rng = root.Fork(6);
  model_params_.reserve(catalog.models.size());
  pretrain_accuracy_.reserve(catalog.models.size());
  for (size_t m = 0; m < catalog.models.size(); ++m) {
    const ModelInfo& info = catalog.models[m];
    ModelParams params;
    params.capacity = capacity[m];
    params.quality = model_rng.NextGaussian();

    // Skill: the source dataset's latent plus noise -- models genuinely
    // transfer best toward tasks resembling what they were trained on.
    const std::vector<double>& source = dataset_latent_[info.source_dataset];
    std::vector<double> skill(config.latent_dim);
    for (size_t l = 0; l < config.latent_dim; ++l) {
      skill[l] = source[l] + config.skill_noise * model_rng.NextGaussian() /
                                 std::sqrt(static_cast<double>(
                                     config.latent_dim));
    }
    params.skill = NormalizedAbs(std::move(skill));

    params.projection = Matrix::Gaussian(
        config.latent_dim, config.feature_dim, &model_rng, 0.0,
        1.0 / std::sqrt(static_cast<double>(config.latent_dim)));
    params.bias.resize(config.feature_dim);
    for (double& b : params.bias) b = 0.1 * model_rng.NextGaussian();
    // Cleaner features for higher capacity / better recipes: quality leaks
    // into what LogME and friends can observe, but only weakly.
    params.feature_noise =
        0.45 * (1.0 - 0.35 * params.capacity -
                0.25 * (Sigmoid(params.quality) - 0.5));

    // Pre-training accuracy (public metadata): capacity plus a noisy echo
    // of the hidden quality, damped by source difficulty.
    const double source_ease = 1.0 - dataset_difficulty_[info.source_dataset];
    const double acc = 0.45 + 0.28 * params.capacity +
                       0.10 * Sigmoid(params.quality) + 0.12 * source_ease +
                       0.02 * model_rng.NextGaussian();
    pretrain_accuracy_.push_back(std::clamp(acc, 0.30, 0.99));
    model_params_.push_back(std::move(params));
  }

  samples_ready_.assign(catalog.datasets.size(), false);
  samples_cache_.resize(catalog.datasets.size());
}

double SyntheticWorld::Affinity(size_t model, size_t dataset) const {
  const std::vector<double>& u = model_params_[model].skill;
  const std::vector<double>& z = dataset_latent_[dataset];
  double dot = 0.0;
  for (size_t l = 0; l < u.size(); ++l) dot += u[l] * z[l];
  return std::clamp(dot, 0.0, 1.0);  // both unit non-negative vectors
}

double SyntheticWorld::Capacity(size_t model) const {
  return model_params_[model].capacity;
}

double SyntheticWorld::Quality(size_t model) const {
  return model_params_[model].quality;
}

double SyntheticWorld::ArchDomainBias(Architecture arch,
                                      DomainGroup domain) const {
  const size_t a = static_cast<size_t>(arch);
  TG_CHECK_LT(a, arch_domain_bias_.size());
  TG_CHECK_LT(static_cast<size_t>(domain), arch_domain_bias_[a].size());
  return arch_domain_bias_[a][static_cast<size_t>(domain)];
}

double SyntheticWorld::Difficulty(size_t dataset) const {
  return dataset_difficulty_[dataset];
}

double SyntheticWorld::PretrainAccuracy(size_t model) const {
  return pretrain_accuracy_[model];
}

const std::vector<double>& SyntheticWorld::DatasetLatent(
    size_t dataset) const {
  return dataset_latent_[dataset];
}

std::vector<double> SyntheticWorld::ClassCenter(size_t dataset,
                                                int label) const {
  // Deterministic per (dataset, class) so source prototypes and generated
  // samples agree without materializing huge source datasets.
  Rng rng(config_.seed ^ (0x9E3779B97F4A7C15ULL * (dataset + 1)) ^
          (0xC2B2AE3D27D4EB4FULL * static_cast<uint64_t>(label + 1)));
  const std::vector<double>& z = dataset_latent_[dataset];
  std::vector<double> center(config_.latent_dim);
  for (size_t l = 0; l < config_.latent_dim; ++l) {
    center[l] = z[l] * rng.NextGaussian() * 2.0;
  }
  return center;
}

const DatasetSamples& SyntheticWorld::Samples(size_t dataset) {
  TG_CHECK_LT(dataset, samples_cache_.size());
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (samples_ready_[dataset]) return samples_cache_[dataset];

  const DatasetInfo& info = catalog_->datasets[dataset];
  const int num_classes =
      std::min(info.num_classes, config_.max_generated_classes);
  const size_t n = std::min<size_t>(
      std::max<size_t>(info.num_samples, 64), config_.max_samples_per_dataset);

  DatasetSamples samples;
  samples.num_classes = num_classes;
  samples.latent = Matrix(n, config_.latent_dim);
  samples.ambient = Matrix(n, config_.ambient_dim);
  samples.labels.resize(n);

  Rng rng(config_.seed ^ (0xA24BAED4963EE407ULL * (dataset + 17)));
  const std::vector<double>& z = dataset_latent_[dataset];
  std::vector<std::vector<double>> centers(num_classes);
  for (int y = 0; y < num_classes; ++y) centers[y] = ClassCenter(dataset, y);

  for (size_t i = 0; i < n; ++i) {
    const int y = static_cast<int>(i % static_cast<size_t>(num_classes));
    samples.labels[i] = y;
    for (size_t l = 0; l < config_.latent_dim; ++l) {
      // Within-class spread stays inside the dataset's latent directions.
      samples.latent(i, l) =
          centers[y][l] +
          config_.within_class_spread * z[l] * rng.NextGaussian();
    }
    // Ambient embedding: x = B l + noise.
    for (size_t a = 0; a < config_.ambient_dim; ++a) {
      double acc = 0.0;
      for (size_t l = 0; l < config_.latent_dim; ++l) {
        acc += basis_(a, l) * samples.latent(i, l);
      }
      samples.ambient(i, a) = acc + config_.ambient_noise * rng.NextGaussian();
    }
  }
  samples_cache_[dataset] = std::move(samples);
  samples_ready_[dataset] = true;
  return samples_cache_[dataset];
}

Matrix SyntheticWorld::ExtractFromLatent(const ModelParams& params,
                                         const Matrix& latent,
                                         uint64_t noise_stream) const {
  Rng noise(config_.seed ^ (0xD6E8FEB86659FD93ULL * (noise_stream + 3)));
  Matrix features(latent.rows(), config_.feature_dim);
  std::vector<double> scaled(config_.latent_dim);
  std::vector<double> acc(config_.feature_dim);
  for (size_t i = 0; i < latent.rows(); ++i) {
    for (size_t l = 0; l < config_.latent_dim; ++l) {
      scaled[l] = params.skill[l] * latent(i, l) *
                  std::sqrt(static_cast<double>(config_.latent_dim));
    }
    // f innermost walks projection rows contiguously with independent adds;
    // each acc[f] starts at bias[f] and adds the l terms in ascending order,
    // so every feature is bit-equal to its own dot product.
    acc = params.bias;
    for (size_t l = 0; l < config_.latent_dim; ++l) {
      const double s = scaled[l];
      const double* projection = params.projection.RowPtr(l);
      for (size_t f = 0; f < config_.feature_dim; ++f) {
        acc[f] += s * projection[f];
      }
    }
    for (size_t f = 0; f < config_.feature_dim; ++f) {
      features(i, f) =
          std::tanh(acc[f]) + params.feature_noise * noise.NextGaussian();
    }
  }
  return features;
}

Matrix SyntheticWorld::ExtractFeatures(size_t model, size_t dataset) {
  TG_CHECK_LT(model, model_params_.size());
  const DatasetSamples& samples = Samples(dataset);
  return ExtractFromLatent(model_params_[model], samples.latent,
                           model * 131071 + dataset);
}

Matrix SyntheticWorld::SourceProbabilities(size_t model,
                                           const Matrix& features) const {
  TG_CHECK_LT(model, model_params_.size());
  TG_CHECK_EQ(features.cols(), config_.feature_dim);
  const ModelParams& params = model_params_[model];
  const size_t source = catalog_->models[model].source_dataset;
  const int k = static_cast<int>(std::min<size_t>(
      config_.max_source_prototypes,
      static_cast<size_t>(
          std::max(2, std::min(catalog_->datasets[source].num_classes,
                               config_.max_generated_classes)))));

  // Source-class prototypes in the model's feature space.
  Matrix prototypes(static_cast<size_t>(k), config_.feature_dim);
  for (int y = 0; y < k; ++y) {
    Matrix center(1, config_.latent_dim);
    const std::vector<double> c = ClassCenter(source, y);
    for (size_t l = 0; l < config_.latent_dim; ++l) center(0, l) = c[l];
    Matrix f = ExtractFromLatent(params, center,
                                 /*noise_stream=*/model * 131 + source);
    for (size_t d = 0; d < config_.feature_dim; ++d) {
      prototypes(static_cast<size_t>(y), d) = f(0, d);
    }
  }

  Matrix probs(features.rows(), static_cast<size_t>(k));
  const double temperature = 0.5 * static_cast<double>(config_.feature_dim);
  for (size_t i = 0; i < features.rows(); ++i) {
    double max_logit = -1e300;
    std::vector<double> logits(static_cast<size_t>(k));
    for (int y = 0; y < k; ++y) {
      double dist2 = 0.0;
      for (size_t d = 0; d < config_.feature_dim; ++d) {
        const double delta =
            features(i, d) - prototypes(static_cast<size_t>(y), d);
        dist2 += delta * delta;
      }
      logits[static_cast<size_t>(y)] = -dist2 / temperature;
      max_logit = std::max(max_logit, logits[static_cast<size_t>(y)]);
    }
    double total = 0.0;
    for (int y = 0; y < k; ++y) {
      const double e = std::exp(logits[static_cast<size_t>(y)] - max_logit);
      probs(i, static_cast<size_t>(y)) = e;
      total += e;
    }
    for (int y = 0; y < k; ++y) probs(i, static_cast<size_t>(y)) /= total;
  }
  return probs;
}

std::vector<int> SourceHardLabels(const Matrix& probs) {
  std::vector<int> labels(probs.rows());
  for (size_t i = 0; i < probs.rows(); ++i) {
    size_t best = 0;
    for (size_t y = 1; y < probs.cols(); ++y) {
      if (probs(i, y) > probs(i, best)) best = y;
    }
    labels[i] = static_cast<int>(best);
  }
  return labels;
}

}  // namespace tg::zoo
