// The synthetic model-zoo world: a generative latent-task model standing in
// for real pre-trained checkpoints and datasets (see DESIGN.md,
// "Substitutions").
//
// Geometry:
//   * Every dataset d has a latent task vector z_d in R^L; datasets in the
//     same semantic domain share a group direction (coherence-weighted), so
//     dataset similarity is real, not annotated.
//   * Every model m has a transfer-skill vector u_m inherited from its
//     pre-training source dataset (plus noise), a capacity (from parameter
//     count), and a hidden training-recipe quality q_m that is visible only
//     through training history -- the signal graph-based selection can
//     recover and metadata-based selection cannot.
//   * Dataset samples are Gaussian mixtures whose class centers live in the
//     latent directions weighted by z_d, embedded into an ambient space by a
//     fixed orthonormal basis B.
//   * A model's feature extractor passes latent coordinate l scaled by
//     u_m[l] through a fixed random projection + tanh, with feature noise
//     shrinking in capacity/quality. Class separation in the extracted
//     features is therefore governed by sum_l |u_m[l]| * |z_d[l]| -- the same
//     affinity that drives fine-tuning accuracy -- so estimators like LogME
//     and LEEP measure a *noisy realization* of transferability rather than
//     being handed the answer.
#ifndef TG_ZOO_SYNTHETIC_WORLD_H_
#define TG_ZOO_SYNTHETIC_WORLD_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "numeric/matrix.h"
#include "util/rng.h"
#include "zoo/catalog.h"
#include "zoo/types.h"

namespace tg::zoo {

struct WorldConfig {
  size_t latent_dim = 16;
  size_t ambient_dim = 48;
  size_t feature_dim = 32;
  // Generated samples per dataset are capped here (metadata keeps the real
  // Table III counts; the cap only bounds simulation cost).
  size_t max_samples_per_dataset = 400;
  // Classes are capped for sample generation on e.g. ImageNet-21k sources.
  int max_generated_classes = 32;
  size_t max_source_prototypes = 12;
  double group_coherence = 0.78;  // dataset latent ~ group direction
  double skill_noise = 0.35;      // model skill ~ source latent
  double within_class_spread = 0.45;
  double ambient_noise = 0.30;
  uint64_t seed = 1234;
};

struct DatasetSamples {
  Matrix latent;   // n x L latent coordinates
  Matrix ambient;  // n x A ambient features (probe-network input)
  std::vector<int> labels;
  int num_classes = 0;
};

class SyntheticWorld {
 public:
  SyntheticWorld(const Catalog& catalog, const WorldConfig& config);

  SyntheticWorld(const SyntheticWorld&) = delete;
  SyntheticWorld& operator=(const SyntheticWorld&) = delete;

  const WorldConfig& config() const { return config_; }
  const Catalog& catalog() const { return *catalog_; }

  // --- Latent quantities ---
  // Task-affinity between a model's skill vector and a dataset's latent
  // vector, in [0, 1]; the dominant driver of fine-tuning accuracy.
  double Affinity(size_t model, size_t dataset) const;
  // Normalized log-parameter-count within the model's modality, in [0, 1].
  double Capacity(size_t model) const;
  // Hidden training-recipe quality, roughly N(0, 1).
  double Quality(size_t model) const;
  // Architecture-domain inductive-bias interaction, zero-mean.
  double ArchDomainBias(Architecture arch, DomainGroup domain) const;
  // Dataset learning difficulty in [0, 1] (classes up, samples down).
  double Difficulty(size_t dataset) const;
  // Accuracy the model reached on its pre-training dataset (metadata).
  double PretrainAccuracy(size_t model) const;

  const std::vector<double>& DatasetLatent(size_t dataset) const;

  // --- Sample-level simulation ---
  // Synthetic samples (lazily generated, cached; thread-safe -- generation
  // is seeded per dataset, so concurrent callers observe identical data).
  const DatasetSamples& Samples(size_t dataset);
  // Model-extracted features on the dataset's samples: n x feature_dim.
  Matrix ExtractFeatures(size_t model, size_t dataset);
  // Soft predictions over the model's source classes for features this
  // model extracted (ExtractFeatures rows; for LEEP): n x K, rows sum to 1.
  Matrix SourceProbabilities(size_t model, const Matrix& features) const;

 private:
  struct ModelParams {
    std::vector<double> skill;  // |u_m|, length L, non-negative
    Matrix projection;          // L x F extractor projection
    std::vector<double> bias;   // F
    double feature_noise = 0.2;
    double capacity = 0.5;
    double quality = 0.0;
  };

  // Class center of dataset d, class y, in latent coordinates.
  std::vector<double> ClassCenter(size_t dataset, int label) const;
  Matrix ExtractFromLatent(const ModelParams& params, const Matrix& latent,
                           uint64_t noise_stream) const;

  WorldConfig config_;
  const Catalog* catalog_;
  Matrix basis_;  // A x L orthonormal columns
  std::vector<std::vector<double>> dataset_latent_;
  std::vector<double> dataset_difficulty_;
  std::vector<ModelParams> model_params_;
  std::vector<double> pretrain_accuracy_;
  // arch x domain bias table.
  std::vector<std::vector<double>> arch_domain_bias_;
  // Guards the lazily-filled sample cache (entries are immutable once
  // ready); the cache vector itself is pre-sized so references stay stable.
  std::mutex samples_mu_;
  std::vector<bool> samples_ready_;
  std::vector<DatasetSamples> samples_cache_;
};

// Hard source-class assignments: the first largest entry of each row of
// SourceProbabilities (for NCE).
std::vector<int> SourceHardLabels(const Matrix& probs);

}  // namespace tg::zoo

#endif  // TG_ZOO_SYNTHETIC_WORLD_H_
