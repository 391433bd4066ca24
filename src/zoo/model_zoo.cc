#include "zoo/model_zoo.h"

#include "features/domain_similarity.h"
#include "features/task2vec.h"
#include "obs/metrics.h"
#include "transferability/hscore.h"
#include "transferability/leep.h"
#include "transferability/logme.h"
#include "transferability/nce.h"
#include "transferability/parc.h"
#include "util/check.h"
#include "util/logging.h"

namespace tg::zoo {
namespace {

// One hit/miss counter pair covers both transferability-score caches (LogME
// alone, and the LEEP/NCE/PARC/H-score set): they share the zoo-wide
// memoization policy and the interesting signal is whether *any* score was
// recomputed. A miss on the set counts once for its four scores.
void CountScoreCache(bool hit) {
  static obs::Counter& hits =
      obs::MetricsRegistry::Instance().GetCounter("zoo.score_cache.hit");
  static obs::Counter& misses =
      obs::MetricsRegistry::Instance().GetCounter("zoo.score_cache.miss");
  (hit ? hits : misses).Increment();
}

double ScoreOrDie(const Result<double>& score) {
  TG_CHECK_MSG(score.ok(), score.status().ToString().c_str());
  return score.value();
}

void CountEmbeddingCache(bool hit) {
  static obs::Counter& hits = obs::MetricsRegistry::Instance().GetCounter(
      "zoo.dataset_embedding_cache.hit");
  static obs::Counter& misses = obs::MetricsRegistry::Instance().GetCounter(
      "zoo.dataset_embedding_cache.miss");
  (hit ? hits : misses).Increment();
}

}  // namespace

ModelZoo::ModelZoo(const ModelZooConfig& config)
    : config_(config), catalog_(BuildCatalog(config.catalog)) {
  world_ = std::make_unique<SyntheticWorld>(catalog_, config.world);
  // Publish the world's pre-training accuracies into the model metadata.
  for (size_t m = 0; m < catalog_.models.size(); ++m) {
    catalog_.models[m].pretrain_accuracy = world_->PretrainAccuracy(m);
  }
  simulator_ = std::make_unique<FineTuneSimulator>(*world_, config.finetune);
  probe_ = std::make_unique<ProbeNetwork>(config.world.ambient_dim,
                                          config.probe);
}

std::vector<size_t> ModelZoo::DatasetsOfModality(Modality modality) const {
  std::vector<size_t> out;
  for (size_t d = 0; d < catalog_.datasets.size(); ++d) {
    if (catalog_.datasets[d].modality == modality) out.push_back(d);
  }
  return out;
}

std::vector<size_t> ModelZoo::ModelsOfModality(Modality modality) const {
  std::vector<size_t> out;
  for (size_t m = 0; m < catalog_.models.size(); ++m) {
    if (catalog_.models[m].modality == modality) out.push_back(m);
  }
  return out;
}

std::vector<size_t> ModelZoo::PublicDatasets(Modality modality) const {
  std::vector<size_t> out;
  for (size_t d = 0; d < catalog_.datasets.size(); ++d) {
    if (catalog_.datasets[d].modality == modality &&
        catalog_.datasets[d].is_public) {
      out.push_back(d);
    }
  }
  return out;
}

std::vector<size_t> ModelZoo::EvaluationTargets(Modality modality) const {
  std::vector<size_t> out;
  for (size_t d = 0; d < catalog_.datasets.size(); ++d) {
    if (catalog_.datasets[d].modality == modality &&
        catalog_.datasets[d].is_evaluation_target) {
      out.push_back(d);
    }
  }
  return out;
}

double ModelZoo::FineTuneAccuracy(size_t model, size_t dataset,
                                  FineTuneMethod method) const {
  return simulator_->Accuracy(model, dataset, method);
}

double ModelZoo::PretrainAccuracy(size_t model) const {
  TG_CHECK_LT(model, catalog_.models.size());
  return catalog_.models[model].pretrain_accuracy;
}

const std::vector<double>& ModelZoo::DatasetEmbedding(
    size_t dataset, DatasetRepresentation repr) {
  auto& cache = repr == DatasetRepresentation::kDomainSimilarity
                    ? domain_embeddings_
                    : task2vec_embeddings_;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache.find(dataset);
    if (it != cache.end()) {
      CountEmbeddingCache(true);
      return it->second;
    }
  }
  CountEmbeddingCache(false);
  // Compute outside the lock; concurrent misses on the same key produce
  // identical values and the first emplace wins.
  const DatasetSamples& samples = world_->Samples(dataset);
  std::vector<double> embedding;
  if (repr == DatasetRepresentation::kDomainSimilarity) {
    embedding = probe_->DatasetEmbedding(samples.ambient);
  } else {
    const Matrix probe_features = probe_->EmbedSamples(samples.ambient);
    Result<std::vector<double>> result = Task2VecEmbedding(
        probe_features, samples.labels, samples.num_classes);
    TG_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    embedding = std::move(result).value();
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache.emplace(dataset, std::move(embedding)).first->second;
}

double ModelZoo::DatasetSimilarityScore(size_t a, size_t b,
                                        DatasetRepresentation repr) {
  if (a == b) return 1.0;
  return DatasetSimilarity(DatasetEmbedding(a, repr),
                           DatasetEmbedding(b, repr));
}

double ModelZoo::LogMe(size_t model, size_t dataset) {
  const uint64_t key = PairKey(model, dataset);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = logme_cache_.find(key);
    if (it != logme_cache_.end()) {
      CountScoreCache(true);
      return it->second;
    }
  }
  CountScoreCache(false);
  const DatasetSamples& samples = world_->Samples(dataset);
  const Matrix features = world_->ExtractFeatures(model, dataset);
  const double score = ScoreOrDie(
      LogMeScore(features, samples.labels, samples.num_classes));
  std::lock_guard<std::mutex> lock(cache_mu_);
  return logme_cache_.emplace(key, score).first->second;
}

ModelZoo::BaselineScores ModelZoo::Baselines(size_t model, size_t dataset) {
  const uint64_t key = PairKey(model, dataset);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = baseline_cache_.find(key);
    if (it != baseline_cache_.end()) {
      CountScoreCache(true);
      return it->second;
    }
  }
  CountScoreCache(false);
  const DatasetSamples& samples = world_->Samples(dataset);
  const Matrix features = world_->ExtractFeatures(model, dataset);
  const Matrix probs = world_->SourceProbabilities(model, features);
  BaselineScores scores;
  scores.leep =
      ScoreOrDie(LeepScore(probs, samples.labels, samples.num_classes));
  scores.nce = ScoreOrDie(NceScore(SourceHardLabels(probs), samples.labels));
  scores.parc =
      ScoreOrDie(ParcScore(features, samples.labels, samples.num_classes));
  scores.hscore =
      ScoreOrDie(HScore(features, samples.labels, samples.num_classes));
  std::lock_guard<std::mutex> lock(cache_mu_);
  return baseline_cache_.emplace(key, scores).first->second;
}

}  // namespace tg::zoo
