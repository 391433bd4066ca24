// ModelZoo: the top-level registry joining the catalog, the synthetic world,
// the fine-tune simulator, probe-network dataset representations, dataset
// similarity, and cached transferability scores. This is "stage 1" of the
// paper's Figure 5 pipeline: everything the graph construction and the
// prediction models consume is collected (and memoized) here.
#ifndef TG_ZOO_MODEL_ZOO_H_
#define TG_ZOO_MODEL_ZOO_H_

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "features/probe_network.h"
#include "zoo/catalog.h"
#include "zoo/finetune_simulator.h"
#include "zoo/synthetic_world.h"
#include "zoo/types.h"

namespace tg::zoo {

enum class DatasetRepresentation { kDomainSimilarity, kTask2Vec };

struct ModelZooConfig {
  CatalogOptions catalog;
  WorldConfig world;
  FineTuneConfig finetune;
  ProbeNetworkConfig probe;
};

class ModelZoo {
 public:
  explicit ModelZoo(const ModelZooConfig& config = {});

  ModelZoo(const ModelZoo&) = delete;
  ModelZoo& operator=(const ModelZoo&) = delete;

  // --- Catalog access ---
  const Catalog& catalog() const { return catalog_; }
  const std::vector<DatasetInfo>& datasets() const {
    return catalog_.datasets;
  }
  const std::vector<ModelInfo>& models() const { return catalog_.models; }
  size_t num_datasets() const { return catalog_.datasets.size(); }
  size_t num_models() const { return catalog_.models.size(); }

  std::vector<size_t> DatasetsOfModality(Modality modality) const;
  std::vector<size_t> ModelsOfModality(Modality modality) const;
  // Public datasets of the modality (graph + history participants).
  std::vector<size_t> PublicDatasets(Modality modality) const;
  // The evaluation targets of the modality (Table III rows with variance).
  std::vector<size_t> EvaluationTargets(Modality modality) const;

  // --- Ground truth & metadata ---
  double FineTuneAccuracy(
      size_t model, size_t dataset,
      FineTuneMethod method = FineTuneMethod::kFullFineTune) const;
  double PretrainAccuracy(size_t model) const;

  // --- Dataset representations & similarity ---
  // Memoized accessors below are thread-safe: scores are deterministic per
  // key, so concurrent misses may compute redundantly but always agree, and
  // the first inserted value wins (parallel leave-one-out targets hit these
  // caches concurrently; see docs/threading.md).
  const std::vector<double>& DatasetEmbedding(size_t dataset,
                                              DatasetRepresentation repr);
  double DatasetSimilarityScore(size_t a, size_t b,
                                DatasetRepresentation repr);

  // --- Transferability scores (cached per pair) ---
  double LogMe(size_t model, size_t dataset);
  // LEEP, NCE, PARC and H-score of a pair are scored together, from one
  // feature extraction, when the first of them is asked for.
  double Leep(size_t model, size_t dataset) {
    return Baselines(model, dataset).leep;
  }
  double Nce(size_t model, size_t dataset) {
    return Baselines(model, dataset).nce;
  }
  double Parc(size_t model, size_t dataset) {
    return Baselines(model, dataset).parc;
  }
  double HScoreOf(size_t model, size_t dataset) {
    return Baselines(model, dataset).hscore;
  }

  SyntheticWorld& world() { return *world_; }
  const FineTuneSimulator& simulator() const { return *simulator_; }

 private:
  struct BaselineScores {
    double leep = 0.0;
    double nce = 0.0;
    double parc = 0.0;
    double hscore = 0.0;
  };

  BaselineScores Baselines(size_t model, size_t dataset);

  uint64_t PairKey(size_t model, size_t dataset) const {
    return (static_cast<uint64_t>(model) << 32) |
           static_cast<uint64_t>(dataset);
  }

  ModelZooConfig config_;
  Catalog catalog_;
  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<FineTuneSimulator> simulator_;
  std::unique_ptr<ProbeNetwork> probe_;

  // Guards every memoization map below. References into the maps stay valid
  // under concurrent insertion (unordered_map never moves elements).
  std::mutex cache_mu_;
  std::unordered_map<size_t, std::vector<double>> domain_embeddings_;
  std::unordered_map<size_t, std::vector<double>> task2vec_embeddings_;
  std::unordered_map<uint64_t, double> logme_cache_;
  std::unordered_map<uint64_t, BaselineScores> baseline_cache_;
};

}  // namespace tg::zoo

#endif  // TG_ZOO_MODEL_ZOO_H_
