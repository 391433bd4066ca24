#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "core/sweep_checkpoint.h"
#include "numeric/pca.h"
#include "numeric/stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tg::core {
namespace {

// Constant-initialized so a SIGTERM arriving at any point of process
// lifetime can store to it; sweeps poll it between targets.
std::atomic<bool> g_sweep_drain{false};

// Pause before a failed target's degraded retry: transient faults (I/O
// pressure, injected prob schedules) often clear with a pause. Results never
// depend on it.
constexpr std::chrono::milliseconds kDegradedRetryPause{5};

// Appends "|name=value"; doubles print at %.17g, so distinct values never
// share a key.
template <typename T>
void Put(const char* name, T value, std::string* out) {
  *out += '|';
  *out += name;
  *out += '=';
  if constexpr (std::is_floating_point_v<T>) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    *out += text;
  } else if constexpr (std::is_enum_v<T>) {
    *out += std::to_string(static_cast<int>(value));
  } else {
    *out += std::to_string(value);
  }
}

// The smallest strategy that still yields a ranking for every model:
// metadata-only features need no graph, no embedding training, and no
// dataset representations.
PipelineConfig DegradedFallbackConfig(const PipelineConfig& config) {
  PipelineConfig fallback = config;
  fallback.strategy.features = FeatureSet::kMetadataOnly;
  fallback.strategy.learner = GraphLearner::kNone;
  return fallback;
}

// EvaluateTarget with every failure mode (exceptions, injected faults,
// non-finite predictions) converted into a false return plus error text.
bool TryEvaluateTarget(Pipeline* pipeline, const PipelineConfig& config,
                       size_t target_dataset, TargetEvaluation* out,
                       std::string* error) {
  try {
    if (TG_FAULT_POINT("pipeline.target")) {
      throw std::runtime_error("injected fault at pipeline.target");
    }
    TargetEvaluation eval = pipeline->EvaluateTarget(config, target_dataset);
    for (double p : eval.predicted) {
      if (!std::isfinite(p)) {
        throw std::runtime_error("non-finite prediction for " +
                                 eval.target_name);
      }
    }
    *out = std::move(eval);
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

}  // namespace

std::string EmbeddingConfigKey(const PipelineConfig& config) {
  const GraphBuildOptions& g = config.graph;
  std::string key = GraphLearnerName(config.strategy.learner);
  key += "|t=";
  key += g.exclude_target.has_value() ? std::to_string(*g.exclude_target)
                                      : "none";
  Put("acc", g.accuracy_threshold, &key);
  Put("tr", g.transferability_threshold, &key);
  Put("neg", g.negative_threshold, &key);
  Put("ia", g.include_accuracy_edges, &key);
  Put("it", g.include_transferability_edges, &key);
  Put("hr", g.history_ratio, &key);
  key += "|hm=" + std::string(zoo::FineTuneMethodName(g.history_method));
  Put("rep", g.representation, &key);
  Put("gseed", g.seed, &key);
  Put("seed", config.seed, &key);
  Put("pca", config.node_feature_pca_dim, &key);

  const WalkConfig& walk = config.node2vec.walk;
  Put("wpn", walk.walks_per_node, &key);
  Put("wlen", walk.walk_length, &key);
  Put("p", walk.p, &key);
  Put("q", walk.q, &key);
  Put("wext", walk.extended, &key);
  const SkipGramConfig& sg = config.node2vec.skipgram;
  Put("dim", sg.dim, &key);
  Put("win", sg.window, &key);
  Put("negs", sg.negatives, &key);
  Put("sgep", sg.epochs, &key);
  Put("lr", sg.initial_lr, &key);
  Put("minlr", sg.min_lr_fraction, &key);
  Put("pow", sg.sampling_power, &key);
  Put("shards", sg.num_shards, &key);

  Put("sage.hid", config.sage.hidden_dim, &key);
  Put("sage.out", config.sage.output_dim, &key);
  Put("sage.layers", config.sage.num_layers, &key);
  Put("sage.norm", config.sage.normalize_output, &key);
  Put("gat.hid", config.gat.hidden_dim, &key);
  Put("gat.out", config.gat.output_dim, &key);
  Put("gat.layers", config.gat.num_layers, &key);
  Put("gat.heads", config.gat.num_heads, &key);
  Put("gat.slope", config.gat.leaky_relu_slope, &key);
  const gnn::LinkPredictionConfig& lp = config.link_prediction;
  Put("lp.epochs", lp.epochs, &key);
  Put("lp.lr", lp.learning_rate, &key);
  Put("lp.wd", lp.weight_decay, &key);
  Put("lp.negs", lp.sampled_negative_ratio, &key);
  return key;
}

std::string PredictorSettingsKey(const PredictorSettings& settings) {
  std::string key;
  Put("ridge", settings.ridge_lambda, &key);
  const ml::RandomForestConfig& rf = settings.random_forest;
  Put("rf.trees", rf.num_trees, &key);
  Put("rf.depth", rf.tree.max_depth, &key);
  Put("rf.leaf", rf.tree.min_samples_leaf, &key);
  Put("rf.split", rf.tree.min_samples_split, &key);
  Put("rf.feat", rf.tree.max_features, &key);
  Put("rf.ff", rf.feature_fraction, &key);
  Put("rf.seed", rf.seed, &key);
  const ml::GbdtConfig& gb = settings.gbdt;
  Put("gb.trees", gb.num_trees, &key);
  Put("gb.depth", gb.max_depth, &key);
  Put("gb.eta", gb.learning_rate, &key);
  Put("gb.lambda", gb.lambda, &key);
  Put("gb.gamma", gb.gamma, &key);
  Put("gb.mcw", gb.min_child_weight, &key);
  Put("gb.sub", gb.subsample, &key);
  Put("gb.bins", gb.max_bins, &key);
  Put("gb.seed", gb.seed, &key);
  return key;
}

void RequestSweepDrain() {
  g_sweep_drain.store(true, std::memory_order_relaxed);
}

bool SweepDrainRequested() {
  return g_sweep_drain.load(std::memory_order_relaxed);
}

void ClearSweepDrain() {
  g_sweep_drain.store(false, std::memory_order_relaxed);
}

double TargetEvaluation::TopKMeanAccuracy(int k) const {
  TG_CHECK_GT(k, 0);
  TG_CHECK(!predicted.empty());
  std::vector<size_t> order(predicted.size());
  std::iota(order.begin(), order.end(), 0);
  // Only the top k matter; partial_sort is O(n log k) vs O(n log n).
  const size_t take = std::min<size_t>(static_cast<size_t>(k), order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<ptrdiff_t>(take), order.end(),
                    [&](size_t a, size_t b) {
                      return predicted[a] > predicted[b];
                    });
  double acc = 0.0;
  for (size_t i = 0; i < take; ++i) acc += actual[order[i]];
  return acc / static_cast<double>(take);
}

Pipeline::Pipeline(zoo::ModelZoo* zoo, zoo::Modality modality)
    : zoo_(zoo), modality_(modality) {}

Matrix Pipeline::BuildNodeFeatures(const PipelineConfig& config,
                                   const BuiltGraph& built) {
  TG_TRACE_SPAN("node_features");
  // Feature layout: [type(2) | dataset representation | model metadata].
  // Collect the dataset representations (optionally PCA-reduced).
  std::vector<size_t> dataset_ids;
  dataset_ids.reserve(built.dataset_node.size());
  for (const auto& [dataset, node] : built.dataset_node) {
    (void)node;
    dataset_ids.push_back(dataset);
  }
  const size_t raw_dim =
      zoo_->DatasetEmbedding(dataset_ids.front(), config.graph.representation)
          .size();
  Matrix representations(dataset_ids.size(), raw_dim);
  for (size_t i = 0; i < dataset_ids.size(); ++i) {
    representations.SetRow(
        i, zoo_->DatasetEmbedding(dataset_ids[i],
                                  config.graph.representation));
  }
  if (config.node_feature_pca_dim > 0 &&
      config.node_feature_pca_dim < raw_dim) {
    Pca pca;
    Status fit = pca.Fit(representations, config.node_feature_pca_dim);
    TG_CHECK_MSG(fit.ok(), fit.ToString().c_str());
    representations = pca.Transform(representations);
  }
  const size_t repr_dim = representations.cols();

  const size_t meta_dim = static_cast<size_t>(zoo::kNumArchitectures) + 4;
  const size_t dim = 2 + repr_dim + meta_dim;
  Matrix features(built.graph.num_nodes(), dim);

  for (size_t i = 0; i < dataset_ids.size(); ++i) {
    const NodeId node = built.dataset_node.at(dataset_ids[i]);
    features(node, 0) = 1.0;
    for (size_t c = 0; c < repr_dim; ++c) {
      features(node, 2 + c) = representations(i, c);
    }
  }
  for (const auto& [model, node] : built.model_node) {
    features(node, 1) = 1.0;
    const zoo::ModelInfo& m = zoo_->models()[model];
    const size_t base = 2 + repr_dim;
    features(node, base + static_cast<size_t>(m.architecture)) = 1.0;
    features(node, base + zoo::kNumArchitectures + 0) =
        std::log10(m.num_parameters_millions) / 3.0;
    features(node, base + zoo::kNumArchitectures + 1) =
        static_cast<double>(m.input_size) / 1000.0;
    features(node, base + zoo::kNumArchitectures + 2) = m.pretrain_accuracy;
    features(node, base + zoo::kNumArchitectures + 3) =
        std::log10(std::max(m.memory_mb, 1.0)) / 4.0;
  }
  return features;
}

const Matrix& Pipeline::EmbeddingsFor(const PipelineConfig& config,
                                      const BuiltGraph& built) {
  TG_CHECK(config.strategy.learner != GraphLearner::kNone);
  static obs::Counter& cache_hit = obs::MetricsRegistry::Instance().GetCounter(
      "pipeline.embedding_cache.hit");
  static obs::Counter& cache_miss =
      obs::MetricsRegistry::Instance().GetCounter(
          "pipeline.embedding_cache.miss");
  const std::string key = EmbeddingConfigKey(config);
  {
    std::lock_guard<std::mutex> lock(embedding_mu_);
    auto it = embedding_cache_.find(key);
    if (it != embedding_cache_.end()) {
      cache_hit.Increment();
      return it->second;
    }
  }
  cache_miss.Increment();
  // Train outside the lock so concurrent targets (distinct keys in the
  // leave-one-out sweep) overlap; duplicate work on the same key is
  // deterministic-identical and the first insert wins.
  obs::WallTimer timer;
  TG_TRACE_SPAN2("embedding_train",
                 GraphLearnerName(config.strategy.learner));
  Matrix embeddings;
  switch (config.strategy.learner) {
    case GraphLearner::kNode2Vec:
    case GraphLearner::kNode2VecPlus: {
      Node2VecConfig n2v = config.node2vec;
      n2v.walk.extended =
          config.strategy.learner == GraphLearner::kNode2VecPlus;
      embeddings = Node2VecEmbed(built.graph, n2v, config.seed);
      break;
    }
    case GraphLearner::kGraphSage: {
      Rng rng(config.seed);
      const Matrix features = BuildNodeFeatures(config, built);
      gnn::EdgeIndex edges =
          gnn::BuildEdgeIndex(built.graph, /*add_self_loops=*/true);
      gnn::GraphSage encoder(edges, features.cols(), config.sage, &rng);
      embeddings = gnn::TrainLinkPrediction(built.graph, &encoder, features,
                                            built.negative_edges,
                                            config.link_prediction, &rng)
                       .embeddings;
      break;
    }
    case GraphLearner::kGat: {
      Rng rng(config.seed);
      const Matrix features = BuildNodeFeatures(config, built);
      gnn::EdgeIndex edges =
          gnn::BuildEdgeIndex(built.graph, /*add_self_loops=*/true);
      gnn::Gat encoder(edges, features.cols(), config.gat, &rng);
      embeddings = gnn::TrainLinkPrediction(built.graph, &encoder, features,
                                            built.negative_edges,
                                            config.link_prediction, &rng)
                       .embeddings;
      break;
    }
    case GraphLearner::kNone:
      break;
  }
  TG_LOG(Debug) << "graph learner " << GraphLearnerName(config.strategy.learner)
                << " trained in " << timer.ElapsedSeconds() << "s";
  std::lock_guard<std::mutex> lock(embedding_mu_);
  return embedding_cache_.emplace(key, std::move(embeddings)).first->second;
}

TargetEvaluation Pipeline::EvaluateTarget(const PipelineConfig& config,
                                          size_t target_dataset) {
  TG_CHECK_LT(target_dataset, zoo_->num_datasets());
  TG_CHECK(zoo_->datasets()[target_dataset].modality == modality_);
  TG_TRACE_SPAN2("evaluate_target", zoo_->datasets()[target_dataset].name);

  PipelineConfig cfg = config;
  cfg.graph.exclude_target = target_dataset;

  // --- Graph features (when the strategy uses them) ---
  BuiltGraph built;
  const Matrix* embeddings = nullptr;
  if (cfg.strategy.UsesGraphFeatures()) {
    built = BuildModelZooGraph(zoo_, modality_, cfg.graph);
    embeddings = &EmbeddingsFor(cfg, built);
  }

  FeatureAssembler assembler(zoo_, modality_, cfg.strategy.features,
                             cfg.graph.representation,
                             embeddings != nullptr ? &built : nullptr,
                             embeddings);

  // --- Training table: history on every public dataset except the target ---
  std::vector<std::pair<size_t, size_t>> train_pairs;
  const std::vector<size_t> model_ids = zoo_->ModelsOfModality(modality_);
  for (size_t d : zoo_->PublicDatasets(modality_)) {
    if (d == target_dataset) continue;
    for (size_t m : model_ids) train_pairs.emplace_back(m, d);
  }
  // Appendix B: when only a fraction of the training history is available,
  // the supervised table shrinks along with the graph edges.
  if (cfg.graph.history_ratio < 1.0) {
    Rng subsample_rng(cfg.graph.seed ^
                      (0x9E3779B97F4A7C15ULL * (target_dataset + 1)));
    std::vector<std::pair<size_t, size_t>> kept;
    for (const auto& pair : train_pairs) {
      if (subsample_rng.NextBernoulli(cfg.graph.history_ratio)) {
        kept.push_back(pair);
      }
    }
    if (!kept.empty()) train_pairs = std::move(kept);
  }
  ml::TabularDataset train = [&] {
    TG_TRACE_SPAN("train_table");
    return assembler.BuildTable(train_pairs, cfg.graph.history_method);
  }();
  if (cfg.use_transferability_labels) {
    for (size_t i = 0; i < train_pairs.size(); ++i) {
      train.y[i] = assembler.NormalizedLogMe(train_pairs[i].first,
                                             train_pairs[i].second);
    }
  }

  PredictorKind kind = cfg.strategy.predictor;
  if (kind == PredictorKind::kAuto) {
    kind = SelectPredictorByCv(train, cfg.predictor, /*folds=*/4, cfg.seed);
    TG_LOG(Debug) << "auto predictor for "
                  << zoo_->datasets()[target_dataset].name << ": "
                  << PredictorKindName(kind);
  }
  std::unique_ptr<ml::Regressor> predictor = MakePredictor(kind,
                                                           cfg.predictor);
  {
    TG_TRACE_SPAN2("predictor_fit", PredictorKindName(kind));
    Status fit = predictor->Fit(train);
    // Thrown, not TG_CHECKed: a singular fit on one target is a per-target
    // failure the resumable sweep can degrade around, not a process bug.
    if (!fit.ok()) {
      throw std::runtime_error("predictor fit failed: " + fit.ToString());
    }
  }

  // --- Prediction set: every model against the target ---
  TargetEvaluation eval;
  eval.target_dataset = target_dataset;
  eval.target_name = zoo_->datasets()[target_dataset].name;
  eval.model_indices = model_ids;
  eval.predicted.reserve(model_ids.size());
  eval.actual.reserve(model_ids.size());
  {
    TG_TRACE_SPAN("target_scoring");
    for (size_t m : model_ids) {
      eval.predicted.push_back(
          predictor->Predict(assembler.Row(m, target_dataset)));
      eval.actual.push_back(
          zoo_->FineTuneAccuracy(m, target_dataset, cfg.evaluation_method));
    }
  }
  eval.pearson = PearsonCorrelation(eval.predicted, eval.actual);
  eval.spearman = SpearmanCorrelation(eval.predicted, eval.actual);
  return eval;
}

TargetEvaluation Pipeline::SweepTarget(const PipelineConfig& config,
                                       size_t target_dataset,
                                       bool degrade_on_failure) {
  static obs::Counter& retries_counter =
      obs::MetricsRegistry::Instance().GetCounter("pipeline.target_retries");
  static obs::Counter& degraded_counter =
      obs::MetricsRegistry::Instance().GetCounter("pipeline.target_degraded");
  static obs::Counter& failures_counter =
      obs::MetricsRegistry::Instance().GetCounter("pipeline.target_failures");
  const std::string& target_name = zoo_->datasets()[target_dataset].name;
  obs::EmitEvent("sweep.target_begin", target_name);
  TargetEvaluation eval;
  std::string error;
  bool ok = TryEvaluateTarget(this, config, target_dataset, &eval, &error);
  int retries = 0;
  if (!ok && degrade_on_failure) {
    ++retries;
    retries_counter.Increment();
    obs::EmitEvent("sweep.target_retry", target_name, error);
    std::this_thread::sleep_for(kDegradedRetryPause);
    std::string retry_error;
    ok = TryEvaluateTarget(this, DegradedFallbackConfig(config),
                           target_dataset, &eval, &retry_error);
    if (ok) {
      eval.degraded = true;
      degraded_counter.Increment();
    } else {
      error += "; degraded retry: " + retry_error;
    }
  }
  eval.retries = retries;
  if (!ok) {
    eval.target_dataset = target_dataset;
    eval.target_name = target_name;
    eval.failed = true;
    eval.error = error;
    failures_counter.Increment();
    TG_LOG(Warning) << "target " << target_name << " failed: " << error;
  }
  obs::EmitEvent("sweep.target_end", target_name,
                 ok ? (eval.degraded ? "degraded" : "ok") : "failed");
  return eval;
}

SweepResult Pipeline::EvaluateAllTargetsResumable(
    const PipelineConfig& config, const SweepOptions& options) {
  static obs::Counter& checkpoint_write_failures =
      obs::MetricsRegistry::Instance().GetCounter(
          "pipeline.checkpoint_write_failures");

  // The leave-one-out cells are independent (MetaGL/GLEMOS-style benchmark
  // shape): fan targets out across the pool. Every per-target computation
  // seeds its own randomness from the config, and the shared caches (zoo
  // scores, embeddings) memoize deterministic values, so the output is
  // bit-identical for any thread count.
  const std::vector<size_t> targets = zoo_->EvaluationTargets(modality_);
  TG_TRACE_SPAN("evaluate_all_targets");
  SweepResult result;
  result.evaluations.resize(targets.size());
  std::vector<char> done(targets.size(), 0);
  const std::string fingerprint = SweepFingerprint(config, modality_);

  // --- Resume: splice in completed targets from a matching checkpoint ---
  if (!options.checkpoint_path.empty()) {
    Result<SweepCheckpoint> loaded =
        LoadSweepCheckpoint(options.checkpoint_path);
    if (loaded.ok()) {
      const SweepCheckpoint& checkpoint = loaded.value();
      if (checkpoint.fingerprint != fingerprint) {
        TG_LOG(Warning) << "ignoring checkpoint " << options.checkpoint_path
                        << ": sweep config changed";
      } else if (checkpoint.build_git_sha != GetBuildInfo().git_sha) {
        TG_LOG(Warning) << "ignoring checkpoint " << options.checkpoint_path
                        << ": written by a different build ("
                        << checkpoint.build_git_sha << ")";
      } else {
        for (const TargetEvaluation& eval : checkpoint.targets) {
          for (size_t i = 0; i < targets.size(); ++i) {
            if (targets[i] == eval.target_dataset && !done[i] &&
                zoo_->datasets()[targets[i]].name == eval.target_name) {
              result.evaluations[i] = eval;
              done[i] = 1;
              ++result.resumed;
              break;
            }
          }
        }
        TG_LOG(Info) << "resumed " << result.resumed << "/" << targets.size()
                     << " targets from " << options.checkpoint_path;
      }
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      TG_LOG(Warning) << "ignoring unreadable checkpoint "
                      << options.checkpoint_path << ": "
                      << loaded.status().ToString();
    }
  }

  // Finished attempts (ok, degraded or failed), resumed targets included,
  // for the sweep.drained event.
  size_t processed = result.resumed;
  obs::EmitEvent("sweep.begin",
                 std::to_string(targets.size()) + " targets, " +
                     std::to_string(result.resumed) + " resumed");

  // Serializes result/done mutation and checkpoint writes; the heavy
  // per-target work runs outside it.
  std::mutex mu;
  auto save_checkpoint_locked = [&] {
    if (options.checkpoint_path.empty()) return;
    SweepCheckpoint checkpoint;
    checkpoint.build_git_sha = GetBuildInfo().git_sha;
    checkpoint.fingerprint = fingerprint;
    for (size_t i = 0; i < targets.size(); ++i) {
      if (done[i]) checkpoint.targets.push_back(result.evaluations[i]);
    }
    Status saved = SaveSweepCheckpoint(options.checkpoint_path, checkpoint);
    if (!saved.ok()) {
      // A failing checkpoint write degrades resumability, never results.
      checkpoint_write_failures.Increment();
      TG_LOG(Warning) << "checkpoint write failed: " << saved.ToString();
    }
  };

  auto run_target = [&](size_t i) {
    TargetEvaluation eval =
        SweepTarget(config, targets[i], options.degrade_on_failure);
    std::lock_guard<std::mutex> lock(mu);
    if (eval.retries > 0) result.retried += 1;
    if (eval.failed) {
      result.failed += 1;
      result.complete = false;
      result.errors.push_back(eval.target_name + ": " + eval.error);
    } else {
      done[i] = 1;
      if (eval.degraded) result.degraded += 1;
    }
    result.evaluations[i] = std::move(eval);
    if (done[i]) save_checkpoint_locked();
    ++processed;
  };

  try {
    ParallelFor(0, targets.size(), 1,
                [&](size_t begin, size_t end, size_t /*chunk*/) {
                  for (size_t i = begin; i < end; ++i) {
                    // A drain request (SIGTERM) stops new targets; the
                    // completed ones are already checkpointed.
                    if (SweepDrainRequested()) return;
                    if (!done[i]) run_target(i);
                  }
                });
  } catch (const std::exception& e) {
    // A dispatch-level fault (thrown before any per-target guard could
    // catch it) aborted the parallel region; ParallelFor has already
    // drained every worker, so finish the stragglers serially.
    TG_LOG(Warning) << "parallel sweep aborted (" << e.what()
                    << "); finishing remaining targets serially";
    for (size_t i = 0; i < targets.size(); ++i) {
      if (SweepDrainRequested()) break;
      if (!done[i] && !result.evaluations[i].failed) run_target(i);
    }
  }
  if (SweepDrainRequested()) {
    result.drained = true;
    for (size_t i = 0; i < targets.size(); ++i) {
      if (!done[i]) result.complete = false;
    }
    obs::EmitEvent("sweep.drained",
                   std::to_string(processed) + "/" +
                       std::to_string(targets.size()) + " targets done");
  }
  obs::EmitEvent("sweep.end", std::to_string(targets.size()) + " targets, " +
                                  std::to_string(result.retried) +
                                  " retried, " +
                                  std::to_string(result.degraded) +
                                  " degraded, " +
                                  std::to_string(result.failed) + " failed");
  return result;
}

}  // namespace tg::core
