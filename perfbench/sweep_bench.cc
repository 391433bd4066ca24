// Leave-one-out sweep benchmark (the tg_perfbench binary).
//
// Reads a generated config (key=value lines, written by perfbench/run.py),
// sets up one zoo per workload, and runs
//   1. a timed pass with tracing and metrics off, through the entry points
//      users hit: Pipeline::EvaluateAllTargetsResumable without a checkpoint
//      (what `tg_cli sweep` runs) or core::EvaluateEstimatorBaseline;
//   2. when trace=1, a traced pass that rebuilds every target's evaluation
//      from outside the pipeline, timing the public call of each layer, with
//      the metrics registry enabled so the program's own counters can be
//      read back.
// Prints one JSON object on stdout: the end-to-end metrics, the per-layer
// metrics (trace=1 only), the outcome counts, a digest of every prediction,
// and the run's provenance. Any failed check sets "ok": false with the
// reason. Usage: tg_perfbench CONFIG_FILE
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/feature_table.h"
#include "core/graph_builder.h"
#include "core/pipeline.h"
#include "core/strategy.h"
#include "embedding/random_walk.h"
#include "embedding/skipgram.h"
#include "ml/tree_engine.h"
#include "numeric/kernel_backend.h"
#include "numeric/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/json_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "zoo/model_zoo.h"

namespace {

using Clock = std::chrono::steady_clock;
using tg::core::EstimatorBaseline;
using tg::core::TargetEvaluation;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Kernel-side cost of the process so far: system CPU seconds and minor
// page faults. On the text workload nearly all of it is page-fault
// handling, whose cost per fault can more than double from one minute to
// the next on a shared VM.
struct KernelUsage {
  double sys_s = 0.0;
  double minor_faults = 0.0;
  KernelUsage operator-(const KernelUsage& o) const {
    return {sys_s - o.sys_s, minor_faults - o.minor_faults};
  }
};

KernelUsage ProcessKernelUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {static_cast<double>(usage.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(usage.ru_stime.tv_usec),
          static_cast<double>(usage.ru_minflt)};
}

// Peak resident set size of the process (ru_maxrss) in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// ----------------------------------------------------------------------------
// Config

struct BenchConfig {
  std::string workload;
  std::string mode;  // "loo" or "baselines"
  tg::zoo::Modality modality = tg::zoo::Modality::kImage;
  tg::core::GraphLearner learner = tg::core::GraphLearner::kNode2Vec;
  tg::core::PredictorKind predictor = tg::core::PredictorKind::kXgboost;
  size_t threads = 1;
  uint64_t world_seed = 0;
  uint64_t pipeline_seed = 0;
  int image_models = 185;
  int text_models = 163;
  int setup_reps = 1;
  double seconds = 1.0;
  bool trace = false;
};

bool ParseConfig(const std::string& path, BenchConfig* out,
                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read config " + path;
    return false;
  }
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      *error = "malformed config line: " + line;
      return false;
    }
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  auto take = [&](const char* key) -> std::string {
    auto it = kv.find(key);
    if (it == kv.end()) throw std::invalid_argument(std::string("missing ") + key);
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  try {
    BenchConfig c;
    c.workload = take("workload");
    c.mode = take("mode");
    if (c.mode != "loo" && c.mode != "baselines") {
      throw std::invalid_argument("unknown mode " + c.mode);
    }
    const std::string modality = take("modality");
    if (modality == "image") {
      c.modality = tg::zoo::Modality::kImage;
    } else if (modality == "text") {
      c.modality = tg::zoo::Modality::kText;
    } else {
      throw std::invalid_argument("unknown modality " + modality);
    }
    const std::string learner = take("learner");
    if (learner == "n2v") {
      c.learner = tg::core::GraphLearner::kNode2Vec;
    } else if (learner == "sage") {
      c.learner = tg::core::GraphLearner::kGraphSage;
    } else {
      throw std::invalid_argument("unknown learner " + learner);
    }
    const std::string predictor = take("predictor");
    if (predictor == "xgb") {
      c.predictor = tg::core::PredictorKind::kXgboost;
    } else if (predictor == "rf") {
      c.predictor = tg::core::PredictorKind::kRandomForest;
    } else {
      throw std::invalid_argument("unknown predictor " + predictor);
    }
    c.threads = std::stoul(take("threads"));
    c.world_seed = std::stoull(take("world_seed"));
    c.pipeline_seed = std::stoull(take("pipeline_seed"));
    c.image_models = std::stoi(take("image_models"));
    c.text_models = std::stoi(take("text_models"));
    c.setup_reps = std::stoi(take("setup_reps"));
    c.seconds = std::stod(take("seconds"));
    c.trace = take("trace") == "1";
    if (c.threads < 1 || c.setup_reps < 1 || c.image_models < 1 ||
        c.text_models < 1) {
      throw std::invalid_argument("non-positive count in config");
    }
    if (!kv.empty()) {
      throw std::invalid_argument("unknown config key " + kv.begin()->first);
    }
    *out = c;
    return true;
  } catch (const std::exception& e) {
    *error = std::string("bad config: ") + e.what();
    return false;
  }
}

tg::zoo::ModelZooConfig ZooConfigOf(const BenchConfig& c) {
  tg::zoo::ModelZooConfig config;
  config.catalog.num_image_models = c.image_models;
  config.catalog.num_text_models = c.text_models;
  config.world.seed = c.world_seed;
  return config;
}

tg::core::PipelineConfig PipelineConfigOf(const BenchConfig& c) {
  tg::core::PipelineConfig config;
  config.strategy.learner = c.learner;
  config.strategy.predictor = c.predictor;
  config.strategy.features = tg::core::FeatureSet::kAll;
  config.seed = c.pipeline_seed;
  return config;
}

constexpr EstimatorBaseline kEstimators[] = {
    EstimatorBaseline::kLogMe, EstimatorBaseline::kLeep,
    EstimatorBaseline::kNce, EstimatorBaseline::kParc,
    EstimatorBaseline::kHScore};
constexpr const char* kEstimatorMetric[] = {
    "transferability.logme_s", "transferability.leep_s",
    "transferability.nce_s", "transferability.parc_s",
    "transferability.hscore_s"};

double EstimatorScore(tg::zoo::ModelZoo* zoo, EstimatorBaseline baseline,
                      size_t model, size_t dataset) {
  switch (baseline) {
    case EstimatorBaseline::kLogMe:
      return zoo->LogMe(model, dataset);
    case EstimatorBaseline::kLeep:
      return zoo->Leep(model, dataset);
    case EstimatorBaseline::kNce:
      return zoo->Nce(model, dataset);
    case EstimatorBaseline::kParc:
      return zoo->Parc(model, dataset);
    case EstimatorBaseline::kHScore:
      return zoo->HScoreOf(model, dataset);
  }
  return 0.0;
}

// ----------------------------------------------------------------------------
// Results shared by both passes

// One sweep's outcome: evaluations in a fixed order (targets for loo;
// estimator-major then targets for baselines) plus the bad-target count.
struct SweepOutcome {
  std::vector<TargetEvaluation> evaluations;
  size_t bad = 0;  // failed, degraded, or non-finite
  std::vector<std::string> problems;
};

void Inspect(SweepOutcome* outcome) {
  for (const TargetEvaluation& e : outcome->evaluations) {
    bool finite = std::isfinite(e.pearson) && std::isfinite(e.spearman) &&
                  !e.predicted.empty();
    for (double p : e.predicted) finite = finite && std::isfinite(p);
    if (e.failed || e.degraded || !finite) {
      ++outcome->bad;
      outcome->problems.push_back(
          e.target_name + (e.failed     ? ": failed (" + e.error + ")"
                           : e.degraded ? ": degraded"
                                        : ": non-finite output"));
    }
  }
}

// Bitwise, so -0.0 against 0.0 counts as a difference.
bool SamePredictions(const SweepOutcome& a, const SweepOutcome& b) {
  if (a.evaluations.size() != b.evaluations.size()) return false;
  for (size_t i = 0; i < a.evaluations.size(); ++i) {
    const std::vector<double>& p = a.evaluations[i].predicted;
    const std::vector<double>& q = b.evaluations[i].predicted;
    if (a.evaluations[i].target_dataset != b.evaluations[i].target_dataset ||
        p.size() != q.size() ||
        (!p.empty() &&
         std::memcmp(p.data(), q.data(), p.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

// FNV-1a over target ids and prediction bits.
std::string Digest(const SweepOutcome& outcome) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const TargetEvaluation& e : outcome.evaluations) {
    mix(&e.target_dataset, sizeof(e.target_dataset));
    mix(e.predicted.data(), e.predicted.size() * sizeof(double));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ----------------------------------------------------------------------------
// Setup

struct SetupTimes {
  double ctor_s = 0.0;
  double similarity_s = 0.0;
  double logme_warm_s = 0.0;
  double total() const { return ctor_s + similarity_s + logme_warm_s; }
};

// Constructs the zoo and, for leave-one-out workloads, fills every cache the
// sweep reads through public calls, so no fill lands inside the first
// target: dataset similarity on every pair of the modality's datasets and
// LogME for every model x public dataset.
std::unique_ptr<tg::zoo::ModelZoo> SetUp(const BenchConfig& c, bool warm,
                                         SetupTimes* times) {
  auto start = Clock::now();
  auto zoo = std::make_unique<tg::zoo::ModelZoo>(ZooConfigOf(c));
  times->ctor_s = Since(start);
  if (!warm) return zoo;
  start = Clock::now();
  const std::vector<size_t> datasets = zoo->DatasetsOfModality(c.modality);
  for (size_t i = 0; i < datasets.size(); ++i) {
    for (size_t j = i + 1; j < datasets.size(); ++j) {
      zoo->DatasetSimilarityScore(datasets[i], datasets[j],
                                  tg::zoo::DatasetRepresentation::kDomainSimilarity);
    }
  }
  times->similarity_s = Since(start);
  start = Clock::now();
  for (size_t m : zoo->ModelsOfModality(c.modality)) {
    for (size_t d : zoo->PublicDatasets(c.modality)) zoo->LogMe(m, d);
  }
  times->logme_warm_s = Since(start);
  return zoo;
}

// ----------------------------------------------------------------------------
// Timed pass: the entry points users call.

SweepOutcome TimedLooSweep(tg::zoo::ModelZoo* zoo, const BenchConfig& c) {
  // A fresh pipeline per sweep: its embedding cache would otherwise turn a
  // repeated sweep into cache hits.
  tg::core::Pipeline pipeline(zoo, c.modality);
  tg::core::SweepResult result = pipeline.EvaluateAllTargetsResumable(
      PipelineConfigOf(c), tg::core::SweepOptions{});
  SweepOutcome outcome;
  outcome.evaluations = std::move(result.evaluations);
  Inspect(&outcome);
  return outcome;
}

SweepOutcome TimedBaselineSweep(tg::zoo::ModelZoo* zoo, const BenchConfig& c) {
  SweepOutcome outcome;
  const std::vector<size_t> targets = zoo->EvaluationTargets(c.modality);
  for (EstimatorBaseline baseline : kEstimators) {
    for (size_t t : targets) {
      outcome.evaluations.push_back(
          tg::core::EvaluateEstimatorBaseline(zoo, t, baseline));
    }
  }
  Inspect(&outcome);
  return outcome;
}

// ----------------------------------------------------------------------------
// Traced pass: every target rebuilt from outside, one timer per layer call.

struct LayerTimes {
  double graph_s = 0.0;
  double walk_s = 0.0;
  double skipgram_s = 0.0;
  double gnn_s = 0.0;
  double table_s = 0.0;
  double fit_s = 0.0;
  double score_s = 0.0;
  double samples_s = 0.0;
  double estimator_s[std::size(kEstimators)] = {};
  double total_s = 0.0;  // the whole target body
  uint64_t edges = 0;
  uint64_t walk_tokens = 0;
  uint64_t rows = 0;

  double attributed() const {
    double s = graph_s + walk_s + skipgram_s + gnn_s + table_s + fit_s +
               score_s + samples_s;
    for (double e : estimator_s) s += e;
    return s;
  }
};

// Mirrors Pipeline::EvaluateTarget (core/pipeline.cc) for the Fig 7 "all"
// feature set at full history; Node2Vec is split into its two public
// calls the way Node2VecEmbed (embedding/node2vec.cc) makes them.
TargetEvaluation TraceLooTarget(tg::core::Pipeline* pipeline,
                                const tg::core::PipelineConfig& config,
                                size_t target, LayerTimes* t) {
  using namespace tg;
  const auto target_start = Clock::now();
  zoo::ModelZoo* zoo = pipeline->zoo();
  const zoo::Modality modality = pipeline->modality();
  core::PipelineConfig cfg = config;
  cfg.graph.exclude_target = target;

  auto start = Clock::now();
  const core::BuiltGraph built =
      core::BuildModelZooGraph(zoo, modality, cfg.graph);
  t->graph_s = Since(start);
  t->edges = built.graph.num_undirected_edges();

  Matrix node2vec_embeddings;
  const Matrix* embeddings = nullptr;
  if (cfg.strategy.learner == core::GraphLearner::kNode2Vec) {
    Rng rng(cfg.seed);
    start = Clock::now();
    RandomWalkGenerator walker(built.graph, cfg.node2vec.walk);
    const std::vector<std::vector<NodeId>> walks = walker.GenerateAll(&rng);
    t->walk_s = Since(start);
    for (const auto& walk : walks) t->walk_tokens += walk.size();
    start = Clock::now();
    SkipGramTrainer trainer(built.graph.num_nodes(), cfg.node2vec.skipgram);
    trainer.Train(walks, &rng);
    node2vec_embeddings = trainer.embeddings();
    t->skipgram_s = Since(start);
    embeddings = &node2vec_embeddings;
  } else {
    start = Clock::now();
    embeddings = &pipeline->EmbeddingsFor(cfg, built);
    t->gnn_s = Since(start);
  }

  core::FeatureAssembler assembler(zoo, modality, cfg.strategy.features,
                                   cfg.graph.representation, &built,
                                   embeddings);
  std::vector<std::pair<size_t, size_t>> train_pairs;
  const std::vector<size_t> model_ids = zoo->ModelsOfModality(modality);
  for (size_t d : zoo->PublicDatasets(modality)) {
    if (d == target) continue;
    for (size_t m : model_ids) train_pairs.emplace_back(m, d);
  }
  start = Clock::now();
  const ml::TabularDataset train =
      assembler.BuildTable(train_pairs, cfg.graph.history_method);
  t->table_s = Since(start);
  t->rows = train.num_rows();

  std::unique_ptr<ml::Regressor> predictor =
      core::MakePredictor(cfg.strategy.predictor, cfg.predictor);
  start = Clock::now();
  const Status fit = predictor->Fit(train);
  t->fit_s = Since(start);
  if (!fit.ok()) throw std::runtime_error("fit failed: " + fit.ToString());

  TargetEvaluation eval;
  eval.target_dataset = target;
  eval.target_name = zoo->datasets()[target].name;
  eval.model_indices = model_ids;
  start = Clock::now();
  for (size_t m : model_ids) {
    eval.predicted.push_back(predictor->Predict(assembler.Row(m, target)));
    eval.actual.push_back(
        zoo->FineTuneAccuracy(m, target, cfg.evaluation_method));
  }
  eval.pearson = PearsonCorrelation(eval.predicted, eval.actual);
  eval.spearman = SpearmanCorrelation(eval.predicted, eval.actual);
  t->score_s = Since(start);
  t->total_s = Since(target_start);
  return eval;
}

struct TracedPass {
  SweepOutcome outcome;
  std::vector<LayerTimes> times;  // per evaluation target
  std::vector<std::string> target_names;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  KernelUsage kernel;
  tg::obs::MetricsSnapshot counters;
};

// Targets run the way the sweep runs them: one chunk per target on the
// global pool.
void TraceLooSweep(tg::zoo::ModelZoo* zoo, const BenchConfig& c,
                   const std::vector<size_t>& targets, TracedPass* pass) {
  tg::core::Pipeline pipeline(zoo, c.modality);
  const tg::core::PipelineConfig config = PipelineConfigOf(c);
  pass->outcome.evaluations.resize(targets.size());
  tg::ParallelFor(0, targets.size(), 1, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      pass->outcome.evaluations[i] =
          TraceLooTarget(&pipeline, config, targets[i], &pass->times[i]);
    }
  });
}

// Same order as TimedBaselineSweep. Sample generation runs first, so each
// estimator's time is its own.
void TraceBaselineSweep(tg::zoo::ModelZoo* zoo, const BenchConfig& c,
                        const std::vector<size_t>& targets, TracedPass* pass) {
  std::vector<LayerTimes>& times = pass->times;
  for (size_t i = 0; i < targets.size(); ++i) {
    const auto start = Clock::now();
    zoo->world().Samples(targets[i]);
    times[i].samples_s = Since(start);
  }
  const std::vector<size_t> models = zoo->ModelsOfModality(c.modality);
  for (size_t e = 0; e < std::size(kEstimators); ++e) {
    for (size_t i = 0; i < targets.size(); ++i) {
      TargetEvaluation eval;
      eval.target_dataset = targets[i];
      eval.target_name = zoo->datasets()[targets[i]].name;
      eval.model_indices = models;
      auto start = Clock::now();
      for (size_t m : models) {
        eval.predicted.push_back(
            EstimatorScore(zoo, kEstimators[e], m, targets[i]));
      }
      times[i].estimator_s[e] += Since(start);
      start = Clock::now();
      for (size_t m : models) {
        eval.actual.push_back(zoo->FineTuneAccuracy(m, targets[i]));
      }
      eval.pearson = tg::PearsonCorrelation(eval.predicted, eval.actual);
      eval.spearman = tg::SpearmanCorrelation(eval.predicted, eval.actual);
      times[i].score_s += Since(start);
      pass->outcome.evaluations.push_back(std::move(eval));
    }
  }
  for (LayerTimes& t : times) t.total_s = t.attributed();
}

TracedPass RunTracedPass(tg::zoo::ModelZoo* zoo, const BenchConfig& c) {
  tg::obs::MetricsRegistry& registry = tg::obs::MetricsRegistry::Instance();
  registry.ResetAll();
  tg::obs::SetMetricsEnabled(true);
  TracedPass pass;
  const std::vector<size_t> targets = zoo->EvaluationTargets(c.modality);
  pass.times.resize(targets.size());
  for (size_t t : targets) pass.target_names.push_back(zoo->datasets()[t].name);
  const KernelUsage kernel_start = ProcessKernelUsage();
  const double cpu_start = ProcessCpuSeconds();
  const auto start = Clock::now();
  if (c.mode == "loo") {
    TraceLooSweep(zoo, c, targets, &pass);
  } else {
    TraceBaselineSweep(zoo, c, targets, &pass);
  }
  pass.wall_s = Since(start);
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  pass.kernel = ProcessKernelUsage() - kernel_start;
  tg::obs::SetMetricsEnabled(false);
  pass.counters = registry.Snapshot();
  Inspect(&pass.outcome);
  return pass;
}

// ----------------------------------------------------------------------------
// JSON output

class JsonObject {
 public:
  void Number(const std::string& key, double v) {
    Raw(key, tg::JsonNumber(v, 17));
  }
  void String(const std::string& key, const std::string& v) {
    Raw(key, tg::JsonQuote(v));
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += tg::JsonQuote(key);
    body_ += ':';
    body_ += json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct SetupSamples {
  std::vector<double> wall_s, sys_s, ctor_s, similarity_s, logme_warm_s;
};

// Per-layer metrics of the traced pass. Appends a reconciliation failure,
// naming the largest unattributed gap, to `errors`.
JsonObject PerLayerMetrics(const TracedPass& pass, const SetupSamples& setup,
                           double sweep_wall_s,
                           std::vector<std::string>* errors) {
  const std::vector<LayerTimes>& times = pass.times;
  auto total = [&](auto field) {
    double s = 0.0;
    for (const LayerTimes& t : times) s += static_cast<double>(t.*field);
    return s;
  };
  auto counter = [&](const char* name) -> double {
    auto it = pass.counters.counters.find(name);
    return it == pass.counters.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  std::vector<double> target_s, fit_s;
  double in_targets = 0.0, attributed = 0.0, inside_gap = 0.0, worst_gap = 0.0;
  size_t worst_target = 0;
  for (size_t i = 0; i < times.size(); ++i) {
    target_s.push_back(times[i].total_s);
    in_targets += times[i].total_s;
    fit_s.push_back(times[i].fit_s);
    attributed += times[i].attributed();
    const double gap = times[i].total_s - times[i].attributed();
    inside_gap += gap;
    if (gap > worst_gap) {
      worst_gap = gap;
      worst_target = i;
    }
  }
  // Time outside every target body (loop, pool dispatch); zero when targets
  // overlap on several threads.
  const double outside_gap = std::max(0.0, pass.wall_s - in_targets);
  const double unattributed = inside_gap + outside_gap;
  const double coverage = attributed / (attributed + unattributed);
  if (coverage < 0.95) {
    errors->push_back(
        "traced layers cover " + std::to_string(coverage) +
        " of the traced sweep; largest gap: " +
        (outside_gap >= worst_gap
             ? "outside the target bodies (" + std::to_string(outside_gap) +
                   " s)"
             : "inside target " + pass.target_names[worst_target] + " (" +
                   std::to_string(worst_gap) + " s)"));
  }

  JsonObject m;
  m.Number("zoo.ctor_s", Median(setup.ctor_s));
  m.Number("zoo.similarity_s", Median(setup.similarity_s));
  m.Number("transferability.logme_warm_s", Median(setup.logme_warm_s));
  m.Number("zoo.samples_s", total(&LayerTimes::samples_s));
  for (size_t e = 0; e < std::size(kEstimators); ++e) {
    double s = 0.0;
    for (const LayerTimes& t : times) s += t.estimator_s[e];
    m.Number(kEstimatorMetric[e], s);
  }
  m.Number("transferability.score_misses", counter("zoo.score_cache.miss"));
  m.Number("graph_builder.build_s", total(&LayerTimes::graph_s));
  m.Number("graph_builder.edges", total(&LayerTimes::edges));
  m.Number("embedding.walk_s", total(&LayerTimes::walk_s));
  m.Number("embedding.skipgram_s", total(&LayerTimes::skipgram_s));
  m.Number("embedding.walk_tokens", total(&LayerTimes::walk_tokens));
  m.Number("gnn.train_s", total(&LayerTimes::gnn_s));
  m.Number("ml.fit_s", total(&LayerTimes::fit_s));
  m.Number("ml.fit_s_max", Max(fit_s));
  m.Number("ml.split_evaluations", counter("tree.split_evaluations"));
  m.Number("feature_table.build_s", total(&LayerTimes::table_s));
  m.Number("feature_table.rows", total(&LayerTimes::rows));
  m.Number("pipeline.score_s", total(&LayerTimes::score_s));
  m.Number("pipeline.target_s_p50", Median(target_s));
  m.Number("pipeline.target_s_max", Max(target_s));
  m.Number("pipeline.target_n", static_cast<double>(target_s.size()));
  m.Number("pipeline.unattributed_s", unattributed);
  m.Number("pipeline.coverage", coverage);
  m.Number("pipeline.traced_sweep_s", pass.wall_s);
  m.Number("pipeline.trace_overhead_s", pass.wall_s - sweep_wall_s);
  m.Number("process.sys_s", pass.kernel.sys_s);
  m.Number("process.minor_faults", pass.kernel.minor_faults);
  m.Number("thread_pool.cpu_s", pass.cpu_s);
  m.Number("thread_pool.cpu_per_wall", pass.cpu_s / pass.wall_s);
  m.Number("thread_pool.parallel_for_calls",
           counter("thread_pool.parallel_for.calls"));
  m.Number("thread_pool.tasks", counter("thread_pool.tasks"));
  return m;
}

// Deterministic for a seed, but the seed changes the synthetic world, so
// these move far more between seeds than any end-to-end bound allows.
JsonObject QualityMetrics(const SweepOutcome& outcome) {
  double pearson = 0.0, spearman = 0.0, top5 = 0.0;
  const double n = static_cast<double>(outcome.evaluations.size());
  for (const TargetEvaluation& e : outcome.evaluations) {
    pearson += e.pearson / n;
    spearman += e.spearman / n;
    top5 += e.TopKMeanAccuracy(5) / n;
  }
  JsonObject q;
  q.Number("mean_pearson", pearson);
  q.Number("mean_spearman", spearman);
  q.Number("top5_acc", top5);
  return q;
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return "[" + out + "]";
}

int Run(const BenchConfig& c) {
  tg::SetThreadCount(c.threads);
  tg::obs::SetTraceEnabled(false);
  tg::obs::SetMetricsEnabled(false);
  const bool loo = c.mode == "loo";
  std::vector<std::string> errors;

  // --- Setup (loo: zoo + warm-up; baselines: a cold zoo per sweep) ---
  SetupSamples setup;
  std::unique_ptr<tg::zoo::ModelZoo> zoo;
  auto set_up = [&] {
    SetupTimes times;
    zoo.reset();
    const KernelUsage before = ProcessKernelUsage();
    zoo = SetUp(c, loo, &times);
    setup.sys_s.push_back((ProcessKernelUsage() - before).sys_s);
    setup.wall_s.push_back(times.total());
    setup.ctor_s.push_back(times.ctor_s);
    setup.similarity_s.push_back(times.similarity_s);
    setup.logme_warm_s.push_back(times.logme_warm_s);
  };
  auto sweep = [&] {
    return loo ? TimedLooSweep(zoo.get(), c) : TimedBaselineSweep(zoo.get(), c);
  };
  if (loo) {
    for (int r = 0; r < c.setup_reps; ++r) set_up();
  }

  // --- Timed pass ---
  std::vector<double> sweep_wall_s, sweep_sys_s;
  SweepOutcome first;
  size_t attempted = 0;
  size_t bad = 0;
  const double cpu_start = ProcessCpuSeconds();
  const auto pass_start = Clock::now();
  do {
    if (!loo) set_up();
    const KernelUsage before = ProcessKernelUsage();
    const auto start = Clock::now();
    SweepOutcome outcome = sweep();
    sweep_wall_s.push_back(Since(start));
    sweep_sys_s.push_back((ProcessKernelUsage() - before).sys_s);
    attempted += outcome.evaluations.size();
    bad += outcome.bad;
    for (const std::string& p : outcome.problems) errors.push_back(p);
    if (sweep_wall_s.size() == 1) {
      first = std::move(outcome);
    } else if (!SamePredictions(first, outcome)) {
      errors.push_back("repeated timed sweep changed its predictions");
    }
  } while (Since(pass_start) < c.seconds);
  const double timed_cpu_s = ProcessCpuSeconds() - cpu_start;
  const double timed_wall_s = Since(pass_start);
  const double peak_rss_mb = PeakRssMb();
  while (static_cast<int>(setup.wall_s.size()) < c.setup_reps) set_up();

  JsonObject per_layer;
  if (c.trace) {
    if (!loo) set_up();
    const TracedPass traced = RunTracedPass(zoo.get(), c);
    for (const std::string& p : traced.outcome.problems) {
      errors.push_back("traced " + p);
    }
    if (!SamePredictions(first, traced.outcome)) {
      errors.push_back("traced pass predictions differ from the timed pass");
    }
    per_layer = PerLayerMetrics(traced, setup, Median(sweep_wall_s), &errors);
  }

  // Wall time less the kernel CPU time spent in it; see README.md.
  auto net = [](const std::vector<double>& wall,
                const std::vector<double>& sys) {
    std::vector<double> out;
    for (size_t i = 0; i < wall.size(); ++i) out.push_back(wall[i] - sys[i]);
    return Median(out);
  };
  JsonObject end_to_end;
  end_to_end.Number("sweep_s", net(sweep_wall_s, sweep_sys_s));
  end_to_end.Number("setup_s", net(setup.wall_s, setup.sys_s));
  end_to_end.Number("peak_rss_mb", peak_rss_mb);
  end_to_end.Number("targets_ok_frac", static_cast<double>(attempted - bad) /
                                           static_cast<double>(attempted));

  auto samples = [](const std::vector<double>& v) {
    std::vector<std::string> items;
    for (double x : v) items.push_back(tg::JsonNumber(x, 17));
    return JsonArray(items);
  };
  const tg::BuildInfo& build = tg::GetBuildInfo();
  JsonObject provenance;
  provenance.String("build_git_sha", build.git_sha);
  provenance.String("build_type", build.build_type);
  provenance.String("numeric_backend", tg::kernels::ActiveBackendName());
  provenance.String("tree_engine",
                    tg::ml::TreeEngineName(tg::ml::DefaultTreeEngine()));
  provenance.Number("tg_threads", static_cast<double>(tg::ThreadCount()));
  provenance.Raw("sweep_wall_samples_s", samples(sweep_wall_s));
  provenance.Raw("sweep_sys_samples_s", samples(sweep_sys_s));
  provenance.Raw("setup_wall_samples_s", samples(setup.wall_s));
  provenance.Raw("setup_sys_samples_s", samples(setup.sys_s));
  provenance.Number("timed_cpu_per_wall", timed_cpu_s / timed_wall_s);

  std::vector<std::string> quoted_errors;
  for (const std::string& e : errors) quoted_errors.push_back(tg::JsonQuote(e));
  JsonObject out;
  out.String("workload", c.workload);
  out.Raw("ok", errors.empty() ? "true" : "false");
  out.Raw("errors", JsonArray(quoted_errors));
  out.Number("attempted", static_cast<double>(attempted));
  out.Number("failed", static_cast<double>(bad));
  out.String("digest", Digest(first));
  out.Raw("end_to_end", end_to_end.str());
  out.Raw("per_layer", per_layer.str());
  out.Raw("quality", QualityMetrics(first).str());
  out.Raw("provenance", provenance.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: tg_perfbench CONFIG_FILE\n");
    return 2;
  }
  BenchConfig config;
  std::string error;
  if (!ParseConfig(argv[1], &config, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  try {
    return Run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
