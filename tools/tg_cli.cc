// tg_cli: command-line front end for the TransferGraph library.
//
// Subcommands:
//   catalog                         list datasets and models of the zoo
//   rank --target D [options]       rank models for a target dataset
//   sweep [options]                 evaluate every target (resumable via
//                                   --checkpoint FILE; --no-degrade turns
//                                   off the metadata-only failure fallback).
//                                   SIGTERM/SIGINT drain gracefully: the
//                                   in-flight targets finish and are
//                                   checkpointed, and the process exits 0.
//   graph-stats [--modality M]      Table II-style graph statistics
//   export-graph --out FILE         write the constructed graph as TSV
//   export-history --out FILE       write the training history as CSV
//   backend                         print active + available kernel backends
//                                   (honors TG_ISA; see docs/performance.md)
//   profile [rank options]          rank (default --target 0) under the
//                                   sampling profiler and print the report
//                                   (implies --profile; honors --profile-out)
//
// Common options:
//   --modality image|text           (default image)
//   --learner n2v|n2v+|sage|gat     graph learner      (default n2v)
//   --predictor lr|rf|xgb|auto      prediction model   (default xgb)
//   --features metadata|all|graph   feature set        (default all)
//   --top K                         list length for rank (default 10)
//   --models N                      zoo size knob (default 185/163)
//   --log-level debug|info|warning|error   stderr verbosity (default warning)
//
// Observability (see docs/observability.md):
//   --trace FILE    write a Chrome trace-event JSON of the run (open in
//                   chrome://tracing or https://ui.perfetto.dev)
//   --metrics       after `rank`, re-evaluate the target once more (warm
//                   caches), print the per-stage timing table (cold vs warm)
//                   and the full metrics dump
//   --mem           count heap allocations per span (adds alloc columns to
//                   the --metrics stage table and alloc_bytes/allocs args
//                   to trace events); also enabled by TG_MEM_TRACK=1
//   --rss-sample MS sample process RSS / peak RSS / major faults every MS
//                   milliseconds on a background thread; with --trace the
//                   samples appear as Perfetto counter tracks
//   --profile[=HZ]  sample the run with the SIGPROF profiler (default rate
//                   97 Hz); prints the top-N symbol
//                   table and per-span sample counts, and writes a
//                   collapsed-stack file (flamegraph.pl / speedscope)
//   --profile-out FILE   collapsed-stack path (default tg_profile.collapsed)
//   --perf-counters per-stage hardware counters (cycles, instructions,
//                   cache + branch misses) via perf_event_open; prints the
//                   per-stage IPC / cache-miss table after the run, or the
//                   reason counters were unavailable; also TG_PERF_COUNTERS=1
//   TG_EVENT_LOG=F  route every log line, slow span close, and sweep
//                   progress event to F as structured JSON lines; `tail -f F`
//                   is the live view of a running sweep
#include <algorithm>
#include <cctype>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/baselines.h"
#include "core/graph_builder.h"
#include "core/pipeline.h"
#include "core/recommender.h"
#include "graph/graph_stats.h"
#include "graph/serialization.h"
#include "numeric/kernel_backend.h"
#include "obs/event_log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/json_util.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "zoo/history_export.h"
#include "zoo/model_zoo.h"

namespace tg {
namespace {

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> options;
  // Numeric options, parsed once by ParseNumericOptions before any pipeline
  // work, so a malformed value exits 2 instead of failing mid-run.
  int models = -1;           // --models; -1 keeps the catalog sizes
  bool numeric_target = false;  // --target starts with a digit...
  size_t target_index = 0;      // ...and indexes the evaluation targets
  size_t top = 10;           // --top
  int profile_hz = 0;        // --profile=HZ; 0 = the default rate
  int rss_sample_ms = -1;    // --rss-sample; -1 = off

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }

  bool Flag(const std::string& key) const {
    auto it = options.find(key);
    return it != options.end() && it->second != "false" && it->second != "0";
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: tg_cli <catalog|rank|sweep|graph-stats|"
               "export-graph|export-history|backend|profile> "
               "[--option value ...]\n"
               "  rank requires --target <dataset name | evaluation index>\n"
               "  sweep evaluates every target; --checkpoint FILE resumes an\n"
               "    interrupted sweep, --no-degrade disables the metadata-only\n"
               "    retry for failed targets (see docs/robustness.md);\n"
               "    SIGTERM drains gracefully (finish in-flight, exit 0)\n"
               "  export-* require --out <path>\n"
               "  observability: --trace FILE (Chrome trace JSON), "
               "--metrics (stage table + counters after rank),\n"
               "                 --mem (per-span allocation accounting), "
               "--rss-sample MS (background RSS sampler),\n"
               "                 --profile[=HZ] + --profile-out FILE "
               "(sampling profiler, collapsed-stack output),\n"
               "                 --perf-counters (per-stage IPC / cache-miss "
               "table via perf_event_open),\n"
               "                 --log-level debug|info|warning|error\n"
               "  profile runs rank (default --target 0) under the profiler "
               "and prints the report\n");
  return 2;
}

// SIGTERM/SIGINT request a graceful sweep drain instead of killing the
// process mid-write: the handler is one async-signal-safe atomic store, the
// sweep loops poll it between targets, and the process exits 0 with its
// checkpoint consistent. A second signal falls back to the default
// disposition (the handler resets itself), so a stuck sweep can still be
// interrupted the hard way.
void HandleDrainSignal(int /*signum*/) { core::RequestSweepDrain(); }

void InstallDrainHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleDrainSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;  // second signal kills for real
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

Result<CliArgs> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  CliArgs args;
  args.command = argv[1];
  for (int i = 2; i < argc;) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return Status::InvalidArgument(std::string("expected --option, got ") +
                                     argv[i]);
    }
    std::string key = argv[i] + 2;
    // --option=value form (e.g. --profile=397).
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      args.options[key.substr(0, eq)] = key.substr(eq + 1);
      i += 1;
      continue;
    }
    // Boolean flags (e.g. --metrics) take no value: the next token is either
    // absent or another --option.
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      args.options[key] = "true";
      i += 1;
    } else {
      args.options[key] = argv[i + 1];
      i += 2;
    }
  }
  return args;
}

// Parses the numeric options into `args`. A value that is not a whole number
// or that overflows its field is an InvalidArgument naming the option.
// --profile and --rss-sample may also be given bare, which keeps their
// default.
Status ParseNumericOptions(CliArgs* args) {
  auto bad = [&](const std::string& key) {
    return Status::InvalidArgument("--" + key + ": not a valid number: " +
                                   args->Get(key, ""));
  };
  // Stores --key in *out when present and in [0, max]; false when malformed.
  auto whole = [&](const std::string& key, uint64_t max, bool bare_ok,
                   auto* out) {
    const std::string text = args->Get(key, "");
    if (text.empty() || (bare_ok && text == "true")) return true;
    uint64_t value = 0;
    if (!ParseUint64(text, &value) || value > max) return false;
    *out = static_cast<std::remove_reference_t<decltype(*out)>>(value);
    return true;
  };
  if (!whole("models", INT_MAX, false, &args->models)) return bad("models");
  if (!whole("top", SIZE_MAX, false, &args->top)) return bad("top");
  const std::string target = args->Get("target", "");
  args->numeric_target =
      !target.empty() && std::isdigit(static_cast<unsigned char>(target[0]));
  if (args->numeric_target &&
      !whole("target", SIZE_MAX, false, &args->target_index)) {
    return bad("target");
  }
  if (!whole("profile", INT_MAX, true, &args->profile_hz)) {
    return bad("profile");
  }
  if (!whole("rss-sample", INT_MAX, true, &args->rss_sample_ms)) {
    return bad("rss-sample");
  }
  return Status::OK();
}

Result<zoo::Modality> ParseModality(const std::string& text) {
  if (text == "image") return zoo::Modality::kImage;
  if (text == "text") return zoo::Modality::kText;
  return Status::InvalidArgument("unknown modality: " + text);
}

Result<core::GraphLearner> ParseLearner(const std::string& text) {
  if (text == "n2v") return core::GraphLearner::kNode2Vec;
  if (text == "n2v+") return core::GraphLearner::kNode2VecPlus;
  if (text == "sage") return core::GraphLearner::kGraphSage;
  if (text == "gat") return core::GraphLearner::kGat;
  if (text == "none") return core::GraphLearner::kNone;
  return Status::InvalidArgument("unknown learner: " + text);
}

Result<core::PredictorKind> ParsePredictor(const std::string& text) {
  if (text == "lr") return core::PredictorKind::kLinearRegression;
  if (text == "rf") return core::PredictorKind::kRandomForest;
  if (text == "xgb") return core::PredictorKind::kXgboost;
  if (text == "auto") return core::PredictorKind::kAuto;
  return Status::InvalidArgument("unknown predictor: " + text);
}

Result<core::FeatureSet> ParseFeatures(const std::string& text) {
  if (text == "metadata") return core::FeatureSet::kMetadataOnly;
  if (text == "all") return core::FeatureSet::kAll;
  if (text == "graph") return core::FeatureSet::kGraphOnly;
  if (text == "all+logme") return core::FeatureSet::kAllWithLogMe;
  return Status::InvalidArgument("unknown feature set: " + text);
}

Result<LogLevel> ParseLogLevel(const std::string& text) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warning") return LogLevel::kWarning;
  if (text == "error") return LogLevel::kError;
  return Status::InvalidArgument("unknown log level: " + text);
}

zoo::ModelZooConfig ZooConfigFrom(const CliArgs& args) {
  zoo::ModelZooConfig config;
  if (args.models >= 0) {
    config.catalog.num_image_models = args.models;
    config.catalog.num_text_models = args.models;
  }
  return config;
}

int RunCatalog(const CliArgs& args) {
  zoo::ModelZoo zoo(ZooConfigFrom(args));
  TablePrinter datasets({"dataset", "modality", "samples", "classes",
                         "role"});
  for (const zoo::DatasetInfo& d : zoo.datasets()) {
    datasets.AddRow({d.name, zoo::ModalityName(d.modality),
                     std::to_string(d.num_samples),
                     std::to_string(d.num_classes),
                     d.is_evaluation_target ? "evaluation target"
                     : d.is_public          ? "public"
                                            : "source"});
  }
  datasets.Print();
  std::printf("\n%zu models (%zu image / %zu text)\n", zoo.num_models(),
              zoo.ModelsOfModality(zoo::Modality::kImage).size(),
              zoo.ModelsOfModality(zoo::Modality::kText).size());
  return 0;
}

// Prints the per-stage wall-clock table from the stage histograms: the cold
// column is the first evaluation, the warm column the cached re-evaluation
// (the delta between the two registry snapshots). This is the CLI view of
// the paper's Fig. 5 stage costs.
void PrintStageTable(const obs::MetricsSnapshot& cold,
                     const obs::MetricsSnapshot& warm) {
  constexpr const char* kPrefix = "stage.";
  constexpr const char* kSuffix = ".seconds";
  const bool mem = obs::MemoryTrackingEnabled();
  std::vector<std::string> header = {"stage", "cold calls", "cold s",
                                     "warm calls", "warm s"};
  if (mem) {
    header.push_back("cold alloc MB");
    header.push_back("warm alloc MB");
  }
  TablePrinter table(header);
  for (const auto& [name, total] : warm.histograms) {
    if (!StartsWith(name, kPrefix) || !EndsWith(name, kSuffix)) continue;
    const size_t body = name.size() - std::strlen(kPrefix) -
                        std::strlen(kSuffix);
    const std::string stage = name.substr(std::strlen(kPrefix), body);
    obs::HistogramStats first;  // zero when the stage only ran warm
    auto it = cold.histograms.find(name);
    if (it != cold.histograms.end()) first = it->second;
    std::vector<std::string> row = {stage, std::to_string(first.count),
                                    FormatDouble(first.sum, 4),
                                    std::to_string(total.count - first.count),
                                    FormatDouble(total.sum - first.sum, 4)};
    if (mem) {
      // The alloc histograms share the stage name with a different suffix;
      // the same snapshot-delta logic yields cold vs warm bytes.
      const std::string alloc_name = std::string(kPrefix) + stage +
                                     ".alloc_bytes";
      obs::HistogramStats alloc_cold;
      obs::HistogramStats alloc_total;
      if (auto ac = cold.histograms.find(alloc_name);
          ac != cold.histograms.end()) {
        alloc_cold = ac->second;
      }
      if (auto aw = warm.histograms.find(alloc_name);
          aw != warm.histograms.end()) {
        alloc_total = aw->second;
      }
      row.push_back(FormatDouble(alloc_cold.sum / 1048576.0, 1));
      row.push_back(FormatDouble((alloc_total.sum - alloc_cold.sum) /
                                     1048576.0,
                                 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

// The strategy flags (--learner, --predictor, --features) of rank and sweep.
Result<core::PipelineConfig> PipelineConfigFrom(const CliArgs& args) {
  Result<core::GraphLearner> learner = ParseLearner(args.Get("learner",
                                                             "n2v"));
  Result<core::PredictorKind> predictor =
      ParsePredictor(args.Get("predictor", "xgb"));
  Result<core::FeatureSet> features = ParseFeatures(args.Get("features",
                                                             "all"));
  if (!learner.ok()) return learner.status();
  if (!predictor.ok()) return predictor.status();
  if (!features.ok()) return features.status();
  core::PipelineConfig config;
  config.strategy.learner = learner.value();
  config.strategy.predictor = predictor.value();
  config.strategy.features = features.value();
  return config;
}

int RunRank(const CliArgs& args) {
  const std::string target_name = args.Get("target", "");
  if (target_name.empty() || target_name == "true") return Usage();

  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();

  zoo::ModelZoo zoo(ZooConfigFrom(args));
  size_t target = 0;
  bool found = false;
  const bool numeric = args.numeric_target;
  if (numeric) {
    // Numeric targets index the modality's evaluation-target roster (the
    // paper's Table III rows): `--modality image --target 0` = caltech101.
    const std::vector<size_t> eval_targets =
        zoo.EvaluationTargets(modality.value());
    if (args.target_index < eval_targets.size()) {
      target = eval_targets[args.target_index];
      found = true;
    }
  } else {
    for (size_t d = 0; d < zoo.num_datasets(); ++d) {
      if (zoo.datasets()[d].name == target_name &&
          zoo.datasets()[d].is_public) {
        target = d;
        found = true;
      }
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown %s target: %s\n",
                 numeric ? "evaluation-index" : "public dataset",
                 target_name.c_str());
    return 1;
  }

  Result<core::PipelineConfig> parsed_config = PipelineConfigFrom(args);
  if (!parsed_config.ok()) return Usage();
  const core::PipelineConfig& config = parsed_config.value();

  core::Pipeline pipeline(&zoo, zoo.datasets()[target].modality);
  core::TargetEvaluation evaluation =
      pipeline.EvaluateTarget(config, target);
  std::printf("strategy %s on %s: pearson %.3f, top-5 accuracy %.3f\n\n",
              config.strategy.DisplayName().c_str(),
              zoo.datasets()[target].name.c_str(), evaluation.pearson,
              evaluation.TopKMeanAccuracy(5));

  TablePrinter table({"rank", "model", "predicted", "actual"});
  int rank = 1;
  for (const core::Recommendation& rec :
       core::TopModels(evaluation, zoo, args.top)) {
    table.AddRow({std::to_string(rank++), rec.model_name,
                  FormatDouble(rec.predicted_score, 3),
                  FormatDouble(zoo.FineTuneAccuracy(rec.model_index, target),
                               3)});
  }
  table.Print();

  if (args.Flag("metrics")) {
    // Second evaluation of the same target: the embedding and zoo score
    // caches are warm now, so the stage table contrasts cold vs warm costs
    // and the hit counters below prove the caches actually serve.
    const obs::MetricsSnapshot cold =
        obs::MetricsRegistry::Instance().Snapshot();
    const core::TargetEvaluation warm_eval =
        pipeline.EvaluateTarget(config, target);
    // The determinism contract: telemetry must never change results.
    TG_CHECK(warm_eval.predicted == evaluation.predicted);
    const obs::MetricsSnapshot warm =
        obs::MetricsRegistry::Instance().Snapshot();
    std::printf("\nper-stage timings (cold = first evaluation, warm = "
                "cached re-evaluation):\n");
    PrintStageTable(cold, warm);
    std::printf("\nmetrics:\n%s",
                obs::MetricsRegistry::Instance().RenderTable().c_str());
  }
  return 0;
}

// Leave-one-out sweep over every evaluation target of the modality, with
// graceful degradation and optional --checkpoint resume. Exercised by the
// chaos gate in tools/run_checks.sh; see docs/robustness.md.
int RunSweep(const CliArgs& args) {
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  Result<core::PipelineConfig> parsed_config = PipelineConfigFrom(args);
  if (!parsed_config.ok()) return Usage();
  const core::PipelineConfig& config = parsed_config.value();

  core::SweepOptions options;
  options.checkpoint_path = args.Get("checkpoint", "");
  if (options.checkpoint_path == "true") options.checkpoint_path.clear();
  options.degrade_on_failure = !args.Flag("no-degrade");

  zoo::ModelZoo zoo(ZooConfigFrom(args));
  core::Pipeline pipeline(&zoo, modality.value());
  const core::SweepResult result =
      pipeline.EvaluateAllTargetsResumable(config, options);

  TablePrinter table({"target", "pearson", "spearman", "top-5 acc", "note"});
  double pearson_sum = 0.0;
  size_t scored = 0;
  for (const core::TargetEvaluation& eval : result.evaluations) {
    if (eval.failed) {
      table.AddRow({eval.target_name, "-", "-", "-", "FAILED: " + eval.error});
      continue;
    }
    pearson_sum += eval.pearson;
    ++scored;
    table.AddRow({eval.target_name, FormatDouble(eval.pearson, 3),
                  FormatDouble(eval.spearman, 3),
                  FormatDouble(eval.TopKMeanAccuracy(5), 3),
                  eval.degraded ? "degraded" : ""});
  }
  table.Print();
  std::printf("\n%zu/%zu targets scored (mean pearson %.3f); "
              "%zu resumed, %zu retried, %zu degraded, %zu failed\n",
              scored, result.evaluations.size(),
              scored > 0 ? pearson_sum / static_cast<double>(scored) : 0.0,
              result.resumed, result.retried, result.degraded, result.failed);
  if (result.drained) {
    // SIGTERM/SIGINT drain: in-flight targets finished and were
    // checkpointed; the rest are left for a resumed run. Exit 0 so
    // orchestrators can tell a graceful drain from a failure.
    std::printf("sweep drained; resume with the same --checkpoint to "
                "finish\n");
    return 0;
  }
  if (!result.complete) {
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "target failed: %s\n", error.c_str());
    }
    return 1;
  }
  return 0;
}

int RunGraphStats(const CliArgs& args) {
  zoo::ModelZoo zoo(ZooConfigFrom(args));
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  core::BuiltGraph built = core::BuildModelZooGraph(
      &zoo, modality.value(), core::GraphBuildOptions{});
  std::printf("%s\n", ComputeGraphStats(built.graph).ToString().c_str());
  return 0;
}

int RunExportGraph(const CliArgs& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  zoo::ModelZoo zoo(ZooConfigFrom(args));
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  core::BuiltGraph built = core::BuildModelZooGraph(
      &zoo, modality.value(), core::GraphBuildOptions{});
  Status status = WriteGraphToFile(built.graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu nodes, %zu edges)\n", out.c_str(),
              built.graph.num_nodes(), built.graph.num_undirected_edges());
  return 0;
}

int RunExportHistory(const CliArgs& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  zoo::ModelZoo zoo(ZooConfigFrom(args));
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  zoo::HistoryExportOptions options;
  options.include_logme = args.Get("logme", "true") != "false";
  Status status =
      zoo::ExportTrainingHistoryCsv(&zoo, modality.value(), out, options);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// Prints the resolved kernel backend and everything this binary+CPU could
// run, one fact per line so shell gates can grep it. Resolution happens on
// the ActiveBackendName() call, so TG_ISA errors (forcing an unavailable
// backend) surface here exactly as they would in a real run.
int RunBackend(const CliArgs& args) {
  (void)args;
  std::printf("active: %s\n", kernels::ActiveBackendName());
  std::string joined;
  for (const std::string& name : kernels::AvailableBackendNames()) {
    if (!joined.empty()) joined += " ";
    joined += name;
  }
  std::printf("available: %s\n", joined.c_str());
  return 0;
}

int Dispatch(const CliArgs& args) {
  if (args.command == "catalog") return RunCatalog(args);
  if (args.command == "backend") return RunBackend(args);
  // Profile report subcommand: rank under the profiler (Run() started it
  // because of the command name and defaulted the target).
  if (args.command == "rank" || args.command == "profile") {
    return RunRank(args);
  }
  if (args.command == "sweep") return RunSweep(args);
  if (args.command == "graph-stats") return RunGraphStats(args);
  if (args.command == "export-graph") return RunExportGraph(args);
  if (args.command == "export-history") return RunExportHistory(args);
  return Usage();
}

int Run(int argc, char** argv) {
  Result<CliArgs> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return Usage();
  }
  CliArgs& args = parsed.value();
  // Every key read through Get/Flag or ParseNumericOptions. A misspelled
  // option must not pass silently: the run would drop the setting.
  static const char* const kKnown[] = {
      "checkpoint",    "features",  "learner",     "log-level",
      "logme",         "mem",       "metrics",     "modality",
      "models",        "no-degrade", "out",        "perf-counters",
      "predictor",     "profile",   "profile-out", "rss-sample",
      "target",        "top",       "trace"};
  for (const auto& [key, value] : args.options) {
    if (std::find(std::begin(kKnown), std::end(kKnown), key) ==
        std::end(kKnown)) {
      std::fprintf(stderr, "tg_cli: unknown option --%s\n", key.c_str());
      return 2;
    }
  }
  if (args.command == "profile" && args.Get("target", "").empty()) {
    args.options["target"] = "0";
  }
  Status numbers = ParseNumericOptions(&args);
  if (!numbers.ok()) {
    std::fprintf(stderr, "tg_cli: %s\n", numbers.message().c_str());
    return 2;
  }

  Result<LogLevel> level = ParseLogLevel(args.Get("log-level", "warning"));
  if (!level.ok()) return Usage();
  SetLogLevel(level.value());

  const std::string trace_path = args.Get("trace", "");
  if (!trace_path.empty()) obs::SetTraceEnabled(true);
  if (args.Flag("metrics")) obs::SetMetricsEnabled(true);
  if (args.Flag("mem")) obs::SetMemoryTrackingEnabled(true);
  if (args.Flag("perf-counters")) obs::SetPerfCountersEnabled(true);
  obs::SetCurrentThreadName("main");

  // Graceful shutdown for long sweeps: SIGTERM and SIGINT drain instead of
  // killing mid-write.
  if (args.command == "sweep") InstallDrainHandlers();

  // Structured event log (TG_EVENT_LOG): the live view of a running sweep.
  // A bad path degrades to a stderr warning, never a failed run.
  obs::MaybeStartEventLogFromEnv();

  // --profile[=HZ], or the `profile` subcommand (which implies it).
  const std::string profile_arg = args.Get("profile", "");
  const bool profiling = !profile_arg.empty() || args.command == "profile";
  if (profiling) {
    Status started = obs::StartProfiler(args.profile_hz);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
  }

  if (args.rss_sample_ms >= 0) {
    obs::ResourceSamplerOptions sampler_options;
    sampler_options.interval_ms = args.rss_sample_ms;
    obs::ResourceSampler::Instance().Start(sampler_options);
  }

  const int code = Dispatch(args);

  if (profiling) {
    (void)obs::StopProfiler();  // drains every thread's sample buffer
    const uint64_t samples = obs::ProfilerSampleCount();
    const uint64_t dropped = obs::ProfilerDroppedSampleCount();
    const std::string collapsed_path =
        args.Get("profile-out", "tg_profile.collapsed");
    Status written = obs::WriteCollapsedStacks(collapsed_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return code != 0 ? code : 1;
    }
    std::printf("\nprofiler: %llu samples at %d Hz (%llu dropped), "
                "collapsed stacks in %s\n",
                static_cast<unsigned long long>(samples), obs::ProfilerHz(),
                static_cast<unsigned long long>(dropped),
                collapsed_path.c_str());
    const std::string report = obs::ProfileReportTable(20);
    if (!report.empty()) {
      std::printf("\nhottest symbols (interrupted PC):\n%s", report.c_str());
    }
    const std::map<std::string, uint64_t> span_samples =
        obs::SpanProfileSampleCounts();
    if (!span_samples.empty()) {
      TablePrinter spans({"span", "samples"});
      for (const auto& [span, count] : span_samples) {
        spans.AddRow({span, std::to_string(count)});
      }
      std::printf("\nsamples by innermost open span:\n%s",
                  spans.Render().c_str());
    }
  }

  if (obs::PerfCountersEnabled()) {
    if (obs::PerfCountersAvailable()) {
      const std::string counter_table = obs::StagePerfTable();
      if (!counter_table.empty()) {
        std::printf("\nper-stage hardware counters:\n%s",
                    counter_table.c_str());
      }
    } else {
      std::printf("\nperf counters unavailable: %s\n",
                  obs::PerfCountersUnavailableReason().c_str());
    }
  }

  if (obs::ResourceSampler::Instance().running()) {
    obs::ResourceSampler::Instance().Stop();
    const std::vector<obs::ResourceSample> samples =
        obs::ResourceSampler::Instance().Samples();
    if (!samples.empty()) {
      const obs::ResourceUsage& last = samples.back().usage;
      std::printf("\nresource sampler: %zu samples, final RSS %.1f MB, "
                  "peak RSS %.1f MB, major faults %llu\n",
                  samples.size(),
                  static_cast<double>(last.rss_bytes) / 1048576.0,
                  static_cast<double>(last.peak_rss_bytes) / 1048576.0,
                  static_cast<unsigned long long>(last.major_faults));
    }
  }

  if (!trace_path.empty()) {
    Status written = obs::WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return code != 0 ? code : 1;
    }
    // Self-check: the exporter hand-writes JSON, so lint what landed on
    // disk before telling anyone to load it into Perfetto.
    Status valid = JsonValidate(obs::ChromeTraceJson());
    if (!valid.ok()) {
      std::fprintf(stderr, "trace self-check failed: %s\n",
                   valid.ToString().c_str());
      return code != 0 ? code : 1;
    }
    std::printf("wrote trace %s (open in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }

  obs::StopEventLog();  // idempotent; flushes the tail of the JSON log
  return code;
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) { return tg::Run(argc, argv); }
