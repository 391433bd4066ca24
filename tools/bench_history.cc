// bench_history: accumulates bench_csv/bench_timings.json snapshots into a
// persistent bench_csv/BENCH_history.json and gates on run-over-run
// regressions. See src/obs/bench_history.h for the schema and
// docs/observability.md for the workflow.
//
// Subcommands:
//   append  --timings FILE --history FILE     add a run (creates history)
//   compare --history FILE [options]          diff latest vs baseline; exit
//                                             1 on regression
//   show    --history FILE                    list recorded runs
//
// compare diffs the latest run against the one before it; peak RSS regresses
// past 1.50x, and counter gates skip stages whose baseline saw under 1e7
// cycles (fixed in obs::CompareBenchRuns). Options (every number must parse
// as a finite value, else exit 2):
//   --max-time-ratio R      stage-time regression threshold (default 1.30)
//   --min-seconds S         ignore stages whose baseline is below S
//                           (default 0.01)
//   --inject-time-ratio R   multiply the latest run's stage times by R
//                           before comparing -- a self-test hook letting
//                           CI prove the gate actually fails (run_checks.sh
//                           injects 2.0 and expects a non-zero exit)
//   --stage-max-ratio LIST  per-stage max-time-ratio overrides, e.g.
//                           "skipgram_sharded@1=0.70,gbdt_fit@1=1.2"
//                           (comma-separated stage=ratio pairs; overridden
//                           stages skip the min-seconds floor)
//   --stage-max-seconds LIST  absolute wall-time ceilings on the LATEST run,
//                           e.g. "random_forest_fit@1=0.38" (comma-separated
//                           stage=S pairs). Baseline-independent, so the
//                           gate stays meaningful as ratio baselines drift;
//                           enforced even on a single-run history, and a
//                           listed stage missing from the latest run fails
//   --min-ipc-ratio R       hardware-counter gate: fail when a stage's
//                           latest IPC drops below R x baseline IPC
//                           (default 0 = disabled; runs without counter
//                           fields skip the gate with a note)
//   --max-cache-miss-ratio R  counterpart gate on cache-miss rate: fail
//                           when latest miss rate exceeds R x baseline
//                           (default 0 = disabled)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench_history.h"
#include "util/atomic_file.h"
#include "util/json_util.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tg {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_history <append|compare|show> [--option value ...]\n"
      "  append  --timings FILE --history FILE\n"
      "  compare --history FILE [--max-time-ratio R] [--min-seconds S]\n"
      "          [--inject-time-ratio R]\n"
      "          [--stage-max-ratio stage=R[,stage=R...]]\n"
      "          [--stage-max-seconds stage=S[,stage=S...]]\n"
      "          [--min-ipc-ratio R] [--max-cache-miss-ratio R]\n"
      "  show    --history FILE\n");
  return 2;
}

std::string NowUtcIso() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return Status::InvalidArgument(std::string("expected --option, got ") +
                                     argv[i]);
    }
    if (i + 1 == argc) {
      return Status::InvalidArgument(std::string(argv[i]) + " needs a value");
    }
    args.options[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

// Loads history entries; a missing file is an empty history (first append
// and compare-without-baseline both hit this path).
Result<std::vector<obs::BenchRun>> LoadHistory(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    if (text.status().code() == StatusCode::kNotFound) {
      return std::vector<obs::BenchRun>{};
    }
    return text.status();
  }
  return obs::ParseHistoryJson(text.value());
}

int RunAppend(const Args& args) {
  const std::string timings_path = args.Get("timings", "");
  const std::string history_path = args.Get("history", "");
  if (timings_path.empty() || history_path.empty()) return Usage();

  Result<std::string> timings_text = ReadFileToString(timings_path);
  if (!timings_text.ok()) {
    std::fprintf(stderr, "%s\n", timings_text.status().ToString().c_str());
    return 1;
  }
  Result<obs::BenchRun> run =
      obs::BenchRunFromTimingsJson(timings_text.value(), NowUtcIso());
  if (!run.ok()) {
    std::fprintf(stderr, "%s: %s\n", timings_path.c_str(),
                 run.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<obs::BenchRun>> history = LoadHistory(history_path);
  if (!history.ok()) {
    std::fprintf(stderr, "%s: %s\n", history_path.c_str(),
                 history.status().ToString().c_str());
    return 1;
  }
  history.value().push_back(run.value());

  const std::string json = obs::HistoryToJson(history.value());
  Status valid = JsonValidate(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "history serialization failed self-check: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  Status written = WriteFileAtomic(history_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("appended run %zu to %s (git %s, %zu stages)\n",
              history.value().size(), history_path.c_str(),
              run.value().git_sha.c_str(), run.value().stage_seconds.size());
  return 0;
}

int RunCompare(const Args& args) {
  const std::string history_path = args.Get("history", "");
  if (history_path.empty()) return Usage();

  obs::CompareOptions options;
  double inject = 1.0;
  const std::pair<const char*, double*> numbers[] = {
      {"max-time-ratio", &options.max_time_ratio},
      {"min-seconds", &options.min_seconds},
      {"min-ipc-ratio", &options.min_ipc_ratio},
      {"max-cache-miss-ratio", &options.max_cache_miss_ratio},
      {"inject-time-ratio", &inject},
  };
  for (const auto& [key, out] : numbers) {
    const std::string text = args.Get(key, "");
    if (!text.empty() && (!ParseDouble(text, out) || !std::isfinite(*out))) {
      std::fprintf(stderr, "--%s: not a valid number: %s\n", key,
                   text.c_str());
      return 2;
    }
  }
  const std::string stage_overrides = args.Get("stage-max-ratio", "");
  if (!stage_overrides.empty()) {
    for (const std::string& pair : Split(stage_overrides, ',')) {
      const std::vector<std::string> kv = Split(pair, '=');
      double ratio = 0.0;
      if (kv.size() != 2 || kv[0].empty() || !ParseDouble(kv[1], &ratio) ||
          !std::isfinite(ratio)) {
        std::fprintf(stderr,
                     "--stage-max-ratio: bad entry '%s' (want stage=R)\n",
                     pair.c_str());
        return 2;
      }
      options.stage_max_ratio[kv[0]] = ratio;
    }
  }
  const std::string stage_ceilings = args.Get("stage-max-seconds", "");
  if (!stage_ceilings.empty()) {
    for (const std::string& pair : Split(stage_ceilings, ',')) {
      const std::vector<std::string> kv = Split(pair, '=');
      double seconds = 0.0;
      if (kv.size() != 2 || kv[0].empty() || !ParseDouble(kv[1], &seconds) ||
          !std::isfinite(seconds) || seconds <= 0.0) {
        std::fprintf(stderr,
                     "--stage-max-seconds: bad entry '%s' (want stage=S)\n",
                     pair.c_str());
        return 2;
      }
      options.stage_max_seconds[kv[0]] = seconds;
    }
  }

  Result<std::vector<obs::BenchRun>> history = LoadHistory(history_path);
  if (!history.ok()) {
    std::fprintf(stderr, "%s: %s\n", history_path.c_str(),
                 history.status().ToString().c_str());
    return 1;
  }
  const std::vector<obs::BenchRun>& runs = history.value();

  if (runs.size() < 2) {
    // No baseline: ratio gates cannot run, but absolute ceilings judge the
    // latest run alone, so a fresh history still enforces them.
    int exit_code = 0;
    if (!runs.empty() && !options.stage_max_seconds.empty()) {
      for (const obs::CeilingDelta& delta :
           obs::EvaluateCeilings(options.stage_max_seconds, runs.back())) {
        std::printf("ceiling %s: latest %s vs max %s  %s\n",
                    delta.stage.c_str(),
                    delta.missing ? "missing"
                                  : FormatDouble(delta.latest_seconds,
                                                 4).c_str(),
                    FormatDouble(delta.ceiling_seconds, 4).c_str(),
                    delta.regressed ? "REGRESSED" : "ok");
        if (delta.regressed) exit_code = 1;
      }
    }
    std::printf("bench-compare: %zu run(s) in %s; no baseline yet (%s)\n",
                runs.size(), history_path.c_str(),
                exit_code == 0 ? "passing" : "ceiling REGRESSION");
    return exit_code;
  }

  const size_t latest_index = runs.size() - 1;
  const size_t baseline_index = latest_index - 1;
  obs::BenchRun latest = runs[latest_index];
  if (inject != 1.0) {
    for (auto& [stage, seconds] : latest.stage_seconds) seconds *= inject;
    std::printf("(self-test: latest stage times scaled by %.2f)\n", inject);
  }

  const obs::CompareReport report =
      obs::CompareBenchRuns(runs[baseline_index], latest, options);
  std::printf("comparing run %zu (%s) against baseline %zu (%s):\n",
              latest_index, latest.timestamp.c_str(), baseline_index,
              runs[baseline_index].timestamp.c_str());
  std::printf("%s", report.Render().c_str());
  return report.ok ? 0 : 1;
}

int RunShow(const Args& args) {
  const std::string history_path = args.Get("history", "");
  if (history_path.empty()) return Usage();
  Result<std::vector<obs::BenchRun>> history = LoadHistory(history_path);
  if (!history.ok()) {
    std::fprintf(stderr, "%s: %s\n", history_path.c_str(),
                 history.status().ToString().c_str());
    return 1;
  }
  TablePrinter table({"run", "timestamp", "git", "build", "sanitizer",
                      "threads", "stages", "peak RSS MB"});
  size_t index = 0;
  for (const obs::BenchRun& run : history.value()) {
    table.AddRow({std::to_string(index++), run.timestamp, run.git_sha,
                  run.build_type, run.sanitizer,
                  std::to_string(run.tg_threads),
                  std::to_string(run.stage_seconds.size()),
                  FormatDouble(static_cast<double>(run.peak_rss_bytes) /
                                   1048576.0,
                               1)});
  }
  table.Print();
  return 0;
}

int Run(int argc, char** argv) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return Usage();
  }
  const Args& args = parsed.value();
  // A removed or misspelled flag must not pass silently: the caller would
  // believe a gate is set that never runs.
  static const char* const kKnown[] = {
      "timings",          "history",           "max-time-ratio",
      "min-seconds",      "inject-time-ratio", "stage-max-ratio",
      "stage-max-seconds", "min-ipc-ratio",    "max-cache-miss-ratio"};
  for (const auto& [key, value] : args.options) {
    if (std::find(std::begin(kKnown), std::end(kKnown), key) ==
        std::end(kKnown)) {
      std::fprintf(stderr, "unknown option --%s\n", key.c_str());
      return Usage();
    }
  }
  if (args.command == "append") return RunAppend(args);
  if (args.command == "compare") return RunCompare(args);
  if (args.command == "show") return RunShow(args);
  return Usage();
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) { return tg::Run(argc, argv); }
