// bench_history: accumulates bench_csv/bench_timings.json snapshots into a
// persistent bench_csv/BENCH_history.json and gates on run-over-run
// regressions. See src/obs/bench_history.h for the schema and
// docs/observability.md for the workflow.
//
// Subcommands:
//   append  --timings FILE --history FILE     add a run (creates history)
//   compare --history FILE                    judge the latest run; exit 1
//                                             on regression
//   show    --history FILE                    list recorded runs
//
// compare takes no thresholds: the gate policy (stage-time ratios against
// the run before, pinned stages, absolute ceilings, IPC, cache-miss and
// peak-RSS ratios) is a fixed table in src/obs/bench_history.cc, documented
// in docs/observability.md. The ceilings bind even on a one-run history.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iterator>
#include <map>
#include <string>
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
      "  compare --history FILE\n"
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
  Result<std::vector<obs::BenchRun>> history = LoadHistory(history_path);
  if (!history.ok()) {
    std::fprintf(stderr, "%s: %s\n", history_path.c_str(),
                 history.status().ToString().c_str());
    return 1;
  }
  const std::vector<obs::BenchRun>& runs = history.value();
  const obs::CompareReport report = obs::CompareHistory(runs);
  if (report.has_baseline) {
    std::printf("comparing run %zu (%s) against baseline %zu (%s):\n",
                runs.size() - 1, runs.back().timestamp.c_str(),
                runs.size() - 2, runs[runs.size() - 2].timestamp.c_str());
  } else {
    std::printf("%zu run(s) in %s:\n", runs.size(), history_path.c_str());
  }
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
  static const char* const kKnown[] = {"timings", "history"};
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
