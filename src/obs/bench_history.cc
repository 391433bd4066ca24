#include "obs/bench_history.h"

#include <algorithm>
#include <iterator>

#include "util/json_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tg::obs {
namespace {

constexpr int kSchemaVersion = 1;

// The compare gate policy, one value per gate (docs/observability.md has
// the reasons). Stages are keyed "component@threads".
struct StageLimit {
  const char* stage;
  double value;
};
// A stage regresses past this latest/baseline ratio (sub-100ms stages
// jitter 30-40% run to run on shared hardware)...
constexpr double kMaxTimeRatio = 1.60;
// ...unless its baseline is under this floor, where timings are scheduler
// noise.
constexpr double kMinBaselineSeconds = 0.05;
// Stages an optimization landed in get a tighter ratio and skip the floor.
constexpr StageLimit kPinnedRatios[] = {{"skipgram_sharded@1", 1.25},
                                        {"random_forest_fit@1", 1.25}};
// Absolute ceilings in seconds on the latest run; a missing stage fails.
constexpr StageLimit kCeilingSeconds[] = {{"random_forest_fit@1", 0.38}};
constexpr double kMinIpcRatio = 0.70;
constexpr double kMaxCacheMissRatio = 2.0;
// Counter gates skip stages whose baseline saw fewer cycles than this.
constexpr uint64_t kMinCounterCycles = 10000000;
constexpr double kMaxRssRatio = 1.50;

std::string StageKey(const std::string& component, uint64_t threads) {
  return component + "@" + std::to_string(threads);
}

uint64_t AsU64(const JsonValue* value) {
  if (value == nullptr || !value->is_number()) return 0;
  const double d = value->AsDouble();
  return d > 0.0 ? static_cast<uint64_t>(d) : 0;
}

std::string AsStr(const JsonValue* value, const std::string& fallback) {
  return value != nullptr && value->is_string() ? value->AsString() : fallback;
}

void ReadBuildInfo(const JsonValue* build_info, BenchRun* run) {
  if (build_info == nullptr || !build_info->is_object()) return;
  run->git_sha = AsStr(build_info->Find("git_sha"), "unknown");
  run->compiler = AsStr(build_info->Find("compiler"), "unknown");
  run->flags = AsStr(build_info->Find("flags"), "");
  run->build_type = AsStr(build_info->Find("build_type"), "unknown");
  run->sanitizer = AsStr(build_info->Find("sanitizer"), "none");
  run->tg_threads = AsU64(build_info->Find("tg_threads"));
}

Status ReadTimingsArray(const JsonValue* timings, BenchRun* run) {
  if (timings == nullptr || !timings->is_array()) {
    return Status::InvalidArgument("missing \"timings\" array");
  }
  for (size_t i = 0; i < timings->size(); ++i) {
    const JsonValue& entry = timings->at(i);
    const JsonValue* component = entry.Find("component");
    const JsonValue* seconds = entry.Find("wall_seconds");
    if (component == nullptr || !component->is_string() ||
        seconds == nullptr || !seconds->is_number()) {
      return Status::InvalidArgument("malformed timings entry " +
                                     std::to_string(i));
    }
    const uint64_t threads = AsU64(entry.Find("threads"));
    run->stage_seconds[StageKey(component->AsString(),
                                threads == 0 ? 1 : threads)] =
        seconds->AsDouble();
  }
  return Status::OK();
}

// Tolerant by design: "counters" is optional (runs appended before the
// counter schema, or runs where perf counters were off/unavailable), and
// malformed or partial entries are skipped rather than failing the parse --
// counter data is advisory telemetry, not part of the core schema contract.
void ReadCountersArray(const JsonValue* counters, BenchRun* run) {
  if (counters == nullptr || !counters->is_array()) return;
  for (size_t i = 0; i < counters->size(); ++i) {
    const JsonValue& entry = counters->at(i);
    const JsonValue* stage = entry.Find("stage");
    if (stage == nullptr || !stage->is_string()) continue;
    StagePerfTotals totals;
    totals.cycles = AsU64(entry.Find("cycles"));
    totals.instructions = AsU64(entry.Find("instructions"));
    totals.cache_references = AsU64(entry.Find("cache_references"));
    totals.cache_misses = AsU64(entry.Find("cache_misses"));
    totals.branch_misses = AsU64(entry.Find("branch_misses"));
    totals.spans = AsU64(entry.Find("spans"));
    run->stage_counters[stage->AsString()] = totals;
  }
}

std::string CountersArrayJson(const BenchRun& run) {
  std::string out = "[";
  bool first = true;
  for (const auto& [stage, t] : run.stage_counters) {
    if (!first) out += ",";
    first = false;
    out += "{\"stage\":" + JsonQuote(stage);
    out += ",\"cycles\":" + std::to_string(t.cycles);
    out += ",\"instructions\":" + std::to_string(t.instructions);
    out += ",\"cache_references\":" + std::to_string(t.cache_references);
    out += ",\"cache_misses\":" + std::to_string(t.cache_misses);
    out += ",\"branch_misses\":" + std::to_string(t.branch_misses);
    out += ",\"spans\":" + std::to_string(t.spans) + "}";
  }
  out += "]";
  return out;
}

std::string BuildInfoObjectJson(const BenchRun& run) {
  std::string out = "{";
  out += "\"git_sha\":" + JsonQuote(run.git_sha);
  out += ",\"compiler\":" + JsonQuote(run.compiler);
  out += ",\"flags\":" + JsonQuote(run.flags);
  out += ",\"build_type\":" + JsonQuote(run.build_type);
  out += ",\"sanitizer\":" + JsonQuote(run.sanitizer);
  out += ",\"tg_threads\":" + std::to_string(run.tg_threads);
  out += "}";
  return out;
}

}  // namespace

Result<BenchRun> BenchRunFromTimingsJson(const std::string& timings_json,
                                         const std::string& timestamp) {
  Result<JsonValue> parsed = JsonValue::Parse(timings_json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("timings document is not a JSON object");
  }
  BenchRun run;
  run.timestamp = timestamp;
  ReadBuildInfo(doc.Find("build_info"), &run);
  TG_RETURN_IF_ERROR(ReadTimingsArray(doc.Find("timings"), &run));
  ReadCountersArray(doc.Find("counters"), &run);
  if (const JsonValue* resources = doc.Find("resources")) {
    run.peak_rss_bytes = AsU64(resources->Find("peak_rss_bytes"));
  }
  return run;
}

Result<std::vector<BenchRun>> ParseHistoryJson(const std::string& json) {
  Result<JsonValue> parsed = JsonValue::Parse(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = parsed.value();
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_number() ||
      static_cast<int>(schema->AsDouble()) != kSchemaVersion) {
    return Status::InvalidArgument(
        "BENCH_history.json schema missing or unsupported (want " +
        std::to_string(kSchemaVersion) + ")");
  }
  const JsonValue* runs = doc.Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return Status::InvalidArgument("missing \"runs\" array");
  }
  std::vector<BenchRun> out;
  out.reserve(runs->size());
  for (size_t i = 0; i < runs->size(); ++i) {
    const JsonValue& entry = runs->at(i);
    BenchRun run;
    run.timestamp = AsStr(entry.Find("timestamp"), "");
    ReadBuildInfo(entry.Find("build_info"), &run);
    run.peak_rss_bytes = AsU64(entry.Find("peak_rss_bytes"));
    TG_RETURN_IF_ERROR(ReadTimingsArray(entry.Find("timings"), &run));
    ReadCountersArray(entry.Find("counters"), &run);
    out.push_back(std::move(run));
  }
  return out;
}

std::string HistoryToJson(const std::vector<BenchRun>& runs) {
  std::string out = "{\"schema\":" + std::to_string(kSchemaVersion) +
                    ",\"runs\":[";
  bool first_run = true;
  for (const BenchRun& run : runs) {
    if (!first_run) out += ",";
    first_run = false;
    out += "{\"timestamp\":" + JsonQuote(run.timestamp);
    out += ",\"build_info\":" + BuildInfoObjectJson(run);
    out += ",\"peak_rss_bytes\":" + std::to_string(run.peak_rss_bytes);
    out += ",\"timings\":[";
    bool first_stage = true;
    for (const auto& [key, seconds] : run.stage_seconds) {
      if (!first_stage) out += ",";
      first_stage = false;
      // Split "component@threads" back into fields.
      const size_t at = key.rfind('@');
      const std::string component =
          at == std::string::npos ? key : key.substr(0, at);
      const std::string threads =
          at == std::string::npos ? "1" : key.substr(at + 1);
      out += "{\"component\":" + JsonQuote(component);
      out += ",\"threads\":" + threads;
      out += ",\"wall_seconds\":" + JsonNumber(seconds, 9) + "}";
    }
    out += "]";
    // Optional: omitted entirely for counter-less runs so schema-1 history
    // files round-trip unchanged.
    if (!run.stage_counters.empty()) {
      out += ",\"counters\":" + CountersArrayJson(run);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

std::vector<CeilingDelta> CheckCeilings(const BenchRun& latest) {
  std::vector<CeilingDelta> out;
  for (const auto& [stage, ceiling] : kCeilingSeconds) {
    CeilingDelta delta;
    delta.stage = stage;
    delta.ceiling_seconds = ceiling;
    const auto it = latest.stage_seconds.find(stage);
    if (it == latest.stage_seconds.end()) {
      delta.missing = true;
      delta.regressed = true;
    } else {
      delta.latest_seconds = it->second;
      delta.regressed = it->second > ceiling;
    }
    out.push_back(std::move(delta));
  }
  return out;
}

// The ratio, counter and RSS gates: `latest` against `baseline`.
CompareReport CompareRuns(const BenchRun& baseline, const BenchRun& latest) {
  CompareReport report;
  report.has_baseline = true;

  if (baseline.build_type != latest.build_type ||
      baseline.sanitizer != latest.sanitizer ||
      baseline.compiler != latest.compiler) {
    report.notes.push_back(
        "build stamps differ (baseline " + baseline.build_type + "/" +
        baseline.sanitizer + "/" + baseline.compiler + " vs latest " +
        latest.build_type + "/" + latest.sanitizer + "/" + latest.compiler +
        "); ratios are not apples-to-apples");
  }
  if (baseline.tg_threads != latest.tg_threads) {
    report.notes.push_back("thread counts differ (baseline " +
                           std::to_string(baseline.tg_threads) +
                           " vs latest " +
                           std::to_string(latest.tg_threads) + ")");
  }

  for (const auto& [stage, base_seconds] : baseline.stage_seconds) {
    auto it = latest.stage_seconds.find(stage);
    if (it == latest.stage_seconds.end()) {
      report.only_in_baseline.push_back(stage);
      continue;
    }
    StageDelta delta;
    delta.stage = stage;
    delta.baseline_seconds = base_seconds;
    delta.latest_seconds = it->second;
    delta.ratio = base_seconds > 0.0 ? it->second / base_seconds : 0.0;
    const auto pin = std::find_if(
        std::begin(kPinnedRatios), std::end(kPinnedRatios),
        [&](const StageLimit& limit) { return stage == limit.stage; });
    if (pin != std::end(kPinnedRatios)) {
      delta.regressed = delta.ratio > pin->value;
    } else {
      delta.skipped_below_floor = base_seconds < kMinBaselineSeconds;
      delta.regressed =
          !delta.skipped_below_floor && delta.ratio > kMaxTimeRatio;
    }
    if (delta.regressed) report.ok = false;
    report.stages.push_back(std::move(delta));
  }
  for (const auto& [stage, seconds] : latest.stage_seconds) {
    (void)seconds;
    if (baseline.stage_seconds.find(stage) == baseline.stage_seconds.end()) {
      report.only_in_latest.push_back(stage);
    }
  }

  if (baseline.stage_counters.empty() || latest.stage_counters.empty()) {
    // Older-schema history entries (or counters-unavailable environments)
    // have no counter fields; the gates skip with a note instead of
    // erroring so a new binary can still compare against old baselines.
    report.notes.push_back(
        std::string("hardware counters missing in ") +
        (baseline.stage_counters.empty() ? "baseline" : "latest") +
        " run (older schema or counters unavailable); counter gates "
        "skipped");
  } else {
    for (const auto& [stage, base_counters] : baseline.stage_counters) {
      const auto it = latest.stage_counters.find(stage);
      if (it == latest.stage_counters.end()) continue;
      const StagePerfTotals& latest_counters = it->second;
      CounterDelta delta;
      delta.stage = stage;
      delta.baseline_ipc = base_counters.Ipc();
      delta.latest_ipc = latest_counters.Ipc();
      delta.ipc_ratio = delta.baseline_ipc > 0.0
                            ? delta.latest_ipc / delta.baseline_ipc
                            : 0.0;
      delta.baseline_miss_rate = base_counters.CacheMissRate();
      delta.latest_miss_rate = latest_counters.CacheMissRate();
      delta.miss_ratio = delta.baseline_miss_rate > 0.0
                             ? delta.latest_miss_rate /
                                   delta.baseline_miss_rate
                             : 0.0;
      delta.skipped_below_floor =
          base_counters.cycles < kMinCounterCycles;
      if (!delta.skipped_below_floor) {
        const bool ipc_regressed =
            delta.baseline_ipc > 0.0 && delta.ipc_ratio < kMinIpcRatio;
        const bool miss_regressed = delta.baseline_miss_rate > 0.0 &&
                                    delta.miss_ratio > kMaxCacheMissRatio;
        delta.regressed = ipc_regressed || miss_regressed;
      }
      if (delta.regressed) report.ok = false;
      report.counters.push_back(std::move(delta));
    }
  }

  if (baseline.peak_rss_bytes > 0 && latest.peak_rss_bytes > 0) {
    report.rss_ratio = static_cast<double>(latest.peak_rss_bytes) /
                       static_cast<double>(baseline.peak_rss_bytes);
    report.rss_regressed = report.rss_ratio > kMaxRssRatio;
    if (report.rss_regressed) report.ok = false;
  }

  return report;
}

}  // namespace

CompareReport CompareHistory(const std::vector<BenchRun>& runs) {
  if (runs.empty()) return CompareReport{};
  CompareReport report = runs.size() >= 2
                             ? CompareRuns(runs[runs.size() - 2], runs.back())
                             : CompareReport{};
  // Absolute ceilings judge the latest run alone -- the baseline plays no
  // role, so they bind on a one-run history and hold even as ratio
  // baselines drift downward.
  report.ceilings = CheckCeilings(runs.back());
  for (const CeilingDelta& delta : report.ceilings) {
    if (delta.regressed) report.ok = false;
  }
  return report;
}

std::string CompareReport::Render() const {
  std::string out;
  if (has_baseline) {
    TablePrinter table(
        {"stage", "baseline s", "latest s", "ratio", "verdict"});
    for (const StageDelta& delta : stages) {
      table.AddRow({delta.stage, FormatDouble(delta.baseline_seconds, 4),
                    FormatDouble(delta.latest_seconds, 4),
                    FormatDouble(delta.ratio, 3),
                    delta.regressed             ? "REGRESSED"
                    : delta.skipped_below_floor ? "below floor"
                                                : "ok"});
    }
    out = table.Render();
  } else {
    out = "no baseline run in history; ratio, counter and RSS gates skipped\n";
  }
  if (!ceilings.empty()) {
    TablePrinter ceiling_table({"stage", "ceiling s", "latest s", "verdict"});
    for (const CeilingDelta& delta : ceilings) {
      ceiling_table.AddRow(
          {delta.stage, FormatDouble(delta.ceiling_seconds, 4),
           delta.missing ? "missing" : FormatDouble(delta.latest_seconds, 4),
           delta.regressed ? "REGRESSED" : "ok"});
    }
    out += ceiling_table.Render();
  }
  if (!counters.empty()) {
    TablePrinter counter_table({"stage", "base IPC", "latest IPC",
                                "IPC ratio", "base miss%", "latest miss%",
                                "verdict"});
    for (const CounterDelta& delta : counters) {
      counter_table.AddRow(
          {delta.stage, FormatDouble(delta.baseline_ipc, 2),
           FormatDouble(delta.latest_ipc, 2),
           FormatDouble(delta.ipc_ratio, 3),
           FormatDouble(delta.baseline_miss_rate * 100.0, 2),
           FormatDouble(delta.latest_miss_rate * 100.0, 2),
           delta.regressed             ? "REGRESSED"
           : delta.skipped_below_floor ? "below floor"
                                       : "ok"});
    }
    out += counter_table.Render();
  }
  if (rss_ratio > 0.0) {
    out += "peak RSS ratio " + FormatDouble(rss_ratio, 3) +
           (rss_regressed ? "  REGRESSED\n" : "  ok\n");
  }
  for (const std::string& stage : only_in_baseline) {
    out += "note: stage only in baseline: " + stage + "\n";
  }
  for (const std::string& stage : only_in_latest) {
    out += "note: stage only in latest: " + stage + "\n";
  }
  for (const std::string& note : notes) {
    out += "note: " + note + "\n";
  }
  out += ok ? "bench-compare: OK\n" : "bench-compare: REGRESSION\n";
  return out;
}

}  // namespace tg::obs
