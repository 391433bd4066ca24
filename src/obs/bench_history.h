// Run-over-run benchmark history: parse one bench_timings.json snapshot
// into a BenchRun, accumulate runs into bench_csv/BENCH_history.json, and
// judge the latest run against the one before it under one fixed set of
// regression thresholds (the table in docs/observability.md). The
// tools/bench_history CLI wraps these (append / compare / show);
// tools/run_checks.sh uses compare as a pre-PR gate.
//
// BENCH_history.json schema (schema version 1):
//   {
//     "schema": 1,
//     "runs": [
//       {
//         "timestamp": "<ISO-8601 UTC, append time>",
//         "build_info": {"git_sha": "...", "compiler": "...", "flags": "...",
//                        "build_type": "...", "sanitizer": "...",
//                        "cxx_standard": N, "tg_threads": N},
//         "peak_rss_bytes": N,
//         "timings": [
//           {"component": "...", "threads": N, "wall_seconds": S}, ...
//         ],
//         "counters": [        // optional (absent before PR 7, or when
//           {"stage": "...",   //  hardware counters were off/unavailable)
//            "cycles": N, "instructions": N, "cache_references": N,
//            "cache_misses": N, "branch_misses": N, "spans": N}, ...
//         ]
//       }, ...
//     ]
//   }
#ifndef TG_OBS_BENCH_HISTORY_H_
#define TG_OBS_BENCH_HISTORY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/perf_counters.h"
#include "util/status.h"

namespace tg::obs {

// One benchmark run: build provenance plus per-stage wall times keyed
// "component@threads" (e.g. "skipgram_sharded@1").
struct BenchRun {
  std::string timestamp;
  std::string git_sha;
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string sanitizer;
  uint64_t tg_threads = 0;
  uint64_t peak_rss_bytes = 0;
  std::map<std::string, double> stage_seconds;
  // Hardware-counter totals keyed by plain stage (span) name -- no @threads
  // suffix, since counter totals merge every thread configuration of a
  // stage. Empty when the run predates the counter schema or counters were
  // disabled/unavailable; every consumer must tolerate that.
  std::map<std::string, StagePerfTotals> stage_counters;
};

// Parses a bench_csv/bench_timings.json document (the format
// bench_common.h's WriteTimingsJson emits: "timings" array + "build_info" +
// "resources"). `timestamp` is stamped by the caller at append time.
Result<BenchRun> BenchRunFromTimingsJson(const std::string& timings_json,
                                         const std::string& timestamp);

// Parses a BENCH_history.json document. An unknown schema version is an
// error; an empty runs array is fine.
Result<std::vector<BenchRun>> ParseHistoryJson(const std::string& json);

// Serializes runs back to the schema above (validates round-trip clean).
std::string HistoryToJson(const std::vector<BenchRun>& runs);

struct StageDelta {
  std::string stage;       // "component@threads"
  double baseline_seconds = 0.0;
  double latest_seconds = 0.0;
  double ratio = 0.0;      // latest / baseline
  bool regressed = false;
  bool skipped_below_floor = false;
};

struct CounterDelta {
  std::string stage;  // plain stage name (no @threads)
  double baseline_ipc = 0.0;
  double latest_ipc = 0.0;
  double ipc_ratio = 0.0;        // latest / baseline (0 when baseline is 0)
  double baseline_miss_rate = 0.0;
  double latest_miss_rate = 0.0;
  double miss_ratio = 0.0;       // latest / baseline (0 when baseline is 0)
  bool regressed = false;
  bool skipped_below_floor = false;  // baseline cycles under the noise floor
};

// One absolute wall-time ceiling verdict, judged on the latest run alone.
struct CeilingDelta {
  std::string stage;  // "component@threads"
  double ceiling_seconds = 0.0;
  double latest_seconds = 0.0;  // 0 when missing
  bool missing = false;         // stage absent from the latest run
  bool regressed = false;
};

struct CompareReport {
  bool has_baseline = false;  // false: only the ceilings were judged
  bool ok = true;             // false iff any gate regressed
  std::vector<StageDelta> stages;      // stages present in both runs
  std::vector<CeilingDelta> ceilings;  // absolute wall-time ceilings
  std::vector<CounterDelta> counters;  // stages with counters in both runs
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_latest;
  double rss_ratio = 0.0;     // 0 when either run lacks a peak-RSS reading
  bool rss_regressed = false;
  std::vector<std::string> notes;  // e.g. build-stamp mismatches

  // Human-readable multi-line rendering (table + verdict line).
  std::string Render() const;
};

// Judges the last run of `runs` under the fixed gate policy. The absolute
// ceilings need only that run, so they bind from the first run on; the
// stage-ratio, counter and RSS gates diff it against the run before it
// once there is one. An empty history passes. Build-stamp mismatches
// (different build_type / sanitizer / compiler) do not fail the compare
// but are noted, since cross-build ratios are not meaningful evidence.
CompareReport CompareHistory(const std::vector<BenchRun>& runs);

}  // namespace tg::obs

#endif  // TG_OBS_BENCH_HISTORY_H_
