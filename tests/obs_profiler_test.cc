// Tests for the sampling CPU profiler (obs/profiler.h) and the hardware
// counter substrate (obs/perf_counters.h): span attribution under
// ParallelFor, collapsed-stack format, the bit-identity determinism
// contract, counter-scope RAII nesting, clean degradation when
// perf_event_open fails (forced via the "perf_open" fault site, since CI
// containers legitimately lack a PMU), and the bench_history counter-ratio
// gate including tolerance for history entries that predate the counter
// schema.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "obs/bench_history.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/json_util.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "zoo/model_zoo.h"

#if defined(__linux__)
#include <dlfcn.h>
#endif

namespace tg {
namespace {

// Static storage: the signal handler records this pointer, so it must
// outlive any in-flight sample.
constexpr char kBusySpan[] = "profiler_test_busy";

// Burns CPU inside a span on the pool; the volatile sink keeps the loop
// from being optimized away.
void BusyRound() {
  ParallelFor(0, 8, 1, [](size_t, size_t, size_t) {
    obs::Span span(kBusySpan);
    volatile double sink = 0.0;
    for (size_t i = 0; i < 400000; ++i) {
      sink = sink + static_cast<double>(i % 1024) * 1e-9;
    }
  });
}

constexpr char kFramedSpan[] = "profiler_test_framed";

// Burns CPU with a frame pointer set up (taking the frame address forces
// one), so RBP holds a valid chain a frame walker would follow into the
// caller.
__attribute__((noinline)) void SpinWithFramePointer() {
  volatile uintptr_t frame =
      reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  for (size_t i = 0; i < 400000; ++i) frame = frame + i % 3;
}

// Profiles SpinWithFramePointer inside kFramedSpan at 997 Hz until 20
// samples attribute to the span (or a 60 s deadline passes); returns them.
uint64_t SampleFramedSpin() {
  if (!obs::StartProfiler(997).ok()) return 0;
  uint64_t samples = 0;
  obs::WallTimer timer;
  while (samples < 20 && timer.ElapsedSeconds() < 60.0) {
    {
      obs::Span span(kFramedSpan);
      SpinWithFramePointer();
    }
    const std::map<std::string, uint64_t> counts =
        obs::SpanProfileSampleCounts();
    const auto it = counts.find(kFramedSpan);
    if (it != counts.end()) samples = it->second;
  }
  if (!obs::StopProfiler().ok()) return 0;
  return samples;
}

// Runs busy rounds until at least one sample has attributed to kBusySpan.
// Sanitizers defer async signals to safe points and CI machines stall, so
// this loops against a generous wall-clock deadline rather than assuming
// one round is enough; the profiler samples process *CPU* time, so more
// rounds always means more expected samples.
uint64_t SampleBusySpan(double deadline_seconds = 60.0) {
  obs::WallTimer timer;
  while (timer.ElapsedSeconds() < deadline_seconds) {
    BusyRound();
    const std::map<std::string, uint64_t> counts =
        obs::SpanProfileSampleCounts();
    const auto it = counts.find(kBusySpan);
    if (it != counts.end() && it->second > 0) return it->second;
  }
  return 0;
}

obs::PerfCounterValues MakeCounterDelta(uint64_t cycles, uint64_t instructions,
                                        uint64_t cache_references,
                                        uint64_t cache_misses) {
  obs::PerfCounterValues v;
  v.cycles = cycles;
  v.instructions = instructions;
  v.cache_references = cache_references;
  v.cache_misses = cache_misses;
  v.branch_misses = cache_misses / 2;
  v.ok = true;
  return v;
}

obs::StagePerfTotals MakeStageTotals(uint64_t cycles, uint64_t instructions,
                                     uint64_t cache_references,
                                     uint64_t cache_misses) {
  obs::StagePerfTotals t;
  t.cycles = cycles;
  t.instructions = instructions;
  t.cache_references = cache_references;
  t.cache_misses = cache_misses;
  t.branch_misses = cache_misses / 2;
  t.spans = 1;
  return t;
}

obs::BenchRun MakeRun(const std::string& sha, double graph_seconds,
                      double gbdt_seconds) {
  obs::BenchRun run;
  run.timestamp = "2026-01-01T00:00:00Z";
  run.git_sha = sha;
  run.compiler = "GNU 12.2.0";
  run.build_type = "Release";
  run.sanitizer = "none";
  run.tg_threads = 4;
  run.peak_rss_bytes = 1u << 30;
  run.stage_seconds["graph_build@4"] = graph_seconds;
  run.stage_seconds["gbdt_fit@4"] = gbdt_seconds;
  // Inside the fixed 0.38 s ceiling, so only the gate under test can fail.
  run.stage_seconds["random_forest_fit@1"] = 0.30;
  return run;
}

// Restores the default quiet state so test ordering does not matter.
class ObsProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { Quiet(); }
  void TearDown() override { Quiet(); }

  static void Quiet() {
    (void)obs::StopProfiler();
    obs::ResetProfile();
    obs::SetPerfCountersEnabled(false);
    obs::ResetStagePerf();
    obs::SetTraceEnabled(false);
    obs::SetMetricsEnabled(false);
    obs::ResetSpans();
    fault::ClearFaults();
    SetThreadCount(0);
  }
};

TEST_F(ObsProfilerTest, LifecycleAndArgumentValidation) {
  EXPECT_FALSE(obs::ProfilerRunning());

  EXPECT_FALSE(obs::StartProfiler(-5).ok());
  EXPECT_FALSE(obs::StartProfiler(1000000).ok());
  EXPECT_FALSE(obs::ProfilerRunning());

  ASSERT_TRUE(obs::StartProfiler(97).ok());
  EXPECT_TRUE(obs::ProfilerRunning());
  EXPECT_EQ(obs::ProfilerHz(), 97);
  EXPECT_FALSE(obs::StartProfiler(97).ok()) << "double start must fail";

  ASSERT_TRUE(obs::StopProfiler().ok());
  EXPECT_FALSE(obs::ProfilerRunning());
  ASSERT_TRUE(obs::StopProfiler().ok()) << "stop must be idempotent";

  ASSERT_TRUE(obs::StartProfiler(0).ok());
  EXPECT_EQ(obs::ProfilerHz(), obs::kProfilerDefaultHz);
  ASSERT_TRUE(obs::StopProfiler().ok());
}

TEST_F(ObsProfilerTest, SamplesAttributeToSpansUnderParallelFor) {
  SetThreadCount(4);
  ASSERT_TRUE(obs::StartProfiler(997).ok());
  const uint64_t busy_samples = SampleBusySpan();
  ASSERT_TRUE(obs::StopProfiler().ok());

  ASSERT_GT(busy_samples, 0u)
      << "no sample attributed to " << kBusySpan << " before the deadline";
  EXPECT_GT(obs::ProfilerSampleCount(), 0u);

  // The busy span roots its collapsed stacks, so the dump must mention it.
  const std::string collapsed = obs::CollapsedStacks();
  EXPECT_NE(collapsed.find(kBusySpan), std::string::npos);

  // The report table renders (hot symbols may be hex fallbacks, but the
  // table itself must exist once there are samples).
  EXPECT_FALSE(obs::ProfileReportTable(5).empty());

  const std::string summary = obs::ProfileSummaryJson();
  EXPECT_TRUE(JsonValidate(summary).ok()) << summary;
  EXPECT_NE(summary.find("\"hz\":997"), std::string::npos) << summary;
}

TEST_F(ObsProfilerTest, CollapsedStackLinesParse) {
  SetThreadCount(2);
  ASSERT_TRUE(obs::StartProfiler(997).ok());
  ASSERT_GT(SampleBusySpan(), 0u);
  ASSERT_TRUE(obs::StopProfiler().ok());

  const std::string collapsed = obs::CollapsedStacks();
  ASSERT_FALSE(collapsed.empty());
  ASSERT_EQ(collapsed.back(), '\n');
  size_t lines = 0;
  for (const std::string& line : Split(collapsed, '\n')) {
    if (line.empty()) continue;
    ++lines;
    // Format: "frame;frame;...;leaf count" -- a space-separated positive
    // count after a non-empty ';'-joined stack.
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string count_text = line.substr(space + 1);
    uint64_t count = 0;
    ASSERT_TRUE(ParseUint64(count_text, &count)) << line;
    EXPECT_GT(count, 0u) << line;
    for (const std::string& frame : Split(line.substr(0, space), ';')) {
      EXPECT_FALSE(frame.empty()) << line;
    }
  }
  EXPECT_GT(lines, 0u);

  // WriteCollapsedStacks persists exactly the in-memory dump.
  const std::string path =
      ::testing::TempDir() + "/profiler_test.collapsed";
  ASSERT_TRUE(obs::WriteCollapsedStacks(path).ok());
  Result<std::string> written = ReadFileToString(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), collapsed);
  std::remove(path.c_str());
}

// A sample is the span chain plus the interrupted PC, never caller frames:
// even where RBP holds a walkable frame chain, each collapsed stack of the
// framed span is exactly "span;symbol".
TEST_F(ObsProfilerTest, SamplesRecordOnlyTheInterruptedPc) {
  const uint64_t samples = SampleFramedSpin();
  ASSERT_GT(samples, 0u);

  uint64_t checked = 0;
  for (const std::string& line : Split(obs::CollapsedStacks(), '\n')) {
    if (!StartsWith(line, std::string(kFramedSpan) + ";")) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(Split(line.substr(0, space), ';').size(), 2u) << line;
    uint64_t count = 0;
    ASSERT_TRUE(ParseUint64(line.substr(space + 1), &count)) << line;
    checked += count;
  }
  EXPECT_EQ(checked, samples);
}

// SpinWithFramePointer has internal linkage, so it is absent from .dynsym
// and only the .symtab lookup can name it; its samples must not fall back
// to hex addresses.
TEST_F(ObsProfilerTest, InternalLinkageFunctionsAreNamed) {
  const uint64_t samples = SampleFramedSpin();
  ASSERT_GT(samples, 0u);
  uint64_t named = 0;
  for (const std::string& line : Split(obs::CollapsedStacks(), '\n')) {
    if (!StartsWith(line, std::string(kFramedSpan) + ";")) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    uint64_t count = 0;
    ASSERT_TRUE(ParseUint64(line.substr(space + 1), &count)) << line;
    if (line.find("SpinWithFramePointer") != std::string::npos) {
      named += count;
    }
  }
  EXPECT_GT(named, 0u) << obs::CollapsedStacks();
}

#if defined(__linux__)
// A PC inside a loaded object that names no function for it -- here the
// first byte of the object's mapping, its ELF header -- is reported under
// the object's basename, the way samples in a stripped libm are, not as a
// hex address.
TEST_F(ObsProfilerTest, UnsymbolizedPcIsNamedByItsObject) {
  Dl_info info;
  ASSERT_NE(dladdr(reinterpret_cast<void*>(&SpinWithFramePointer), &info), 0);
  ASSERT_NE(info.dli_fname, nullptr);
  const char* slash = std::strrchr(info.dli_fname, '/');
  const std::string object = slash != nullptr ? slash + 1 : info.dli_fname;
  ASSERT_FALSE(object.empty());
  EXPECT_EQ(obs::ProfilerFrameName(reinterpret_cast<uintptr_t>(info.dli_fbase)),
            "[" + object + "]");
  // A PC inside a function is still named by the function.
  EXPECT_NE(obs::ProfilerFrameName(
                reinterpret_cast<uintptr_t>(&SpinWithFramePointer) + 1)
                .find("SpinWithFramePointer"),
            std::string::npos);
}
#endif

TEST_F(ObsProfilerTest, ResetProfileClearsAggregates) {
  SetThreadCount(2);
  ASSERT_TRUE(obs::StartProfiler(997).ok());
  ASSERT_GT(SampleBusySpan(), 0u);
  ASSERT_TRUE(obs::StopProfiler().ok());
  ASSERT_GT(obs::ProfilerSampleCount(), 0u);

  obs::ResetProfile();
  EXPECT_EQ(obs::ProfilerSampleCount(), 0u);
  EXPECT_EQ(obs::ProfilerDroppedSampleCount(), 0u);
  EXPECT_TRUE(obs::CollapsedStacks().empty());
  EXPECT_TRUE(obs::SpanProfileSampleCounts().empty());
  EXPECT_TRUE(obs::ProfilerCounterEventsJson().empty());
}

// The determinism contract from the issue: pipeline outputs are
// bit-identical with the profiler sampling and counters enabled.
TEST_F(ObsProfilerTest, PipelineOutputsIdenticalWithProfilingOnOrOff) {
  zoo::ModelZooConfig zoo_config;
  zoo_config.catalog.num_image_models = 32;
  zoo_config.catalog.num_text_models = 16;
  zoo_config.world.max_samples_per_dataset = 60;
  zoo::ModelZoo zoo(zoo_config);

  core::PipelineConfig config;
  config.strategy = {core::PredictorKind::kLinearRegression,
                     core::GraphLearner::kNode2Vec, core::FeatureSet::kAll};
  config.node2vec.walk.walks_per_node = 4;
  config.node2vec.walk.walk_length = 12;
  config.node2vec.skipgram.dim = 16;
  config.node2vec.skipgram.epochs = 2;

  core::Pipeline quiet_pipeline(&zoo, zoo::Modality::kImage);
  const std::vector<core::TargetEvaluation> quiet =
      quiet_pipeline.EvaluateAllTargetsResumable(config, {}).evaluations;

  obs::SetPerfCountersEnabled(true);
  ASSERT_TRUE(obs::StartProfiler(499).ok());
  core::Pipeline profiled_pipeline(&zoo, zoo::Modality::kImage);
  const std::vector<core::TargetEvaluation> profiled =
      profiled_pipeline.EvaluateAllTargetsResumable(config, {}).evaluations;
  ASSERT_TRUE(obs::StopProfiler().ok());

  ASSERT_EQ(profiled.size(), quiet.size());
  for (size_t t = 0; t < quiet.size(); ++t) {
    ASSERT_EQ(profiled[t].predicted.size(), quiet[t].predicted.size());
    for (size_t i = 0; i < quiet[t].predicted.size(); ++i) {
      EXPECT_EQ(profiled[t].predicted[i], quiet[t].predicted[i])
          << "target " << t << " model " << i;
    }
    EXPECT_EQ(profiled[t].pearson, quiet[t].pearson) << "target " << t;
  }
}

TEST_F(ObsProfilerTest, DisabledCountersReadAsNotOk) {
  EXPECT_FALSE(obs::PerfCountersEnabled());
  EXPECT_FALSE(obs::ThreadPerfCounters().ok);
  EXPECT_STREQ(obs::PerfCountersStatusString(), "disabled");
  const std::string json = obs::PerfCountersStatusJson();
  EXPECT_TRUE(JsonValidate(json).ok()) << json;
  EXPECT_NE(json.find("disabled"), std::string::npos) << json;
}

// Works in both worlds: on PMU-less CI the substrate must degrade, on real
// hardware the scopes must nest with inner counts included in the outer
// delta (inclusive semantics, like wall time).
TEST_F(ObsProfilerTest, CounterScopesNestOrDegradeGracefully) {
  obs::SetPerfCountersEnabled(true);
  const bool available = obs::PerfCountersAvailable();
  EXPECT_STREQ(obs::PerfCountersStatusString(),
               available ? "ok" : "unavailable");
  EXPECT_TRUE(JsonValidate(obs::PerfCountersStatusJson()).ok());

  obs::PerfCounterValues outer_delta;
  obs::PerfCounterValues inner_delta;
  {
    obs::PerfCounterScope outer("profiler_test_outer");
    {
      obs::PerfCounterScope inner("profiler_test_inner");
      volatile double sink = 0.0;
      for (int i = 0; i < 200000; ++i) sink = sink + static_cast<double>(i);
      inner_delta = inner.Delta();
    }
    outer_delta = outer.Delta();
  }

  const auto stages = obs::StagePerfSnapshot();
  if (available) {
    EXPECT_TRUE(inner_delta.ok);
    EXPECT_TRUE(outer_delta.ok);
    EXPECT_GE(outer_delta.cycles, inner_delta.cycles)
        << "outer scope must include the nested scope's counts";
    ASSERT_EQ(stages.count("profiler_test_outer"), 1u);
    ASSERT_EQ(stages.count("profiler_test_inner"), 1u);
    EXPECT_GT(stages.at("profiler_test_inner").cycles, 0u);
    EXPECT_EQ(stages.at("profiler_test_inner").spans, 1u);
  } else {
    EXPECT_FALSE(inner_delta.ok);
    EXPECT_FALSE(outer_delta.ok);
    EXPECT_FALSE(obs::PerfCountersUnavailableReason().empty());
    // Degraded deltas must not pollute the aggregates.
    EXPECT_EQ(stages.count("profiler_test_outer"), 0u);
    EXPECT_EQ(stages.count("profiler_test_inner"), 0u);
  }
}

// Satellite: TG_FAULT=perf_open=always forces the no-PMU path even on
// hardware that has counters. The injected failure must surface as a clean
// ok=false reading on a thread whose group was not yet open -- never a
// crash or a silently-zero "ok" reading.
TEST_F(ObsProfilerTest, PerfOpenFaultInjectionDegradesCleanly) {
  ASSERT_TRUE(fault::InstallSpec("perf_open=always").ok());
  obs::SetPerfCountersEnabled(true);

  // A fresh thread has no open counter group, so its first read must hit
  // the fault site regardless of what earlier tests latched process-wide.
  obs::PerfCounterValues reading;
  std::thread probe([&reading] { reading = obs::ThreadPerfCounters(); });
  probe.join();
  EXPECT_FALSE(reading.ok);
  EXPECT_EQ(reading.cycles, 0u);

  // On a PMU-less machine (and in CI containers) nothing ever opened, so
  // the process-wide state is "unavailable" with a recorded reason.
  if (!obs::PerfCountersAvailable()) {
    EXPECT_STREQ(obs::PerfCountersStatusString(), "unavailable");
    EXPECT_FALSE(obs::PerfCountersUnavailableReason().empty());
    const std::string json = obs::PerfCountersStatusJson();
    EXPECT_TRUE(JsonValidate(json).ok()) << json;
    EXPECT_NE(json.find("unavailable"), std::string::npos) << json;
  }
  fault::ClearFaults();
}

TEST_F(ObsProfilerTest, StageAggregatesFeedJsonTableAndGauges) {
  obs::AccumulateStageCounters("profiler_test_stage",
                               MakeCounterDelta(1000, 2000, 100, 10));
  obs::AccumulateStageCounters("profiler_test_stage",
                               MakeCounterDelta(1000, 2000, 100, 10));

  const auto stages = obs::StagePerfSnapshot();
  ASSERT_EQ(stages.count("profiler_test_stage"), 1u);
  const obs::StagePerfTotals& totals = stages.at("profiler_test_stage");
  EXPECT_EQ(totals.cycles, 2000u);
  EXPECT_EQ(totals.instructions, 4000u);
  EXPECT_EQ(totals.spans, 2u);
  EXPECT_DOUBLE_EQ(totals.Ipc(), 2.0);
  EXPECT_DOUBLE_EQ(totals.CacheMissRate(), 0.1);

  // Gauges track the derived ratios for the metrics surface.
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::Instance()
                       .GetGauge("stage.profiler_test_stage.ipc")
                       .value(),
                   2.0);
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::Instance()
                       .GetGauge("stage.profiler_test_stage.cache_miss_rate")
                       .value(),
                   0.1);

  const std::string json = obs::StagePerfCountersJson();
  EXPECT_TRUE(JsonValidate(json).ok()) << json;
  EXPECT_NE(json.find("profiler_test_stage"), std::string::npos) << json;
  EXPECT_FALSE(obs::StagePerfTable().empty());

  // ok=false deltas are dropped, not zero-added.
  obs::PerfCounterValues degraded;  // ok defaults to false
  degraded.cycles = 999;
  obs::AccumulateStageCounters("profiler_test_degraded", degraded);
  EXPECT_EQ(obs::StagePerfSnapshot().count("profiler_test_degraded"), 0u);

  obs::ResetStagePerf();
  EXPECT_TRUE(obs::StagePerfSnapshot().empty());
  EXPECT_EQ(obs::StagePerfCountersJson(), "[]");
}

TEST_F(ObsProfilerTest, HistoryRoundTripsCounterTotals) {
  obs::BenchRun with_counters = MakeRun("abc1234", 2.0, 4.0);
  with_counters.stage_counters["graph_build"] =
      MakeStageTotals(200000000, 400000000, 5000000, 250000);
  obs::BenchRun without_counters = MakeRun("def5678", 2.1, 4.1);

  const std::string json =
      obs::HistoryToJson({with_counters, without_counters});
  ASSERT_TRUE(JsonValidate(json).ok()) << json;

  Result<std::vector<obs::BenchRun>> parsed = obs::ParseHistoryJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  const auto& restored = parsed.value()[0].stage_counters;
  ASSERT_EQ(restored.count("graph_build"), 1u);
  EXPECT_EQ(restored.at("graph_build").cycles, 200000000u);
  EXPECT_EQ(restored.at("graph_build").instructions, 400000000u);
  EXPECT_EQ(restored.at("graph_build").cache_misses, 250000u);
  // Runs without counters stay counter-less after the round trip, and
  // serialize without a "counters" key at all (schema-1 byte compat).
  EXPECT_TRUE(parsed.value()[1].stage_counters.empty());
  EXPECT_EQ(obs::HistoryToJson({without_counters}).find("counters"),
            std::string::npos);
}

// Satellite: `bench_history compare` must tolerate history entries written
// before the counter schema existed -- counter gates skip with a note, the
// wall-time gates still run, and nothing errors.
TEST_F(ObsProfilerTest, CompareToleratesRunsWithoutCounterFields) {
  const obs::BenchRun baseline = MakeRun("abc1234", 2.0, 4.0);  // no counters
  obs::BenchRun latest = MakeRun("def5678", 2.05, 4.05);
  latest.stage_counters["graph_build"] =
      MakeStageTotals(200000000, 400000000, 5000000, 250000);

  const obs::CompareReport report = obs::CompareHistory({baseline, latest});
  EXPECT_TRUE(report.ok) << report.Render();
  EXPECT_TRUE(report.counters.empty());
  bool noted = false;
  for (const std::string& note : report.notes) {
    if (note.find("counter gates skipped") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << report.Render();

  // An old-schema history document (no "counters" anywhere) still parses.
  const std::string old_schema =
      "{\"schema\": 1, \"runs\": [{\"timestamp\": \"2026-01-01T00:00:00Z\","
      " \"build_info\": {\"git_sha\": \"abc\", \"compiler\": \"GNU\","
      " \"flags\": \"\", \"build_type\": \"Release\","
      " \"sanitizer\": \"none\", \"cxx_standard\": 202002,"
      " \"tg_threads\": 4}, \"peak_rss_bytes\": 1024, \"timings\":"
      " [{\"component\": \"graph_build\", \"threads\": 4,"
      " \"wall_seconds\": 2.0}]}]}";
  Result<std::vector<obs::BenchRun>> parsed =
      obs::ParseHistoryJson(old_schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_TRUE(parsed.value()[0].stage_counters.empty());
  EXPECT_EQ(parsed.value()[0].stage_seconds.count("graph_build@4"), 1u);
}

TEST_F(ObsProfilerTest, CompareFlagsIpcAndCacheMissRegressions) {
  obs::BenchRun baseline = MakeRun("abc1234", 2.0, 4.0);
  baseline.stage_counters["graph_build"] =
      MakeStageTotals(200000000, 400000000, 10000000, 500000);  // IPC 2.0
  obs::BenchRun latest = MakeRun("def5678", 2.0, 4.0);
  latest.stage_counters["graph_build"] =
      MakeStageTotals(200000000, 260000000, 10000000, 500000);  // IPC 1.3

  // 1.3 / 2.0 = 0.65x the baseline IPC, under the 0.70 floor.
  obs::CompareReport report = obs::CompareHistory({baseline, latest});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.counters.size(), 1u);
  EXPECT_TRUE(report.counters[0].regressed);
  EXPECT_NEAR(report.counters[0].ipc_ratio, 0.65, 1e-12);
  EXPECT_NE(report.Render().find("graph_build"), std::string::npos);

  // 0.75x passes.
  latest.stage_counters["graph_build"] =
      MakeStageTotals(200000000, 300000000, 10000000, 500000);
  report = obs::CompareHistory({baseline, latest});
  EXPECT_TRUE(report.ok) << report.Render();

  // Cache-miss-rate gate: 2.1x the baseline miss rate fails, 1.9x passes.
  latest.stage_counters["graph_build"] =
      MakeStageTotals(200000000, 400000000, 10000000, 1050000);
  report = obs::CompareHistory({baseline, latest});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.counters.size(), 1u);
  EXPECT_TRUE(report.counters[0].regressed);
  EXPECT_NEAR(report.counters[0].miss_ratio, 2.1, 1e-12);
  latest.stage_counters["graph_build"] =
      MakeStageTotals(200000000, 400000000, 10000000, 950000);
  report = obs::CompareHistory({baseline, latest});
  EXPECT_TRUE(report.ok) << report.Render();

  // Stages under the cycle noise floor are skipped, not judged.
  obs::BenchRun tiny_baseline = MakeRun("abc1234", 2.0, 4.0);
  tiny_baseline.stage_counters["graph_build"] =
      MakeStageTotals(1000, 2000, 100, 10);
  obs::BenchRun tiny_latest = MakeRun("def5678", 2.0, 4.0);
  tiny_latest.stage_counters["graph_build"] =
      MakeStageTotals(1000, 500, 100, 99);
  report = obs::CompareHistory({tiny_baseline, tiny_latest});
  EXPECT_TRUE(report.ok) << report.Render();
  ASSERT_EQ(report.counters.size(), 1u);
  EXPECT_TRUE(report.counters[0].skipped_below_floor);
  EXPECT_FALSE(report.counters[0].regressed);
}

TEST_F(ObsProfilerTest, ChromeTraceCarriesProfilerSamples) {
  obs::SetTraceEnabled(true);
  SetThreadCount(2);
  ASSERT_TRUE(obs::StartProfiler(997).ok());
  ASSERT_GT(SampleBusySpan(), 0u);
  ASSERT_TRUE(obs::StopProfiler().ok());

  const std::string trace = obs::ChromeTraceJson();
  ASSERT_TRUE(JsonValidate(trace).ok());
  // The cumulative sample-count counter track rides along...
  EXPECT_NE(trace.find("profiler_samples"), std::string::npos);
  // ...and sampled spans carry their per-span sample count as an arg.
  EXPECT_NE(trace.find("profile_samples"), std::string::npos);
  EXPECT_NE(trace.find(kBusySpan), std::string::npos);
}

}  // namespace
}  // namespace tg
