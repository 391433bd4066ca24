// Memory-accounting and bench-history tests: span-level allocation
// attribution (inclusive of children), concurrent tracking under
// ParallelFor (TSan-clean), the determinism contract with tracking on, the
// resource sampler, build provenance, Gauge::Add accumulation from many
// threads, and the BENCH_history.json parse/serialize/compare cycle.
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "obs/bench_history.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/json_util.h"
#include "util/thread_pool.h"
#include "zoo/model_zoo.h"

namespace tg {
namespace {

// Allocates `bytes` through operator new and defeats dead-store elimination
// by touching the buffer.
void BurnHeap(size_t bytes) {
  std::unique_ptr<volatile char[]> buffer(new char[bytes]);
  buffer[0] = 1;
  buffer[bytes - 1] = 2;
}

std::vector<obs::SpanRecord> SpansNamed(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : spans) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

// Restores the default quiet state so test ordering does not matter.
class ObsMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override { Quiet(); }
  void TearDown() override { Quiet(); }

  static void Quiet() {
    obs::SetMemoryTrackingEnabled(false);
    obs::SetTraceEnabled(false);
    obs::SetMetricsEnabled(false);
    obs::ResetSpans();
    SetThreadCount(0);
  }
};

TEST_F(ObsMemoryTest, ThreadCountersTrackAllocations) {
  obs::SetMemoryTrackingEnabled(true);
  const obs::AllocStats before = obs::ThreadAllocStats();
  BurnHeap(1 << 20);
  const obs::AllocStats delta = obs::ThreadAllocStats() - before;
  EXPECT_GE(delta.bytes, 1u << 20);
  EXPECT_GE(delta.count, 1u);
}

TEST_F(ObsMemoryTest, DisabledTrackingFreezesCounters) {
  obs::SetMemoryTrackingEnabled(true);
  BurnHeap(4096);  // ensure this thread's counters exist
  obs::SetMemoryTrackingEnabled(false);
  const obs::AllocStats before = obs::ThreadAllocStats();
  BurnHeap(1 << 20);
  const obs::AllocStats delta = obs::ThreadAllocStats() - before;
  EXPECT_EQ(delta.bytes, 0u);
  EXPECT_EQ(delta.count, 0u);
}

// The CLI self-checks every --trace export with JsonValidate, and a sweep
// trace runs to hundreds of thousands of events, so validation must not
// build the document tree that JsonValue::Parse does.
TEST_F(ObsMemoryTest, JsonValidateAllocatesNothing) {
  std::string doc = "{\"traceEvents\": [";
  for (int i = 0; i < 1000; ++i) {
    if (i > 0) doc += ", ";
    doc += "{\"name\": \"split_search\", \"ph\": \"X\", \"ts\": " +
           std::to_string(i) + ".5, \"args\": {\"esc\": \"a\\u00e9\\n\"}}";
  }
  doc += "]}";
  obs::SetMemoryTrackingEnabled(true);
  BurnHeap(4096);  // ensure this thread's counters exist
  const obs::AllocStats before = obs::ThreadAllocStats();
  const Status valid = JsonValidate(doc);
  const obs::AllocStats validate = obs::ThreadAllocStats() - before;
  const bool parsed = JsonValue::Parse(doc).ok();
  const obs::AllocStats parse = obs::ThreadAllocStats() - before - validate;
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ASSERT_TRUE(parsed);
  EXPECT_EQ(validate.count, 0u);
  EXPECT_GT(parse.count, 1000u);
}

TEST_F(ObsMemoryTest, SpanRecordsAttributeAllocationsInclusively) {
  obs::SetMemoryTrackingEnabled(true);
  obs::SetTraceEnabled(true);
  {
    obs::Span outer("mem_outer");
    BurnHeap(1 << 20);  // 1 MiB directly in the outer span
    {
      obs::Span inner("mem_inner");
      BurnHeap(2 << 20);  // 2 MiB in the child
    }
  }
  const std::vector<obs::SpanRecord> spans = obs::SnapshotSpans();
  const auto outer_spans = SpansNamed(spans, "mem_outer");
  const auto inner_spans = SpansNamed(spans, "mem_inner");
  ASSERT_EQ(outer_spans.size(), 1u);
  ASSERT_EQ(inner_spans.size(), 1u);
  EXPECT_GE(inner_spans[0].alloc_bytes, 2u << 20);
  // Inclusive semantics: the outer span owns its own 1 MiB plus the child's.
  EXPECT_GE(outer_spans[0].alloc_bytes, (3u << 20));
  EXPECT_GE(outer_spans[0].allocs, inner_spans[0].allocs);
}

TEST_F(ObsMemoryTest, UntrackedSpansReportZero) {
  obs::SetTraceEnabled(true);  // tracing on, memory tracking off
  {
    obs::Span span("mem_untracked");
    BurnHeap(1 << 20);
  }
  const auto spans = SpansNamed(obs::SnapshotSpans(), "mem_untracked");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].alloc_bytes, 0u);
  EXPECT_EQ(spans[0].allocs, 0u);
}

TEST_F(ObsMemoryTest, StageAllocHistogramFedWhenMetricsEnabled) {
  obs::SetMemoryTrackingEnabled(true);
  obs::SetTraceEnabled(true);
  obs::SetMetricsEnabled(true);
  {
    obs::Span span("mem_histogram_stage");
    BurnHeap(1 << 20);
  }
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Instance().Snapshot();
  auto it = snapshot.histograms.find("stage.mem_histogram_stage.alloc_bytes");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_GE(it->second.count, 1u);
  EXPECT_GE(it->second.sum, static_cast<double>(1u << 20));
}

// Every worker allocates under tracking; the per-thread counters must not
// race (this binary runs under TSan in run_checks.sh) and the total must
// cover every allocation regardless of which pool thread performed it.
TEST_F(ObsMemoryTest, ConcurrentTrackingSumsAcrossThreads) {
  SetThreadCount(4);
  obs::SetMemoryTrackingEnabled(true);
  const obs::AllocStats before = obs::TotalAllocStats();
  constexpr size_t kTasks = 64;
  constexpr size_t kBytesPerTask = 64 * 1024;
  std::atomic<uint64_t> done{0};
  ParallelFor(0, kTasks, 1, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      BurnHeap(kBytesPerTask);
      done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const obs::AllocStats delta = obs::TotalAllocStats() - before;
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_GE(delta.bytes, kTasks * kBytesPerTask);
  EXPECT_GE(delta.count, kTasks);
}

// The determinism contract: allocation accounting must not perturb pipeline
// numerics. EvaluateAllTargetsResumable exercises the parallel
// leave-one-out sweep.
TEST_F(ObsMemoryTest, PipelineOutputsIdenticalWithTrackingOnOrOff) {
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

  obs::SetMemoryTrackingEnabled(true);
  obs::SetTraceEnabled(true);
  obs::SetMetricsEnabled(true);
  core::Pipeline tracked_pipeline(&zoo, zoo::Modality::kImage);
  const std::vector<core::TargetEvaluation> tracked =
      tracked_pipeline.EvaluateAllTargetsResumable(config, {}).evaluations;

  ASSERT_EQ(tracked.size(), quiet.size());
  for (size_t t = 0; t < quiet.size(); ++t) {
    ASSERT_EQ(tracked[t].predicted.size(), quiet[t].predicted.size());
    for (size_t i = 0; i < quiet[t].predicted.size(); ++i) {
      EXPECT_EQ(tracked[t].predicted[i], quiet[t].predicted[i])
          << "target " << t << " model " << i;
    }
    EXPECT_EQ(tracked[t].pearson, quiet[t].pearson) << "target " << t;
  }
}

TEST_F(ObsMemoryTest, ResourceUsageReadsProcSelf) {
  const obs::ResourceUsage usage = obs::ReadSelfResourceUsage();
  ASSERT_TRUE(usage.ok);
  EXPECT_GT(usage.rss_bytes, 0u);
  EXPECT_GE(usage.peak_rss_bytes, usage.rss_bytes);
}

TEST_F(ObsMemoryTest, ResourceSamplerCollectsSamples) {
  obs::ResourceSampler& sampler = obs::ResourceSampler::Instance();
  sampler.ClearSamples();
  obs::ResourceSamplerOptions options;
  options.interval_ms = 1;
  sampler.Start(options);
  // The loop takes a sample immediately, and Stop() takes a final one, so
  // no sleep is needed for a deterministic lower bound of two.
  sampler.Stop();
  const std::vector<obs::ResourceSample> samples = sampler.Samples();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_GT(samples.back().usage.rss_bytes, 0u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_ns, samples[i - 1].t_ns);
  }
  sampler.ClearSamples();
}

TEST_F(ObsMemoryTest, BuildInfoIsStamped) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());
  EXPECT_FALSE(info.sanitizer.empty());
  EXPECT_GE(info.cxx_standard, 202002L);  // the build is -std=c++20
  EXPECT_TRUE(JsonValidate(BuildInfoJson()).ok());
}

// Gauge::Add must accumulate fractional deltas from many threads without
// losing updates (C++20 atomic<double> fetch_add, or the CAS fallback).
TEST_F(ObsMemoryTest, GaugeAddAccumulatesAcrossThreads) {
  SetThreadCount(4);
  obs::Gauge& gauge =
      obs::MetricsRegistry::Instance().GetGauge("test.obs_memory.gauge_add");
  gauge.Set(0.0);
  constexpr size_t kUpdates = 1000;
  ParallelFor(0, kUpdates, 1, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) gauge.Add(0.25);
  });
  EXPECT_DOUBLE_EQ(gauge.value(), 0.25 * kUpdates);
}

// --- bench history ---

obs::BenchRun MakeRun(const std::string& sha, double graph_s, double gbdt_s,
                      uint64_t rss) {
  obs::BenchRun run;
  run.timestamp = "2026-01-01T00:00:00Z";
  run.git_sha = sha;
  run.compiler = "GNU 12.2.0";
  run.flags = "-O2";
  run.build_type = "Release";
  run.sanitizer = "none";
  run.tg_threads = 4;
  run.peak_rss_bytes = rss;
  run.stage_seconds["graph_build@4"] = graph_s;
  run.stage_seconds["gbdt_fit@4"] = gbdt_s;
  // Inside the fixed 0.38 s ceiling, so only the stage under test can fail.
  run.stage_seconds["random_forest_fit@1"] = 0.30;
  return run;
}

// Judges `latest` against `baseline` under the fixed gate policy.
obs::CompareReport Compare(const obs::BenchRun& baseline,
                           const obs::BenchRun& latest) {
  return obs::CompareHistory({baseline, latest});
}

// The delta for `stage`, or a test failure and a default delta.
obs::StageDelta FindStage(const obs::CompareReport& report,
                          const std::string& stage) {
  for (const obs::StageDelta& delta : report.stages) {
    if (delta.stage == stage) return delta;
  }
  ADD_FAILURE() << "no delta for " << stage;
  return {};
}

TEST(BenchHistoryTest, TimingsJsonParsesIntoRun) {
  const std::string json = R"({
    "build_info": {"git_sha": "abc1234", "compiler": "GNU 12.2.0",
                   "flags": "-O2", "build_type": "Release",
                   "sanitizer": "none", "cxx_standard": 202002,
                   "tg_threads": 8},
    "resources": {"peak_rss_bytes": 123456789, "rss_bytes": 100000000,
                  "major_faults": 3},
    "timings": [
      {"component": "graph_build", "threads": 8, "wall_seconds": 1.25},
      {"component": "skipgram", "threads": 1, "wall_seconds": 0.5}
    ],
    "metrics": {}
  })";
  Result<obs::BenchRun> run =
      obs::BenchRunFromTimingsJson(json, "2026-01-02T03:04:05Z");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().timestamp, "2026-01-02T03:04:05Z");
  EXPECT_EQ(run.value().git_sha, "abc1234");
  EXPECT_EQ(run.value().tg_threads, 8u);
  EXPECT_EQ(run.value().peak_rss_bytes, 123456789u);
  ASSERT_EQ(run.value().stage_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(run.value().stage_seconds.at("graph_build@8"), 1.25);
  EXPECT_DOUBLE_EQ(run.value().stage_seconds.at("skipgram@1"), 0.5);
}

TEST(BenchHistoryTest, MalformedTimingsRejected) {
  EXPECT_FALSE(obs::BenchRunFromTimingsJson("not json", "t").ok());
  EXPECT_FALSE(obs::BenchRunFromTimingsJson("{}", "t").ok());
  EXPECT_FALSE(
      obs::BenchRunFromTimingsJson(R"({"timings": [{"component": 3}]})", "t")
          .ok());
}

TEST(BenchHistoryTest, HistoryRoundTripsThroughJson) {
  std::vector<obs::BenchRun> runs = {MakeRun("aaa", 1.0, 2.0, 1000),
                                     MakeRun("bbb", 1.1, 1.9, 1100)};
  const std::string json = obs::HistoryToJson(runs);
  ASSERT_TRUE(JsonValidate(json).ok());
  Result<std::vector<obs::BenchRun>> parsed = obs::ParseHistoryJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[1].git_sha, "bbb");
  EXPECT_EQ(parsed.value()[0].peak_rss_bytes, 1000u);
  EXPECT_DOUBLE_EQ(parsed.value()[1].stage_seconds.at("graph_build@4"), 1.1);
  EXPECT_EQ(parsed.value()[0].tg_threads, 4u);
}

TEST(BenchHistoryTest, UnsupportedSchemaRejected) {
  EXPECT_FALSE(obs::ParseHistoryJson(R"({"schema": 99, "runs": []})").ok());
  EXPECT_FALSE(obs::ParseHistoryJson(R"({"runs": []})").ok());
}

TEST(BenchHistoryTest, CompareFlagsTimeRegression) {
  const obs::BenchRun baseline = MakeRun("aaa", 1.0, 2.0, 1000);
  const obs::BenchRun latest = MakeRun("bbb", 1.7, 2.0, 1000);  // 1.7x
  const obs::CompareReport report = Compare(baseline, latest);
  EXPECT_TRUE(report.has_baseline);
  EXPECT_FALSE(report.ok);
  size_t regressed = 0;
  for (const obs::StageDelta& delta : report.stages) {
    if (delta.regressed) {
      ++regressed;
      EXPECT_EQ(delta.stage, "graph_build@4");
      EXPECT_DOUBLE_EQ(delta.ratio, 1.7);
    }
  }
  EXPECT_EQ(regressed, 1u);
  EXPECT_NE(report.Render().find("REGRESSION"), std::string::npos);
}

TEST(BenchHistoryTest, ComparePassesOnImprovementAndNoise) {
  const obs::BenchRun baseline = MakeRun("aaa", 1.0, 2.0, 1000);
  // One stage 2x faster, the other 1.5x slower: inside the 1.60 ratio.
  const obs::BenchRun latest = MakeRun("bbb", 0.5, 3.0, 1000);
  const obs::CompareReport report = Compare(baseline, latest);
  EXPECT_TRUE(report.ok) << report.Render();
  EXPECT_NE(report.Render().find("bench-compare: OK"), std::string::npos);
}

TEST(BenchHistoryTest, CompareIgnoresStagesBelowNoiseFloor) {
  obs::BenchRun baseline = MakeRun("aaa", 1.0, 2.0, 1000);
  obs::BenchRun latest = MakeRun("bbb", 1.0, 2.0, 1000);
  baseline.stage_seconds["tiny@4"] = 0.04;  // under the 0.05 s floor
  latest.stage_seconds["tiny@4"] = 0.4;     // 10x, but scheduler noise
  obs::CompareReport report = Compare(baseline, latest);
  EXPECT_TRUE(report.ok) << report.Render();
  EXPECT_TRUE(FindStage(report, "tiny@4").skipped_below_floor);
  EXPECT_FALSE(FindStage(report, "tiny@4").regressed);

  // A baseline at the floor is judged.
  baseline.stage_seconds["tiny@4"] = 0.05;
  latest.stage_seconds["tiny@4"] = 0.1;
  report = Compare(baseline, latest);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(FindStage(report, "tiny@4").skipped_below_floor);
  EXPECT_TRUE(FindStage(report, "tiny@4").regressed);
}

TEST(BenchHistoryTest, PinnedStagesFailPastTheirTighterRatio) {
  obs::BenchRun baseline = MakeRun("aaa", 1.0, 2.0, 1000);
  obs::BenchRun latest = MakeRun("bbb", 1.3, 2.0, 1000);
  baseline.stage_seconds["skipgram_sharded@1"] = 0.5;
  latest.stage_seconds["skipgram_sharded@1"] = 0.65;  // 1.3x > 1.25 pin
  obs::CompareReport report = Compare(baseline, latest);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(FindStage(report, "skipgram_sharded@1").regressed);
  // The same 1.3x on an unpinned stage is inside the 1.60 ratio.
  EXPECT_FALSE(FindStage(report, "graph_build@4").regressed);

  // Pinned stages skip the noise floor: 0.02 s -> 0.03 s still fails.
  latest.stage_seconds["skipgram_sharded@1"] = 0.6;  // 1.2x passes
  baseline.stage_seconds["random_forest_fit@1"] = 0.02;
  latest.stage_seconds["random_forest_fit@1"] = 0.03;
  report = Compare(baseline, latest);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(FindStage(report, "skipgram_sharded@1").regressed);
  EXPECT_FALSE(FindStage(report, "random_forest_fit@1").skipped_below_floor);
  EXPECT_TRUE(FindStage(report, "random_forest_fit@1").regressed);
}

TEST(BenchHistoryTest, StageCeilingPassesUnderAndFailsOver) {
  // The ceiling needs no baseline: a one-run history is judged by it.
  obs::BenchRun only = MakeRun("aaa", 1.0, 2.0, 1000);
  only.stage_seconds["random_forest_fit@1"] = 0.37;
  obs::CompareReport report = obs::CompareHistory({only});
  EXPECT_FALSE(report.has_baseline);
  EXPECT_TRUE(report.ok) << report.Render();
  ASSERT_EQ(report.ceilings.size(), 1u);
  EXPECT_EQ(report.ceilings[0].stage, "random_forest_fit@1");
  EXPECT_DOUBLE_EQ(report.ceilings[0].ceiling_seconds, 0.38);
  EXPECT_DOUBLE_EQ(report.ceilings[0].latest_seconds, 0.37);
  EXPECT_FALSE(report.ceilings[0].regressed);
  EXPECT_NE(report.Render().find("ceiling"), std::string::npos);

  only.stage_seconds["random_forest_fit@1"] = 0.45;
  report = obs::CompareHistory({only});
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.ceilings[0].regressed);
  EXPECT_NE(report.Render().find("REGRESSION"), std::string::npos);

  // The ceiling binds on the latest run even when the ratio gate passes:
  // 0.5 s -> 0.39 s is a 0.78x improvement, yet over 0.38 s.
  obs::BenchRun slow_baseline = MakeRun("bbb", 1.0, 2.0, 1000);
  slow_baseline.stage_seconds["random_forest_fit@1"] = 0.5;
  only.stage_seconds["random_forest_fit@1"] = 0.39;
  report = Compare(slow_baseline, only);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(FindStage(report, "random_forest_fit@1").regressed);
  ASSERT_EQ(report.ceilings.size(), 1u);
  EXPECT_TRUE(report.ceilings[0].regressed);
  EXPECT_FALSE(report.ceilings[0].missing);
}

TEST(BenchHistoryTest, StageCeilingMissingStageRegresses) {
  // A gate whose stage vanished from the bench is a silent gap, not a pass.
  const obs::BenchRun baseline = MakeRun("aaa", 1.0, 2.0, 1000);
  obs::BenchRun latest = MakeRun("bbb", 1.0, 2.0, 1000);
  latest.stage_seconds.erase("random_forest_fit@1");
  for (const obs::CompareReport& report :
       {Compare(baseline, latest), obs::CompareHistory({latest})}) {
    EXPECT_FALSE(report.ok);
    ASSERT_EQ(report.ceilings.size(), 1u);
    EXPECT_TRUE(report.ceilings[0].missing);
    EXPECT_TRUE(report.ceilings[0].regressed);
    EXPECT_NE(report.Render().find("missing"), std::string::npos);
  }
}

TEST(BenchHistoryTest, CompareFlagsRssRegression) {
  const obs::BenchRun baseline = MakeRun("aaa", 1.0, 2.0, 1000);
  const obs::BenchRun latest = MakeRun("bbb", 1.0, 2.0, 1600);  // 1.6x RSS
  const obs::CompareReport report = Compare(baseline, latest);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.rss_regressed);
  EXPECT_DOUBLE_EQ(report.rss_ratio, 1.6);
}

TEST(BenchHistoryTest, CompareNotesBuildMismatchWithoutFailing) {
  const obs::BenchRun baseline = MakeRun("aaa", 1.0, 2.0, 1000);
  obs::BenchRun latest = MakeRun("bbb", 1.0, 2.0, 1000);
  latest.sanitizer = "thread";
  const obs::CompareReport report = Compare(baseline, latest);
  EXPECT_TRUE(report.ok);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("build stamps differ"), std::string::npos);
}

TEST(BenchHistoryTest, EmptyHistoryPasses) {
  const obs::CompareReport report = obs::CompareHistory({});
  EXPECT_FALSE(report.has_baseline);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.ceilings.empty());
  EXPECT_NE(report.Render().find("no baseline"), std::string::npos);
}

TEST(BenchHistoryTest, StageSetChangesAreNotedNotFailed) {
  obs::BenchRun baseline = MakeRun("aaa", 1.0, 2.0, 1000);
  obs::BenchRun latest = MakeRun("bbb", 1.0, 2.0, 1000);
  baseline.stage_seconds["removed@4"] = 1.0;
  latest.stage_seconds["added@4"] = 1.0;
  const obs::CompareReport report = Compare(baseline, latest);
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.only_in_baseline.size(), 1u);
  ASSERT_EQ(report.only_in_latest.size(), 1u);
  EXPECT_EQ(report.only_in_baseline[0], "removed@4");
  EXPECT_EQ(report.only_in_latest[0], "added@4");
}

}  // namespace
}  // namespace tg
