// Structured event-log tests (obs/event_log.h), the live view of a running
// sweep: strict JSON records with span chains, tids shared with the tracer,
// token-bucket shedding accounting, log-line routing, the sweep progress
// events (sweep.begin / sweep.target_end / sweep.end) agreeing with the
// SweepResult, and the determinism contract -- sweep outputs bit-identical
// with the log on or off.
#include <cstdio>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/json_util.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "zoo/model_zoo.h"

namespace tg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

// The small image zoo and metadata-only linear strategy the sweep tests
// share: every target runs, and a sweep takes well under a second.
zoo::ModelZooConfig SmallZooConfig() {
  zoo::ModelZooConfig zoo_config;
  zoo_config.catalog.num_image_models = 48;
  zoo_config.catalog.num_text_models = 24;
  zoo_config.world.max_samples_per_dataset = 80;
  return zoo_config;
}

core::PipelineConfig MetadataLinearConfig() {
  core::PipelineConfig config;
  config.strategy = core::Strategy{core::PredictorKind::kLinearRegression,
                                   core::GraphLearner::kNone,
                                   core::FeatureSet::kMetadataOnly};
  return config;
}

// Every test restores the quiet default state so suite ordering never
// matters (the same discipline as ObsTest).
class ObsEventLogTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::StopEventLog();
    obs::SetTraceEnabled(false);
    obs::SetMetricsEnabled(false);
    fault::ClearFaults();
    SetThreadCount(0);
  }
};

TEST_F(ObsEventLogTest, EventLogRecordsAreStrictJsonWithSpanChains) {
  const std::string path = TempPath("event_log_records.jsonl");
  obs::EventLogOptions options;
  options.span_threshold_ms = 0.0;  // every span close is logged
  options.flush_interval_ms = 5;
  ASSERT_TRUE(obs::StartEventLog(path, options).ok());
  EXPECT_FALSE(obs::StartEventLog(path, options).ok());  // already running

  TG_LOG(Error) << "structured line " << 42;
  {
    obs::Span outer("event_log_test_outer");
    obs::Span inner("event_log_test_inner");
    TG_LOG(Error) << "nested line";
    obs::EmitEvent("event_log_test.event", "payload", "extra");
  }
  obs::StopEventLog();
  obs::StopEventLog();  // idempotent

  const std::string content = ReadWholeFile(path);
  std::istringstream lines(content);
  std::string line;
  size_t records = 0;
  bool saw_log = false;
  bool saw_span = false;
  bool saw_event = false;
  bool saw_nested_chain = false;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(JsonValidate(line).ok()) << line;
    Result<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok());
    const JsonValue& record = parsed.value();
    ++records;
    ASSERT_NE(record.Find("ts_ns"), nullptr) << line;
    ASSERT_NE(record.Find("tid"), nullptr) << line;
    ASSERT_NE(record.Find("spans"), nullptr) << line;
    const std::string kind = record.Find("kind")->AsString();
    if (kind == "log") {
      saw_log = true;
      EXPECT_EQ(record.Find("level")->AsString(), "ERROR");
      EXPECT_NE(record.Find("file"), nullptr);
      EXPECT_NE(record.Find("line"), nullptr);
      if (record.Find("msg")->AsString() == "nested line") {
        const JsonValue* spans = record.Find("spans");
        ASSERT_EQ(spans->size(), 2u) << line;
        EXPECT_EQ(spans->at(0).AsString(), "event_log_test_outer");
        EXPECT_EQ(spans->at(1).AsString(), "event_log_test_inner");
        saw_nested_chain = true;
      }
    } else if (kind == "span") {
      saw_span = true;
      EXPECT_NE(record.Find("name"), nullptr);
      EXPECT_NE(record.Find("dur_ns"), nullptr);
    } else if (kind == "event_log_test.event") {
      saw_event = true;
      EXPECT_EQ(record.Find("msg")->AsString(), "payload");
      EXPECT_EQ(record.Find("detail")->AsString(), "extra");
    }
  }
  EXPECT_GE(records, 5u);
  EXPECT_TRUE(saw_log);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_event);
  EXPECT_TRUE(saw_nested_chain);
}

// Spans and event-log lines share one per-thread state, so an event's
// "tid" names the thread ThreadNames() gives for it. The threads
// register with the tracer in one order and first emit events in the
// other, so any numbering private to the event log would disagree.
TEST_F(ObsEventLogTest, EventLogTidMatchesTracerThreadNames) {
  const std::string path = TempPath("event_log_tids.jsonl");
  obs::EventLogOptions options;
  options.flush_interval_ms = 5;
  ASSERT_TRUE(obs::StartEventLog(path, options).ok());
  std::promise<void> first_named;
  std::promise<void> second_emitted;
  std::thread first([&] {
    obs::SetCurrentThreadName("tid_probe_first");
    first_named.set_value();
    second_emitted.get_future().wait();
    obs::EmitEvent("event_log_test.tid_probe", "tid_probe_first");
  });
  first_named.get_future().wait();
  std::thread second([&] {
    obs::SetCurrentThreadName("tid_probe_second");
    obs::EmitEvent("event_log_test.tid_probe", "tid_probe_second");
    second_emitted.set_value();
  });
  second.join();
  first.join();
  obs::StopEventLog();

  std::map<uint32_t, std::string> names;
  for (const auto& [tid, name] : obs::ThreadNames()) names[tid] = name;
  std::istringstream lines(ReadWholeFile(path));
  std::string line;
  size_t probes = 0;
  while (std::getline(lines, line)) {
    Result<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const JsonValue& record = parsed.value();
    if (record.Find("kind")->AsString() != "event_log_test.tid_probe") {
      continue;
    }
    ++probes;
    const auto tid = static_cast<uint32_t>(record.Find("tid")->AsDouble());
    ASSERT_EQ(names.count(tid), 1u) << line;
    EXPECT_EQ(names[tid], record.Find("msg")->AsString()) << line;
  }
  EXPECT_EQ(probes, 2u);
}

TEST_F(ObsEventLogTest, RateLimiterShedsAndCountsDrops) {
  const std::string path = TempPath("event_log_shed.jsonl");
  obs::EventLogOptions options;
  options.rate_per_sec = 1.0;  // essentially no refill during the test
  options.burst = 10.0;
  options.flush_interval_ms = 5;
  const uint64_t emitted_before = obs::EventLogEmittedCount();
  const uint64_t dropped_before = obs::EventLogDroppedCount();
  ASSERT_TRUE(obs::StartEventLog(path, options).ok());
  constexpr int kBursts = 200;
  for (int i = 0; i < kBursts; ++i) {
    obs::EmitEvent("event_log_test.flood", std::to_string(i));
  }
  obs::StopEventLog();
  const uint64_t emitted = obs::EventLogEmittedCount() - emitted_before;
  const uint64_t dropped = obs::EventLogDroppedCount() - dropped_before;
  // Every emission was either accepted or counted as shed...
  EXPECT_EQ(emitted + dropped, static_cast<uint64_t>(kBursts));
  // ...and the bucket admitted at most burst (+1 for refill slack).
  EXPECT_LE(emitted, 11u);
  EXPECT_GE(dropped, 189u);

  // The file holds exactly the accepted records.
  const std::string content = ReadWholeFile(path);
  std::istringstream lines(content);
  std::string line;
  uint64_t written = 0;
  while (std::getline(lines, line)) ++written;
  EXPECT_EQ(written, emitted);
}

TEST_F(ObsEventLogTest, LogLinesRouteToEventLogNotStderrWhenEnabled) {
  const std::string path = TempPath("event_log_routed.jsonl");
  ASSERT_TRUE(obs::StartEventLog(path, obs::EventLogOptions{}).ok());
  TG_LOG(Error) << "routed through the structured log";
  obs::StopEventLog();
  const std::string content = ReadWholeFile(path);
  EXPECT_NE(content.find("routed through the structured log"),
            std::string::npos);
  // After Stop the sink is uninstalled: logging falls back to stderr and
  // the file no longer grows.
  TG_LOG(Error) << "back on stderr";
  EXPECT_EQ(ReadWholeFile(path).find("back on stderr"), std::string::npos);
}

// --- Sweep progress ----------------------------------------------------------

// The event log is how a running sweep is watched, so its progress events
// must agree with the result: one sweep.begin, one sweep.target_end per
// target whose detail is the target's outcome, and one sweep.end carrying
// the SweepResult counts. Injected faults make one sweep degrade a target
// and another fail targets, so every outcome appears.
TEST_F(ObsEventLogTest, SweepProgressIsInTheEventLog) {
  zoo::ModelZoo zoo(SmallZooConfig());
  core::Pipeline pipeline(&zoo, zoo::Modality::kImage);
  const core::PipelineConfig config = MetadataLinearConfig();

  std::set<std::string> outcomes_seen;
  for (const char* spec :
       {"pipeline.target=hit:2", "pipeline.target=after:6"}) {
    SCOPED_TRACE(spec);
    const std::string path = TempPath("event_log_sweep_progress.jsonl");
    ASSERT_TRUE(obs::StartEventLog(path, obs::EventLogOptions{}).ok());
    ASSERT_TRUE(fault::InstallSpec(spec).ok());
    const core::SweepResult result =
        pipeline.EvaluateAllTargetsResumable(config, core::SweepOptions{});
    fault::ClearFaults();
    obs::StopEventLog();

    std::map<std::string, std::string> expected_outcome;
    for (const core::TargetEvaluation& eval : result.evaluations) {
      expected_outcome[eval.target_name] =
          eval.failed ? "failed" : (eval.degraded ? "degraded" : "ok");
    }
    ASSERT_EQ(expected_outcome.size(), result.evaluations.size());

    size_t begins = 0;
    size_t ends = 0;
    std::map<std::string, std::string> outcome;
    std::string end_message;
    std::istringstream lines(ReadWholeFile(path));
    std::string line;
    while (std::getline(lines, line)) {
      Result<JsonValue> parsed = JsonValue::Parse(line);
      ASSERT_TRUE(parsed.ok()) << line;
      const JsonValue& record = parsed.value();
      const std::string kind = record.Find("kind")->AsString();
      if (kind == "sweep.begin") {
        ++begins;
      } else if (kind == "sweep.target_end") {
        const std::string target = record.Find("msg")->AsString();
        EXPECT_EQ(outcome.count(target), 0u) << "second end for " << target;
        outcome[target] = record.Find("detail")->AsString();
        outcomes_seen.insert(outcome[target]);
      } else if (kind == "sweep.end") {
        ++ends;
        end_message = record.Find("msg")->AsString();
      }
    }
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
    EXPECT_EQ(outcome, expected_outcome);
    EXPECT_EQ(end_message,
              std::to_string(result.evaluations.size()) + " targets, " +
                  std::to_string(result.retried) + " retried, " +
                  std::to_string(result.degraded) + " degraded, " +
                  std::to_string(result.failed) + " failed");
  }
  EXPECT_EQ(outcomes_seen, (std::set<std::string>{"degraded", "failed", "ok"}));
}

// --- Determinism -------------------------------------------------------------

TEST_F(ObsEventLogTest, SweepIsBitIdenticalWithEventLogOn) {
  zoo::ModelZoo zoo(SmallZooConfig());
  core::Pipeline pipeline(&zoo, zoo::Modality::kImage);
  const core::PipelineConfig config = MetadataLinearConfig();

  const core::SweepResult baseline =
      pipeline.EvaluateAllTargetsResumable(config, core::SweepOptions{});

  // Event log on with a zero span threshold, so every span close is logged.
  obs::EventLogOptions options;
  options.span_threshold_ms = 0.0;
  ASSERT_TRUE(
      obs::StartEventLog(TempPath("event_log_determinism.jsonl"), options)
          .ok());
  const core::SweepResult logged =
      pipeline.EvaluateAllTargetsResumable(config, core::SweepOptions{});
  obs::StopEventLog();

  ASSERT_EQ(baseline.evaluations.size(), logged.evaluations.size());
  for (size_t i = 0; i < baseline.evaluations.size(); ++i) {
    const core::TargetEvaluation& a = baseline.evaluations[i];
    const core::TargetEvaluation& b = logged.evaluations[i];
    EXPECT_EQ(a.target_name, b.target_name);
    EXPECT_EQ(a.model_indices, b.model_indices) << a.target_name;
    EXPECT_EQ(a.predicted, b.predicted) << a.target_name;
    EXPECT_EQ(a.actual, b.actual) << a.target_name;
    EXPECT_EQ(a.pearson, b.pearson) << a.target_name;
    EXPECT_EQ(a.spearman, b.spearman) << a.target_name;
  }
}

}  // namespace
}  // namespace tg
