// Chaos tests for the resumable leave-one-out sweep: checkpoint resume must
// be bit-identical to an uninterrupted run at any thread count, randomized
// fault schedules must never crash the sweep or tear an artifact, and a
// fault-free rerun after chaos must reproduce the reference exactly. A
// drained sweep resumes to the same bits, and two processes writing one
// checkpoint path never tear it.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/sweep_checkpoint.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace tg::core {
namespace {

// TSan instruments the allocator with process-wide locks; forking while any
// instrumented thread exists can deadlock the child. The fork-based race
// runs under the plain and ASan builds instead. GCC marks a TSan build with
// __SANITIZE_THREAD__, Clang with __has_feature(thread_sanitizer).
#if defined(__SANITIZE_THREAD__)
#define TG_SKIP_FORK_TESTS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TG_SKIP_FORK_TESTS 1
#endif
#endif

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

class ChaosPipelineTest : public ::testing::Test {
 protected:
  ChaosPipelineTest() {
    zoo::ModelZooConfig config;
    config.catalog.num_image_models = 48;
    config.catalog.num_text_models = 24;
    config.world.max_samples_per_dataset = 80;
    zoo_ = std::make_unique<zoo::ModelZoo>(config);
    pipeline_ = std::make_unique<Pipeline>(zoo_.get(), zoo::Modality::kImage);
  }

  ~ChaosPipelineTest() override {
    fault::ClearFaults();
    ClearSweepDrain();
    SetThreadCount(0);  // restore the default policy for later tests
  }

  // Cheap sweep config: metadata features need no graph or embeddings, so
  // the 8-target sweep stays fast enough to repeat under chaos schedules.
  static PipelineConfig FastConfig() {
    PipelineConfig config;
    config.strategy = Strategy{PredictorKind::kLinearRegression,
                               GraphLearner::kNone,
                               FeatureSet::kMetadataOnly};
    return config;
  }

  // The reference every sweep must reproduce: EvaluateTarget called
  // directly, once per evaluation target, outside any sweep loop.
  std::vector<TargetEvaluation> PerTargetReference(
      const PipelineConfig& config) {
    std::vector<TargetEvaluation> evals;
    for (size_t target : zoo_->EvaluationTargets(zoo::Modality::kImage)) {
      evals.push_back(pipeline_->EvaluateTarget(config, target));
    }
    return evals;
  }

  static void ExpectBitIdentical(const std::vector<TargetEvaluation>& a,
                                 const std::vector<TargetEvaluation>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].target_dataset, b[i].target_dataset);
      EXPECT_EQ(a[i].target_name, b[i].target_name);
      EXPECT_EQ(a[i].model_indices, b[i].model_indices) << a[i].target_name;
      EXPECT_EQ(a[i].predicted, b[i].predicted) << a[i].target_name;
      EXPECT_EQ(a[i].actual, b[i].actual) << a[i].target_name;
      EXPECT_EQ(a[i].pearson, b[i].pearson) << a[i].target_name;
      EXPECT_EQ(a[i].spearman, b[i].spearman) << a[i].target_name;
    }
  }

  std::unique_ptr<zoo::ModelZoo> zoo_;
  std::unique_ptr<Pipeline> pipeline_;
};

TEST_F(ChaosPipelineTest, SweepWithDefaultsMatchesPerTargetEvaluation) {
  const PipelineConfig config = FastConfig();
  const std::vector<TargetEvaluation> plain = PerTargetReference(config);
  const SweepResult resumable =
      pipeline_->EvaluateAllTargetsResumable(config, SweepOptions{});
  EXPECT_TRUE(resumable.complete);
  EXPECT_EQ(resumable.resumed, 0u);
  EXPECT_EQ(resumable.retried, 0u);
  ExpectBitIdentical(plain, resumable.evaluations);
}

TEST_F(ChaosPipelineTest, CheckpointRoundTripsEvaluations) {
  const PipelineConfig config = FastConfig();
  SweepResult reference =
      pipeline_->EvaluateAllTargetsResumable(config, SweepOptions{});
  SweepCheckpoint checkpoint;
  checkpoint.build_git_sha = "test-sha";
  checkpoint.fingerprint =
      SweepFingerprint(config, zoo::Modality::kImage);
  checkpoint.targets = reference.evaluations;
  const std::string path = TempPath("checkpoint_roundtrip.json");
  ASSERT_TRUE(SaveSweepCheckpoint(path, checkpoint).ok());
  Result<SweepCheckpoint> loaded = LoadSweepCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().build_git_sha, "test-sha");
  EXPECT_EQ(loaded.value().fingerprint, checkpoint.fingerprint);
  ExpectBitIdentical(reference.evaluations, loaded.value().targets);

  EXPECT_FALSE(LoadSweepCheckpoint(TempPath("missing.json")).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "{\"schema\":999}").ok());
  EXPECT_FALSE(LoadSweepCheckpoint(path).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "{torn").ok());
  EXPECT_FALSE(LoadSweepCheckpoint(path).ok());

  // Numbers out of range for their field, or a degraded flag that is not a
  // bool, must be refused rather than cast into some other target's entry.
  auto checkpoint_with = [](const std::string& dataset,
                            const std::string& retries,
                            const std::string& index,
                            const std::string& degraded) {
    return "{\"schema\":1,\"build_git_sha\":\"s\",\"fingerprint\":\"f\","
           "\"targets\":[{\"target_dataset\":" + dataset +
           ",\"target_name\":\"t\",\"degraded\":" + degraded +
           ",\"retries\":" + retries + ",\"model_indices\":[0," + index +
           ",2],\"predicted\":[0.1,0.2,0.3],\"actual\":[0.3,0.1,0.2]}]}";
  };
  ASSERT_TRUE(
      WriteFileAtomic(path, checkpoint_with("3", "1", "7", "true")).ok());
  Result<SweepCheckpoint> valid = LoadSweepCheckpoint(path);
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  ASSERT_EQ(valid.value().targets.size(), 1u);
  EXPECT_EQ(valid.value().targets[0].target_dataset, 3u);
  EXPECT_EQ(valid.value().targets[0].retries, 1);
  EXPECT_TRUE(valid.value().targets[0].degraded);
  EXPECT_EQ(valid.value().targets[0].model_indices,
            (std::vector<size_t>{0, 7, 2}));
  const std::string malformed[] = {
      checkpoint_with("1e300", "1", "7", "true"),
      checkpoint_with("9007199254740992", "1", "7", "true"),
      checkpoint_with("-1", "1", "7", "true"),
      checkpoint_with("2.5", "1", "7", "true"),
      checkpoint_with("3", "1e300", "7", "true"),
      checkpoint_with("3", "-7", "7", "true"),
      checkpoint_with("3", "2147483648", "7", "true"),
      checkpoint_with("3", "0.5", "7", "true"),
      checkpoint_with("3", "1", "1e300", "true"),
      checkpoint_with("3", "1", "-1", "true"),
      checkpoint_with("3", "1", "7", "\"yes\""),
      checkpoint_with("3", "1", "7", "1"),
  };
  for (const std::string& json : malformed) {
    ASSERT_TRUE(WriteFileAtomic(path, json).ok());
    EXPECT_FALSE(LoadSweepCheckpoint(path).ok()) << json;
  }
}

TEST_F(ChaosPipelineTest, ResumeIsBitIdenticalAcrossThreadCounts) {
  const PipelineConfig config = FastConfig();
  const std::vector<TargetEvaluation> reference = PerTargetReference(config);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetThreadCount(threads);
    const std::string path = TempPath(
        "checkpoint_resume_" + std::to_string(threads) + ".json");
    std::remove(path.c_str());

    // Interrupted first pass: after 3 completed targets, every further
    // attempt dies before evaluation; degradation is off, so the failed
    // targets stay un-checkpointed.
    SweepOptions options;
    options.checkpoint_path = path;
    options.degrade_on_failure = false;
    ASSERT_TRUE(fault::InstallSpec("pipeline.target=after:3").ok());
    const SweepResult interrupted =
        pipeline_->EvaluateAllTargetsResumable(config, options);
    fault::ClearFaults();
    EXPECT_FALSE(interrupted.complete);
    EXPECT_GT(interrupted.failed, 0u);
    ASSERT_TRUE(FileExists(path)) << "completed targets must be checkpointed";

    // Second pass: resumes the completed targets, computes the rest.
    const SweepResult resumed =
        pipeline_->EvaluateAllTargetsResumable(config, options);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.resumed, 3u);
    ExpectBitIdentical(reference, resumed.evaluations);
  }
}

// A drain requested before the sweep (as tg_cli's SIGTERM handler does)
// stops it before any target starts; clearing the drain and rerunning with
// the same checkpoint completes the sweep with the uninterrupted bits.
TEST_F(ChaosPipelineTest, DrainedSweepResumesBitIdentical) {
  const PipelineConfig config = FastConfig();
  const std::vector<TargetEvaluation> reference = PerTargetReference(config);
  const std::string path = TempPath("checkpoint_drain.json");
  std::remove(path.c_str());
  SweepOptions options;
  options.checkpoint_path = path;

  RequestSweepDrain();
  const SweepResult drained =
      pipeline_->EvaluateAllTargetsResumable(config, options);
  EXPECT_TRUE(drained.drained);
  EXPECT_FALSE(drained.complete);
  EXPECT_EQ(drained.failed, 0u);
  for (const TargetEvaluation& eval : drained.evaluations) {
    EXPECT_TRUE(eval.predicted.empty()) << eval.target_name;
  }
  EXPECT_FALSE(FileExists(path)) << "no target finished, nothing to save";

  ClearSweepDrain();
  const SweepResult resumed =
      pipeline_->EvaluateAllTargetsResumable(config, options);
  EXPECT_FALSE(resumed.drained);
  EXPECT_TRUE(resumed.complete);
  ExpectBitIdentical(reference, resumed.evaluations);
}

TEST_F(ChaosPipelineTest, StaleCheckpointIsIgnoredOnConfigChange) {
  PipelineConfig config = FastConfig();
  const std::string path = TempPath("checkpoint_stale.json");
  std::remove(path.c_str());
  SweepOptions options;
  options.checkpoint_path = path;
  const SweepResult first =
      pipeline_->EvaluateAllTargetsResumable(config, options);
  EXPECT_TRUE(first.complete);
  ASSERT_TRUE(FileExists(path));

  config.seed += 1;  // different sweep: the old checkpoint must not splice in
  const SweepResult second =
      pipeline_->EvaluateAllTargetsResumable(config, options);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.resumed, 0u);
}

TEST_F(ChaosPipelineTest, DegradedRetryKeepsSweepComplete) {
  const PipelineConfig config = FastConfig();
  // Every first attempt at each target fails; the metadata-only retry (the
  // same strategy here, but a fresh attempt after the once-latched fault
  // cleared) must rescue the sweep.
  ASSERT_TRUE(fault::InstallSpec("pipeline.target=hit:1").ok());
  const SweepResult result =
      pipeline_->EvaluateAllTargetsResumable(config, SweepOptions{});
  fault::ClearFaults();
  EXPECT_TRUE(result.complete) << "degraded retry should rescue the target";
  EXPECT_EQ(result.retried, 1u);
  EXPECT_EQ(result.degraded, 1u);
  size_t degraded_count = 0;
  for (const TargetEvaluation& eval : result.evaluations) {
    EXPECT_FALSE(eval.failed);
    if (eval.degraded) {
      ++degraded_count;
      EXPECT_EQ(eval.retries, 1);
    }
  }
  EXPECT_EQ(degraded_count, 1u);
}

TEST_F(ChaosPipelineTest, RandomizedChaosSchedulesNeverCrashOrTear) {
  const PipelineConfig config = FastConfig();
  const std::vector<TargetEvaluation> reference = PerTargetReference(config);
  const std::string path = TempPath("checkpoint_chaos.json");

  // Deterministic "randomized" schedules: seeded probability rules across
  // every fault site the sweep traverses. alloc is excluded -- an injected
  // bad_alloc surfacing in a destructor would terminate by design.
  const char* schedules[] = {
      "pipeline.target=prob:0.4:seed:1;checkpoint.write=prob:0.3:seed:2",
      "thread_pool.dispatch=prob:0.05:seed:3",
      "atomic_file.write=prob:0.5:seed:4;pipeline.target=prob:0.2:seed:5",
      "checkpoint.read=always;pipeline.target=prob:0.5:seed:6",
      "atomic_file.crash_before_rename=prob:0.5:seed:7",
      "thread_pool.dispatch=prob:0.02:seed:8;"
      "checkpoint.write=prob:0.5:seed:9;pipeline.target=prob:0.3:seed:10",
  };
  for (const char* schedule : schedules) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    SweepOptions options;
    options.checkpoint_path = path;
    ASSERT_TRUE(fault::InstallSpec(schedule).ok()) << schedule;
    const SweepResult chaotic =
        pipeline_->EvaluateAllTargetsResumable(config, options);
    fault::ClearFaults();

    // No crash (we got here), every slot accounted for, and any evaluation
    // that did complete is bit-identical to the reference run.
    ASSERT_EQ(chaotic.evaluations.size(), reference.size()) << schedule;
    for (size_t i = 0; i < chaotic.evaluations.size(); ++i) {
      const TargetEvaluation& eval = chaotic.evaluations[i];
      if (eval.failed) continue;
      EXPECT_EQ(eval.predicted, reference[i].predicted)
          << schedule << " corrupted " << eval.target_name;
    }

    // The checkpoint is either absent or loadable -- never torn. (A
    // crash_before_rename fault leaves a .tmp, which must never shadow the
    // real file.)
    if (FileExists(path)) {
      Result<SweepCheckpoint> loaded = LoadSweepCheckpoint(path);
      EXPECT_TRUE(loaded.ok())
          << schedule << " tore the checkpoint: "
          << loaded.status().ToString();
    }
  }

  // Fault-free rerun from scratch: bit-identical to the reference.
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  const SweepResult clean =
      pipeline_->EvaluateAllTargetsResumable(config, SweepOptions{});
  EXPECT_TRUE(clean.complete);
  ExpectBitIdentical(reference, clean.evaluations);
}

// Two processes hammering SaveSweepCheckpoint on one path (two sweeps given
// one --checkpoint): every concurrent read must see a complete, parseable
// document equal to one writer's full payload (atomic rename =
// last-writer-wins), never a torn interleaving.
TEST_F(ChaosPipelineTest, TwoProcessCheckpointRaceNeverTears) {
#ifdef TG_SKIP_FORK_TESTS
  GTEST_SKIP() << "fork-based race skipped under TSan";
#endif
  const std::string path = TempPath("checkpoint_race.json");
  std::remove(path.c_str());

  TargetEvaluation small;
  small.target_dataset = 1;
  small.target_name = "alpha";
  small.model_indices = {0, 1};
  small.predicted = {0.25, 0.5};
  small.actual = {0.3, 0.6};
  TargetEvaluation other = small;
  other.target_name = "beta";

  SweepCheckpoint one;
  one.build_git_sha = "sha";
  one.fingerprint = "fp";
  one.targets = {small};
  SweepCheckpoint two = one;
  two.targets = {small, other};

  ASSERT_TRUE(SaveSweepCheckpoint(path, one).ok());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: no gtest assertions; report failure via exit code.
    for (int i = 0; i < 60; ++i) {
      if (!SaveSweepCheckpoint(path, two).ok()) ::_exit(10);
    }
    ::_exit(0);
  }
  bool saw_one = false;
  bool saw_two = false;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(SaveSweepCheckpoint(path, one).ok());
    Result<SweepCheckpoint> read = LoadSweepCheckpoint(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    const size_t n = read.value().targets.size();
    ASSERT_TRUE(n == 1 || n == 2) << "torn checkpoint with " << n;
    (n == 1 ? saw_one : saw_two) = true;
    EXPECT_EQ(read.value().targets[0].predicted, small.predicted);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(saw_one);  // our own writes are visible at minimum
  // Final state is exactly one writer's complete payload.
  Result<SweepCheckpoint> last = LoadSweepCheckpoint(path);
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(last.value().targets.size() == 1 ||
              last.value().targets.size() == 2);
}

}  // namespace
}  // namespace tg::core
