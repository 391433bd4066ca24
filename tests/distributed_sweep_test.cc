// Tests for the distributed leave-one-out sweep: the atomic-rename claim
// protocol (exactly one winner under racing claimers and stealers), lease
// expiry and reclaim, crash-safe shard publication, the janitor, injected
// fault sites, and the end-to-end guarantee that a merged distributed sweep
// is byte-identical to a serial checkpointed sweep.
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distributed_sweep.h"
#include "core/pipeline.h"
#include "core/sweep_checkpoint.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace tg::core {
namespace {

// TSan instruments the allocator with process-wide locks; forking while any
// instrumented thread exists can deadlock the child. The fork-based races
// run under the plain and ASan builds instead.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TG_SKIP_FORK_TESTS 1
#endif
#endif

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Recursive removal so reused TempDir workdirs never leak a manifest from a
// previous binary (whose build sha would be refused by design).
void RemoveTree(const std::string& path) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0) return;
  if (!S_ISDIR(st.st_mode)) {
    std::remove(path.c_str());
    return;
  }
  if (DIR* dir = ::opendir(path.c_str())) {
    while (struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      RemoveTree(path + "/" + name);
    }
    ::closedir(dir);
  }
  ::rmdir(path.c_str());
}

// Rewinds a file's mtime by `seconds` -- how the tests simulate a lease
// whose owner died long ago without actually sleeping.
void BackdateFile(const std::string& path, double seconds) {
  struct timespec times[2];
  times[0].tv_sec = ::time(nullptr) - static_cast<time_t>(seconds);
  times[0].tv_nsec = 0;
  times[1] = times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

class DistributedSweepTest : public ::testing::Test {
 protected:
  DistributedSweepTest() {
    zoo::ModelZooConfig config;
    config.catalog.num_image_models = 48;
    config.catalog.num_text_models = 24;
    config.world.max_samples_per_dataset = 80;
    zoo_ = std::make_unique<zoo::ModelZoo>(config);
    pipeline_ = std::make_unique<Pipeline>(zoo_.get(), zoo::Modality::kImage);
  }

  ~DistributedSweepTest() override {
    fault::ClearFaults();
    ClearSweepDrain();
    SetThreadCount(0);
  }

  // Metadata-only features need no graph or embeddings: the 8-target sweep
  // stays fast enough to run many full distributed rounds per test binary.
  static PipelineConfig FastConfig() {
    PipelineConfig config;
    config.strategy = Strategy{PredictorKind::kLinearRegression,
                               GraphLearner::kNone,
                               FeatureSet::kMetadataOnly};
    return config;
  }

  // A fresh workdir for this test, initialized for FastConfig's sweep.
  std::string FreshWorkdir(const std::string& name, size_t* tmp_reclaimed) {
    const std::string workdir = TempPath(name);
    RemoveTree(workdir);
    const std::string fingerprint =
        SweepFingerprint(FastConfig(), zoo::Modality::kImage);
    const size_t n = NumTargets();
    size_t reclaimed = 0;
    Status init =
        InitializeSweepWorkdir(workdir, fingerprint, n, 30.0, &reclaimed);
    EXPECT_TRUE(init.ok()) << init.ToString();
    if (tmp_reclaimed != nullptr) *tmp_reclaimed = reclaimed;
    return workdir;
  }

  size_t NumTargets() const {
    return zoo_->EvaluationTargets(zoo::Modality::kImage).size();
  }

  DistributedSweepOptions WorkerOptions(const std::string& workdir,
                                        const std::string& worker) {
    DistributedSweepOptions options;
    options.workdir = workdir;
    options.worker_id = worker;
    options.lease_sec = 30.0;
    options.poll_sec = 0.01;
    options.stall_timeout_sec = 30.0;
    return options;
  }

  std::string ReadAll(const std::string& path) {
    Result<std::string> contents = ReadFileToString(path);
    EXPECT_TRUE(contents.ok()) << contents.status().ToString();
    return contents.ok() ? contents.value() : std::string();
  }

  // The reference artifact: an uninterrupted serial checkpointed sweep.
  std::string SerialCheckpoint(const std::string& name) {
    const std::string path = TempPath(name);
    std::remove(path.c_str());
    SweepOptions options;
    options.checkpoint_path = path;
    const SweepResult result =
        pipeline_->EvaluateAllTargetsResumable(FastConfig(), options);
    EXPECT_TRUE(result.complete);
    return path;
  }

  std::unique_ptr<zoo::ModelZoo> zoo_;
  std::unique_ptr<Pipeline> pipeline_;
};

// --- Claim protocol primitives ----------------------------------------------

TEST_F(DistributedSweepTest, InitializeSeedsFreeTokensIdempotently) {
  const std::string workdir = FreshWorkdir("ds_init", nullptr);
  for (size_t i = 0; i < NumTargets(); ++i) {
    EXPECT_TRUE(FileExists(SweepFreePath(workdir, i))) << i;
  }
  // Re-initialization validates the manifest and leaves the pool alone.
  const std::string fingerprint =
      SweepFingerprint(FastConfig(), zoo::Modality::kImage);
  Status again = InitializeSweepWorkdir(workdir, fingerprint, NumTargets(),
                                        30.0, nullptr);
  EXPECT_TRUE(again.ok()) << again.ToString();
  // A different configuration is refused outright, never silently mixed.
  Status mixed = InitializeSweepWorkdir(workdir, fingerprint + "|other",
                                        NumTargets(), 30.0, nullptr);
  EXPECT_FALSE(mixed.ok());
}

TEST_F(DistributedSweepTest, ClaimIsExclusiveSerially) {
  const std::string workdir = FreshWorkdir("ds_claim", nullptr);
  EXPECT_TRUE(TryClaimFreeTarget(workdir, 0, "w0"));
  EXPECT_TRUE(FileExists(SweepLeasePath(workdir, 0, "w0")));
  EXPECT_FALSE(FileExists(SweepFreePath(workdir, 0)));
  // The token is gone: every later claimer loses.
  EXPECT_FALSE(TryClaimFreeTarget(workdir, 0, "w1"));
  EXPECT_FALSE(TryClaimFreeTarget(workdir, 0, "w0"));
}

TEST_F(DistributedSweepTest, ConcurrentClaimersExactlyOneWins) {
  const std::string workdir = FreshWorkdir("ds_claim_race", nullptr);
  constexpr int kClaimers = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kClaimers);
  for (int t = 0; t < kClaimers; ++t) {
    threads.emplace_back([&, t] {
      if (TryClaimFreeTarget(workdir, 0, "w" + std::to_string(t))) {
        winners.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST_F(DistributedSweepTest, StealRequiresExpiredLease) {
  const std::string workdir = FreshWorkdir("ds_steal", nullptr);
  ASSERT_TRUE(TryClaimFreeTarget(workdir, 0, "victim"));
  std::string victim;
  // Fresh lease: the owner is alive, stealing must fail.
  EXPECT_FALSE(TryStealExpiredLease(workdir, 0, "thief", 30.0, &victim));
  // Kill -9 simulation: the lease's mtime stops advancing.
  BackdateFile(SweepLeasePath(workdir, 0, "victim"), 120.0);
  EXPECT_TRUE(TryStealExpiredLease(workdir, 0, "thief", 30.0, &victim));
  EXPECT_EQ(victim, "victim");
  EXPECT_TRUE(FileExists(SweepLeasePath(workdir, 0, "thief")));
  EXPECT_FALSE(FileExists(SweepLeasePath(workdir, 0, "victim")));
  // The stolen lease's clock restarted: it is not instantly re-stealable.
  EXPECT_FALSE(TryStealExpiredLease(workdir, 0, "thief2", 30.0, &victim));
}

TEST_F(DistributedSweepTest, ConcurrentStealersExactlyOneWins) {
  const std::string workdir = FreshWorkdir("ds_steal_race", nullptr);
  ASSERT_TRUE(TryClaimFreeTarget(workdir, 0, "victim"));
  BackdateFile(SweepLeasePath(workdir, 0, "victim"), 120.0);
  constexpr int kStealers = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kStealers);
  for (int t = 0; t < kStealers; ++t) {
    threads.emplace_back([&, t] {
      std::string victim;
      if (TryStealExpiredLease(workdir, 0, "t" + std::to_string(t), 30.0,
                               &victim)) {
        winners.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST_F(DistributedSweepTest, ReleaseReturnsTargetToThePool) {
  const std::string workdir = FreshWorkdir("ds_release", nullptr);
  ASSERT_TRUE(TryClaimFreeTarget(workdir, 0, "w0"));
  Status released = ReleaseLeaseToFree(workdir, 0, "w0");
  EXPECT_TRUE(released.ok()) << released.ToString();
  EXPECT_TRUE(FileExists(SweepFreePath(workdir, 0)));
  // Releasing a lease we no longer hold reports the theft.
  EXPECT_EQ(ReleaseLeaseToFree(workdir, 0, "w0").code(),
            StatusCode::kNotFound);
  // The released token is claimable again.
  EXPECT_TRUE(TryClaimFreeTarget(workdir, 0, "w1"));
}

TEST_F(DistributedSweepTest, RenewLeaseBumpsMtimeAndDetectsTheft) {
  const std::string workdir = FreshWorkdir("ds_renew", nullptr);
  ASSERT_TRUE(TryClaimFreeTarget(workdir, 0, "w0"));
  const std::string lease = SweepLeasePath(workdir, 0, "w0");
  BackdateFile(lease, 120.0);
  Status renewed = RenewLease(lease);
  EXPECT_TRUE(renewed.ok()) << renewed.ToString();
  // The renewal moved the lease out of the steal window.
  std::string victim;
  EXPECT_FALSE(TryStealExpiredLease(workdir, 0, "thief", 30.0, &victim));
  // A stolen (vanished) lease is NotFound: the renewer must stop renewing.
  std::remove(lease.c_str());
  EXPECT_EQ(RenewLease(lease).code(), StatusCode::kNotFound);
}

// --- Janitor ----------------------------------------------------------------

TEST_F(DistributedSweepTest, JanitorReclaimsOnlyOldTmpDebris) {
  const std::string workdir = FreshWorkdir("ds_janitor", nullptr);
  const std::string old_tmp = SweepShardsDir(workdir) + "/target-0.json.tmp";
  const std::string fresh_tmp = SweepClaimsDir(workdir) + "/claim.tmp";
  ASSERT_TRUE(WriteFileAtomic(old_tmp, "orphan").ok());
  ASSERT_TRUE(WriteFileAtomic(fresh_tmp, "live writer").ok());
  BackdateFile(old_tmp, 600.0);
  const size_t reclaimed = JanitorSweepTmpDebris(workdir, 30.0);
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_FALSE(FileExists(old_tmp));
  // A young .tmp may belong to a live atomic writer mid-commit.
  EXPECT_TRUE(FileExists(fresh_tmp));
}

TEST_F(DistributedSweepTest, InitializeRunsTheJanitor) {
  const std::string workdir = FreshWorkdir("ds_janitor_init", nullptr);
  const std::string debris = workdir + "/checkpoint.json.tmp";
  ASSERT_TRUE(WriteFileAtomic(debris, "crashed writer").ok());
  BackdateFile(debris, 600.0);
  const std::string fingerprint =
      SweepFingerprint(FastConfig(), zoo::Modality::kImage);
  size_t reclaimed = 0;
  Status init = InitializeSweepWorkdir(workdir, fingerprint, NumTargets(),
                                       30.0, &reclaimed);
  ASSERT_TRUE(init.ok()) << init.ToString();
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_FALSE(FileExists(debris));
}

// --- Two-process crash-safety of atomic publication -------------------------

// Two processes hammering SaveSweepCheckpoint on one path: every concurrent
// read must see a complete, parseable document equal to one writer's full
// payload (atomic rename = last-writer-wins), never a torn interleaving.
TEST_F(DistributedSweepTest, TwoProcessCheckpointRaceNeverTears) {
#ifdef TG_SKIP_FORK_TESTS
  GTEST_SKIP() << "fork-based race skipped under TSan";
#endif
  const std::string path = TempPath("ds_ckpt_race.json");
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

// Duplicate shard publication from two processes (the steal-race shape:
// both compute bit-identical results): every read is complete and equal.
TEST_F(DistributedSweepTest, TwoProcessShardRaceIsIdempotent) {
#ifdef TG_SKIP_FORK_TESTS
  GTEST_SKIP() << "fork-based race skipped under TSan";
#endif
  const std::string workdir = FreshWorkdir("ds_shard_race", nullptr);
  const std::string fingerprint =
      SweepFingerprint(FastConfig(), zoo::Modality::kImage);
  const std::vector<size_t> targets =
      zoo_->EvaluationTargets(zoo::Modality::kImage);
  const TargetEvaluation eval =
      pipeline_->EvaluateTarget(FastConfig(), targets[0]);

  ASSERT_TRUE(WriteSweepShard(workdir, 0, fingerprint, eval).ok());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Unique temp names make each publication a whole-file replace: both
    // racing writers succeed, and the final file never goes missing.
    for (int i = 0; i < 40; ++i) {
      if (!WriteSweepShard(workdir, 0, fingerprint, eval).ok()) ::_exit(10);
      if (!FileExists(SweepShardPath(workdir, 0))) ::_exit(11);
    }
    ::_exit(0);
  }
  for (int i = 0; i < 40; ++i) {
    Status wrote = WriteSweepShard(workdir, 0, fingerprint, eval);
    ASSERT_TRUE(wrote.ok()) << wrote.ToString();
    Result<TargetEvaluation> read = ReadSweepShard(workdir, 0, fingerprint);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.value().predicted, eval.predicted);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
}

// --- Workers end to end -----------------------------------------------------

TEST_F(DistributedSweepTest, SingleWorkerMergesBitIdenticalToSerial) {
  const std::string serial = SerialCheckpoint("ds_serial_ref.json");
  const std::string workdir = FreshWorkdir("ds_single", nullptr);
  Result<WorkerReport> ran = RunSweepWorker(
      pipeline_.get(), FastConfig(), WorkerOptions(workdir, "w0"));
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_TRUE(ran.value().complete);
  EXPECT_EQ(ran.value().evaluated, NumTargets());
  EXPECT_EQ(ran.value().claims, NumTargets());
  EXPECT_EQ(ran.value().steals, 0u);
  EXPECT_EQ(ran.value().failed, 0u);

  const std::string merged = TempPath("ds_single_merged.json");
  std::remove(merged.c_str());
  Result<MergeReport> merge = MergeSweepShards(pipeline_.get(), FastConfig(),
                                               workdir, merged);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_TRUE(merge.value().ok()) << merge.value().problems[0];
  EXPECT_EQ(merge.value().merged, NumTargets());
  EXPECT_EQ(ReadAll(merged), ReadAll(serial));
}

TEST_F(DistributedSweepTest, TwoConcurrentWorkersPartitionAndMergeIdentical) {
  const std::string serial = SerialCheckpoint("ds_serial_ref2.json");
  const std::string workdir = FreshWorkdir("ds_pair", nullptr);
  Result<WorkerReport> a = Status::Internal("unset");
  Result<WorkerReport> b = Status::Internal("unset");
  std::thread ta([&] {
    a = RunSweepWorker(pipeline_.get(), FastConfig(),
                       WorkerOptions(workdir, "wa"));
  });
  std::thread tb([&] {
    b = RunSweepWorker(pipeline_.get(), FastConfig(),
                       WorkerOptions(workdir, "wb"));
  });
  ta.join();
  tb.join();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a.value().complete);
  EXPECT_TRUE(b.value().complete);
  // Every free token was claimed exactly once; no lease lived long enough
  // to be stolen.
  EXPECT_EQ(a.value().claims + b.value().claims, NumTargets());
  EXPECT_EQ(a.value().steals + b.value().steals, 0u);
  EXPECT_EQ(a.value().evaluated + b.value().evaluated, NumTargets());

  const std::string merged = TempPath("ds_pair_merged.json");
  std::remove(merged.c_str());
  Result<MergeReport> merge = MergeSweepShards(pipeline_.get(), FastConfig(),
                                               workdir, merged);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_TRUE(merge.value().ok()) << merge.value().problems[0];
  EXPECT_EQ(ReadAll(merged), ReadAll(serial));
}

// A target whose first attempt fails is rescued by the degraded retry; the
// worker's shard for it must merge to the serial checkpoint's exact bytes.
TEST_F(DistributedSweepTest, DegradedWorkerShardMergesBitIdenticalToSerial) {
  SetThreadCount(1);
  // Dataset-distance and LogME features: the metadata-only fallback predicts
  // differently, so a degraded result cannot pass for a clean one.
  PipelineConfig config;
  config.strategy = Strategy{PredictorKind::kLinearRegression,
                             GraphLearner::kNone, FeatureSet::kAllWithLogMe};
  const std::string serial = TempPath("ds_degraded_serial.json");
  std::remove(serial.c_str());
  SweepOptions options;
  options.checkpoint_path = serial;
  ASSERT_TRUE(fault::InstallSpec("pipeline.target=hit:1").ok());
  const SweepResult result =
      pipeline_->EvaluateAllTargetsResumable(config, options);
  fault::ClearFaults();
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.degraded, 1u);
  for (const TargetEvaluation& eval : result.evaluations) {
    if (!eval.degraded) continue;
    EXPECT_EQ(eval.retries, 1);
    EXPECT_NE(eval.predicted,
              pipeline_->EvaluateTarget(config, eval.target_dataset).predicted);
  }

  const std::string workdir = TempPath("ds_degraded");
  RemoveTree(workdir);
  ASSERT_TRUE(fault::InstallSpec("pipeline.target=hit:1").ok());
  Result<WorkerReport> ran = RunSweepWorker(pipeline_.get(), config,
                                            WorkerOptions(workdir, "w0"));
  fault::ClearFaults();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_TRUE(ran.value().complete);
  EXPECT_EQ(ran.value().retried, 1u);
  EXPECT_EQ(ran.value().degraded, 1u);
  EXPECT_EQ(ran.value().failed, 0u);

  const std::string merged = TempPath("ds_degraded_merged.json");
  std::remove(merged.c_str());
  Result<MergeReport> merge =
      MergeSweepShards(pipeline_.get(), config, workdir, merged);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_TRUE(merge.value().ok()) << merge.value().problems[0];
  EXPECT_EQ(ReadAll(merged), ReadAll(serial));
}

TEST_F(DistributedSweepTest, WorkerFinishesAfterACrashedPredecessor) {
  const std::string serial = SerialCheckpoint("ds_serial_ref3.json");
  const std::string workdir = FreshWorkdir("ds_crash", nullptr);
  // Simulate a kill -9 mid-target: the victim claimed target 0, renewed for
  // a while, then died -- its lease is still on disk with a stale mtime.
  ASSERT_TRUE(TryClaimFreeTarget(workdir, 0, "corpse"));
  BackdateFile(SweepLeasePath(workdir, 0, "corpse"), 120.0);

  DistributedSweepOptions options = WorkerOptions(workdir, "medic");
  options.lease_sec = 30.0;
  Result<WorkerReport> ran =
      RunSweepWorker(pipeline_.get(), FastConfig(), options);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_TRUE(ran.value().complete);
  EXPECT_EQ(ran.value().steals, 1u);
  EXPECT_EQ(ran.value().lease_expiries, 1u);
  EXPECT_EQ(ran.value().evaluated, NumTargets());

  const std::string merged = TempPath("ds_crash_merged.json");
  std::remove(merged.c_str());
  Result<MergeReport> merge = MergeSweepShards(pipeline_.get(), FastConfig(),
                                               workdir, merged);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_TRUE(merge.value().ok()) << merge.value().problems[0];
  EXPECT_EQ(ReadAll(merged), ReadAll(serial));
}

TEST_F(DistributedSweepTest, DrainStopsBeforeClaimingAndLeavesPoolClean) {
  const std::string workdir = FreshWorkdir("ds_drain", nullptr);
  RequestSweepDrain();
  Result<WorkerReport> ran = RunSweepWorker(
      pipeline_.get(), FastConfig(), WorkerOptions(workdir, "w0"));
  ClearSweepDrain();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_TRUE(ran.value().drained);
  EXPECT_FALSE(ran.value().complete);
  EXPECT_EQ(ran.value().claims, 0u);
  // Nothing leased: a successor can take every target immediately.
  for (size_t i = 0; i < NumTargets(); ++i) {
    EXPECT_TRUE(FileExists(SweepFreePath(workdir, i))) << i;
  }
  Result<WorkerReport> finish = RunSweepWorker(
      pipeline_.get(), FastConfig(), WorkerOptions(workdir, "w1"));
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();
  EXPECT_TRUE(finish.value().complete);
}

// --- Injected fault sites ---------------------------------------------------

TEST_F(DistributedSweepTest, ClaimRenameFaultIsTransient) {
  const std::string workdir = FreshWorkdir("ds_claim_fault", nullptr);
  ASSERT_TRUE(fault::InstallSpec("claim.rename=hit:1").ok());
  Result<WorkerReport> ran = RunSweepWorker(
      pipeline_.get(), FastConfig(), WorkerOptions(workdir, "w0"));
  const uint64_t fired = fault::SiteFired("claim.rename");
  fault::ClearFaults();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  // The first claim attempt lost to the injected fault; the backoff rescan
  // claimed it later. The sweep still completes fully.
  EXPECT_TRUE(ran.value().complete);
  EXPECT_EQ(ran.value().evaluated, NumTargets());
  EXPECT_GE(fired, 1u);
}

TEST_F(DistributedSweepTest, ShardWriteFaultIsRetriedWithBackoff) {
  const std::string workdir = FreshWorkdir("ds_write_fault", nullptr);
  ASSERT_TRUE(fault::InstallSpec("shard.write=hit:1").ok());
  Result<WorkerReport> ran = RunSweepWorker(
      pipeline_.get(), FastConfig(), WorkerOptions(workdir, "w0"));
  fault::ClearFaults();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_TRUE(ran.value().complete);
  EXPECT_EQ(ran.value().evaluated, NumTargets());
  EXPECT_EQ(ran.value().failed, 0u);
}

TEST_F(DistributedSweepTest, MergeReadFaultIsRetriedTransiently) {
  const std::string serial = SerialCheckpoint("ds_serial_ref4.json");
  const std::string workdir = FreshWorkdir("ds_merge_fault", nullptr);
  Result<WorkerReport> ran = RunSweepWorker(
      pipeline_.get(), FastConfig(), WorkerOptions(workdir, "w0"));
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  ASSERT_TRUE(ran.value().complete);

  const std::string merged = TempPath("ds_merge_fault_merged.json");
  std::remove(merged.c_str());
  ASSERT_TRUE(fault::InstallSpec("merge.read=hit:1").ok());
  Result<MergeReport> merge = MergeSweepShards(pipeline_.get(), FastConfig(),
                                               workdir, merged);
  fault::ClearFaults();
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_TRUE(merge.value().ok()) << merge.value().problems[0];
  EXPECT_EQ(ReadAll(merged), ReadAll(serial));
}

// --- Merger validation ------------------------------------------------------

class DistributedMergeValidationTest : public DistributedSweepTest {
 protected:
  // One completed workdir per test, cheap to mutilate.
  void SetUpWorkdir(const std::string& name) {
    workdir_ = FreshWorkdir(name, nullptr);
    Result<WorkerReport> ran = RunSweepWorker(
        pipeline_.get(), FastConfig(), WorkerOptions(workdir_, "w0"));
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    ASSERT_TRUE(ran.value().complete);
  }

  Result<MergeReport> Merge() {
    const std::string merged = workdir_ + "/merged.json";
    std::remove(merged.c_str());
    return MergeSweepShards(pipeline_.get(), FastConfig(), workdir_, merged);
  }

  std::string workdir_;
};

TEST_F(DistributedMergeValidationTest, DetectsMissingShard) {
  SetUpWorkdir("ds_merge_missing");
  std::remove(SweepShardPath(workdir_, 3).c_str());
  Result<MergeReport> merge = Merge();
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_EQ(merge.value().problems.size(), 1u);
  EXPECT_NE(merge.value().problems[0].find("missing shard"),
            std::string::npos);
  EXPECT_TRUE(merge.value().artifact_path.empty());
}

TEST_F(DistributedMergeValidationTest, DetectsTornShard) {
  SetUpWorkdir("ds_merge_torn");
  const std::string shard = SweepShardPath(workdir_, 2);
  const std::string contents = ReadAll(shard);
  ASSERT_TRUE(
      WriteFileAtomic(shard, contents.substr(0, contents.size() / 2)).ok());
  Result<MergeReport> merge = Merge();
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_EQ(merge.value().problems.size(), 1u);
  EXPECT_NE(merge.value().problems[0].find("torn or malformed"),
            std::string::npos);
}

TEST_F(DistributedMergeValidationTest, DetectsStaleBuildShard) {
  SetUpWorkdir("ds_merge_stale");
  const std::string shard = SweepShardPath(workdir_, 1);
  std::string contents = ReadAll(shard);
  const std::string key = "\"build_git_sha\":\"";
  const size_t at = contents.find(key);
  ASSERT_NE(at, std::string::npos);
  contents.insert(at + key.size(), "stale-");
  ASSERT_TRUE(WriteFileAtomic(shard, contents).ok());
  Result<MergeReport> merge = Merge();
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_EQ(merge.value().problems.size(), 1u);
  EXPECT_NE(merge.value().problems[0].find("stale build"), std::string::npos);
}

TEST_F(DistributedMergeValidationTest, DetectsDuplicatedShardContent) {
  SetUpWorkdir("ds_merge_dup");
  // Shard 4's payload copied over shard 5 (a duplicated artifact): the
  // index check inside the shard catches the copy.
  ASSERT_TRUE(
      WriteFileAtomic(SweepShardPath(workdir_, 5),
                      ReadAll(SweepShardPath(workdir_, 4)))
          .ok());
  Result<MergeReport> merge = Merge();
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_EQ(merge.value().problems.size(), 1u);
  EXPECT_NE(merge.value().problems[0].find("different target"),
            std::string::npos);
}

TEST_F(DistributedMergeValidationTest, DetectsFailedTargetMarkers) {
  SetUpWorkdir("ds_merge_failed");
  std::remove(SweepShardPath(workdir_, 0).c_str());
  const std::string fingerprint =
      SweepFingerprint(FastConfig(), zoo::Modality::kImage);
  ASSERT_TRUE(WriteSweepFailedMarker(workdir_, 0, fingerprint,
                                     "predictor exploded")
                  .ok());
  Result<MergeReport> merge = Merge();
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_EQ(merge.value().problems.size(), 1u);
  EXPECT_NE(merge.value().problems[0].find("predictor exploded"),
            std::string::npos);
}

TEST_F(DistributedMergeValidationTest, RefusesForeignWorkdir) {
  SetUpWorkdir("ds_merge_foreign");
  // A merger resolving a different strategy computes a different
  // fingerprint and must refuse the workdir outright.
  PipelineConfig other = FastConfig();
  other.seed ^= 1;
  const std::string merged = workdir_ + "/merged.json";
  Result<MergeReport> merge =
      MergeSweepShards(pipeline_.get(), other, workdir_, merged);
  EXPECT_FALSE(merge.ok());
}

}  // namespace
}  // namespace tg::core
