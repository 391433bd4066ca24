// Distributed leave-one-out sweep: N independent worker processes claim
// targets from a shared workdir, survive each other's crashes via lease
// reclaim, and a merger re-emits the final artifact bit-identically to a
// serial sweep. See docs/robustness.md for the full protocol.
//
// Workdir layout (all files published via util/atomic_file):
//   <workdir>/sweep.json                     manifest: schema, fingerprint,
//                                            build sha, target count
//   <workdir>/claims/target-<i>.free         unclaimed-target token
//   <workdir>/claims/target-<i>.<w>.lease    target i is owned by worker <w>
//   <workdir>/shards/target-<i>.json         completed evaluation of target i
//   <workdir>/shards/target-<i>.failed.json  target i failed even degraded
//   <workdir>/workers/<w>/heartbeat.json     pid/host/progress of worker <w>
//
// Claim protocol -- atomic rename, crash-safe by construction:
//   claim   rename(target-<i>.free            -> target-<i>.<me>.lease)
//   steal   rename(target-<i>.<victim>.lease  -> target-<i>.<me>.lease)
//             (only when the victim lease's mtime is older than --lease-sec)
//   release rename(target-<i>.<me>.lease      -> target-<i>.free)
//   done    publish shards/target-<i>.json, then unlink the lease
// rename(2) is atomic within a filesystem, so every transition has exactly
// one winner (losers see ENOENT) and a `kill -9` at any instant leaves the
// target either free, leased (reclaimable after the lease expires), or
// completed -- never lost, never torn. A lease acquired by rename keeps the
// source file's mtime, so owners bump it (utimensat) on acquisition and a
// renewal thread keeps bumping it every lease_sec/4 (clamped to
// [0.02 s, 5 s]) while a target is in flight; a stale bump loses at worst
// one target of duplicated work, and duplicated work is harmless because
// every worker computes bit-identical results (every target runs through
// Pipeline::SweepTarget, as in the serial sweep) and shard publication is an
// idempotent atomic rename.
//
// Fault sites (TG_FAULT): "claim.rename" (claim/steal/release rename fails
// transiently), "lease.renew" (a renewal tick is skipped), "shard.write"
// (shard publication fails; retried with backoff), "merge.read" (merger
// shard read fails; retried with backoff).
#ifndef TG_CORE_DISTRIBUTED_SWEEP_H_
#define TG_CORE_DISTRIBUTED_SWEEP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "util/status.h"

namespace tg::core {

struct DistributedSweepOptions {
  std::string workdir;    // required; created if absent
  std::string worker_id;  // required; [A-Za-z0-9_-]+ (lands in file names)
  // A lease whose mtime is older than this is considered abandoned (owner
  // crashed or stalled) and may be stolen by any live worker.
  double lease_sec = 30.0;
  // Passed to Pipeline::SweepTarget, the step EvaluateAllTargetsResumable
  // runs too: failed targets get one degraded retry.
  bool degrade_on_failure = true;
  // Idle wait between scan rounds when every remaining target is owned by a
  // live lease (someone else is computing it).
  double poll_sec = 0.1;
  // Give up (incomplete, with an error) after this long without any global
  // progress: no claim, no steal, and no new shard appearing. 0 derives
  // max(60, 10 * lease_sec).
  double stall_timeout_sec = 0.0;
};

// What one worker process did. `complete` means every target of the sweep
// is resolved (shard or failed-marker present) at exit -- regardless of
// which worker resolved it.
struct WorkerReport {
  size_t targets_total = 0;
  size_t evaluated = 0;        // targets this worker computed and published
  size_t claims = 0;           // free->lease transitions won
  size_t steals = 0;           // expired leases reclaimed from other workers
  size_t lease_expiries = 0;   // expired leases observed (== steals won here)
  size_t tmp_reclaimed = 0;    // orphaned .tmp debris removed at startup
  size_t retried = 0;          // targets that needed the degraded retry
  size_t degraded = 0;         // targets resolved by the fallback strategy
  size_t failed = 0;           // targets that failed even degraded
  bool drained = false;        // exited early on RequestSweepDrain (SIGTERM)
  bool complete = false;
  std::vector<std::string> errors;
};

// Merger outcome: shard-level validation problems, one line each, in target
// order. An empty `problems` means the artifact was written.
struct MergeReport {
  size_t targets_total = 0;
  size_t merged = 0;
  std::string artifact_path;
  std::vector<std::string> problems;
  bool ok() const { return problems.empty(); }
};

// --- Worker / merger entry points -------------------------------------------

// Runs one worker against the shared workdir until the sweep is resolved, a
// drain is requested, or the stall timeout fires. Status errors are setup
// failures only (bad options, manifest config/build mismatch); anything
// after setup is reported in the WorkerReport.
Result<WorkerReport> RunSweepWorker(Pipeline* pipeline,
                                    const PipelineConfig& config,
                                    const DistributedSweepOptions& options);

// Validates every shard against the expected fingerprint, build sha, and
// target roster (missing / failed / torn / stale-build / mismatched shards
// become MergeReport::problems) and, when clean, writes `out_path` in
// exactly the SaveSweepCheckpoint format -- byte-identical to the final
// checkpoint of an uninterrupted serial `sweep --checkpoint` of the same
// config on the same build. Status errors are workdir-level failures
// (unreadable manifest, config mismatch).
Result<MergeReport> MergeSweepShards(Pipeline* pipeline,
                                     const PipelineConfig& config,
                                     const std::string& workdir,
                                     const std::string& out_path);

// --- Protocol primitives (exposed for tests) --------------------------------

std::string SweepManifestPath(const std::string& workdir);
std::string SweepClaimsDir(const std::string& workdir);
std::string SweepShardsDir(const std::string& workdir);
std::string SweepFreePath(const std::string& workdir, size_t target);
std::string SweepLeasePath(const std::string& workdir, size_t target,
                           const std::string& worker);
std::string SweepShardPath(const std::string& workdir, size_t target);
std::string SweepFailedMarkerPath(const std::string& workdir, size_t target);
std::string SweepHeartbeatPath(const std::string& workdir,
                               const std::string& worker);

// Creates the directory tree, writes or validates the manifest (a manifest
// for a different fingerprint/build/target-count is InvalidArgument, never
// silently mixed), seeds claims/target-<i>.free tokens for unresolved
// targets, clears leases left behind for already-completed targets, and
// garbage-collects orphaned .tmp debris older than `lease_sec`
// (*tmp_reclaimed counts removals; also on the "sweep.tmp_reclaimed"
// metric).
Status InitializeSweepWorkdir(const std::string& workdir,
                              const std::string& fingerprint,
                              size_t num_targets, double lease_sec,
                              size_t* tmp_reclaimed);

// Claim the free token for `target`. True iff this worker won the rename;
// false on a lost race or an injected "claim.rename" fault (both are
// transient -- retry later). Bumps the lease mtime on success.
bool TryClaimFreeTarget(const std::string& workdir, size_t target,
                        const std::string& worker);

// Steal `target`'s lease iff one exists and its mtime is older than
// lease_sec. Exactly one concurrent stealer wins the rename. On success
// *victim names the previous owner.
bool TryStealExpiredLease(const std::string& workdir, size_t target,
                          const std::string& worker, double lease_sec,
                          std::string* victim);

// Graceful release: my lease becomes the free token again (drain path and
// persistent shard-write failure).
Status ReleaseLeaseToFree(const std::string& workdir, size_t target,
                          const std::string& worker);

// Bumps the mtime of an owned lease file to now. NotFound when the lease
// was stolen (the owner should stop renewing and treat its work as
// duplicated, not owned). Fault site "lease.renew".
Status RenewLease(const std::string& lease_path);

// Publishes shards/target-<i>.json (atomic; fault site "shard.write"). The
// per-target payload reuses the checkpoint encoder, so merged artifacts are
// byte-identical to serial checkpoints.
Status WriteSweepShard(const std::string& workdir, size_t target,
                       const std::string& fingerprint,
                       const TargetEvaluation& eval);

// Publishes shards/target-<i>.failed.json so a fleet never livelocks
// re-stealing a target that deterministically fails even degraded.
Status WriteSweepFailedMarker(const std::string& workdir, size_t target,
                              const std::string& fingerprint,
                              const std::string& error);

// Reads and validates one shard (fault site "merge.read"): schema,
// fingerprint, build sha, and target index must all match.
Result<TargetEvaluation> ReadSweepShard(const std::string& workdir,
                                        size_t target,
                                        const std::string& fingerprint);

// Removes *.tmp files older than `age_sec` under the workdir's root,
// claims/, shards/, workers/ and workers/<id>/ directories. Returns the
// number removed.
size_t JanitorSweepTmpDebris(const std::string& workdir, double age_sec);

}  // namespace tg::core

#endif  // TG_CORE_DISTRIBUTED_SWEEP_H_
