#include "core/distributed_sweep.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_checkpoint.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/backoff.h"
#include "util/build_info.h"
#include "util/fault.h"
#include "util/json_util.h"
#include "util/logging.h"

namespace tg::core {
namespace {

constexpr int kShardSchemaVersion = 1;
// Shard / failed-marker publication retries on transient I/O faults.
constexpr int kShardWriteAttempts = 6;
// Merger retries per shard on transient read faults (NotFound and
// InvalidArgument are permanent verdicts, never retried).
constexpr int kShardReadAttempts = 4;
// Retry/backoff policy for claim races and transient shard-write faults.
// Each use XORs its seed with a hash of the worker id, so concurrent workers
// de-synchronize deterministically.
constexpr BackoffPolicy kBackoff;

uint64_t HashId(const std::string& id) {
  // FNV-1a: stable across runs, good enough to de-synchronize the backoff
  // streams of workers whose ids differ in one character.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : id) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ErrnoText() { return std::strerror(errno); }

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::Internal("mkdir " + path + ": " + ErrnoText());
}

// Seconds since `path` was last modified (wall clock -- lease expiry is
// process coordination, never part of results). Negative when unstattable.
double FileAgeSec(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1.0;
  struct timespec now;
  ::clock_gettime(CLOCK_REALTIME, &now);
  return static_cast<double>(now.tv_sec - st.st_mtim.tv_sec) +
         static_cast<double>(now.tv_nsec - st.st_mtim.tv_nsec) * 1e-9;
}

// rename(2) preserves the source's mtime, so every acquisition must bump
// the clock or the fresh owner would look expired to the next scanner.
void TouchNow(const std::string& path) {
  ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
}

double MonotonicSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string WorkersDir(const std::string& workdir) {
  return workdir + "/workers";
}

std::string WorkerDir(const std::string& workdir, const std::string& worker) {
  return WorkersDir(workdir) + "/" + worker;
}

Status ValidateWorkerId(const std::string& worker) {
  if (worker.empty()) {
    return Status::InvalidArgument("worker id must be non-empty");
  }
  for (char c : worker) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) {
      return Status::InvalidArgument(
          "worker id \"" + worker +
          "\" must match [A-Za-z0-9_-]+ (it becomes part of lease file "
          "names)");
    }
  }
  return Status::OK();
}

std::string ManifestJson(const std::string& fingerprint,
                         const std::string& build_sha, size_t num_targets) {
  std::string json = "{\"schema\":" + std::to_string(kShardSchemaVersion);
  json += ",\"build_git_sha\":" + JsonQuote(build_sha);
  json += ",\"fingerprint\":" + JsonQuote(fingerprint);
  json += ",\"num_targets\":" + std::to_string(num_targets);
  json += "}\n";
  return json;
}

// Manifest check shared by workers and the merger: a workdir initialized for
// a different config/build/roster is refused outright, never mixed.
Status ValidateManifest(const std::string& workdir,
                        const std::string& fingerprint, size_t num_targets) {
  const std::string path = SweepManifestPath(workdir);
  Result<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  Result<JsonValue> parsed = JsonValue::Parse(contents.value());
  if (!parsed.ok()) {
    return Status::InvalidArgument("sweep manifest " + path + ": " +
                                   parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  const JsonValue* fp = root.Find("fingerprint");
  if (fp == nullptr || !fp->is_string() || fp->AsString() != fingerprint) {
    return Status::InvalidArgument(
        "sweep workdir " + workdir +
        " was initialized for a different configuration (fingerprint "
        "mismatch)");
  }
  const JsonValue* sha = root.Find("build_git_sha");
  const std::string my_sha = GetBuildInfo().git_sha;
  if (sha == nullptr || !sha->is_string() || sha->AsString() != my_sha) {
    return Status::InvalidArgument(
        "sweep workdir " + workdir + " belongs to build " +
        (sha != nullptr ? sha->AsString() : std::string("?")) +
        " but this binary is " + my_sha +
        " (mixed-build shards would break bit-identity)");
  }
  const JsonValue* n = root.Find("num_targets");
  if (n == nullptr || !n->is_number() ||
      n->AsDouble() != static_cast<double>(num_targets)) {
    return Status::InvalidArgument("sweep workdir " + workdir +
                                   " expects a different target roster");
  }
  return Status::OK();
}

// One parsed claims/ directory entry: "target-<i>.free" or
// "target-<i>.<owner>.lease".
struct ClaimEntry {
  size_t target = 0;
  std::string owner;  // empty for free tokens
  bool is_free = false;
};

bool ParseClaimName(const std::string& name, ClaimEntry* out) {
  constexpr const char kPrefix[] = "target-";
  if (name.rfind(kPrefix, 0) != 0) return false;
  size_t pos = sizeof(kPrefix) - 1;
  size_t digits = 0;
  size_t target = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    target = target * 10 + static_cast<size_t>(name[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0 || pos >= name.size() || name[pos] != '.') return false;
  ++pos;
  const std::string rest = name.substr(pos);
  if (rest == "free") {
    out->target = target;
    out->owner.clear();
    out->is_free = true;
    return true;
  }
  constexpr const char kLease[] = ".lease";
  const size_t lease_len = sizeof(kLease) - 1;
  if (rest.size() <= lease_len ||
      rest.compare(rest.size() - lease_len, lease_len, kLease) != 0) {
    return false;
  }
  out->target = target;
  out->owner = rest.substr(0, rest.size() - lease_len);
  out->is_free = false;
  return !out->owner.empty();
}

std::vector<ClaimEntry> ListClaims(const std::string& workdir) {
  std::vector<ClaimEntry> entries;
  DIR* dir = ::opendir(SweepClaimsDir(workdir).c_str());
  if (dir == nullptr) return entries;
  while (struct dirent* entry = ::readdir(dir)) {
    ClaimEntry parsed;
    if (ParseClaimName(entry->d_name, &parsed)) {
      entries.push_back(std::move(parsed));
    }
  }
  ::closedir(dir);
  return entries;
}

bool TargetResolved(const std::string& workdir, size_t target) {
  return PathExists(SweepShardPath(workdir, target)) ||
         PathExists(SweepFailedMarkerPath(workdir, target));
}

std::string ShardPayloadPrefix(const std::string& fingerprint,
                               size_t target) {
  std::string json = "{\"schema\":" + std::to_string(kShardSchemaVersion);
  json += ",\"build_git_sha\":" + JsonQuote(GetBuildInfo().git_sha);
  json += ",\"fingerprint\":" + JsonQuote(fingerprint);
  json += ",\"target_index\":" + std::to_string(target);
  return json;
}

// --- Lease renewal / heartbeat thread ---------------------------------------

// State shared between the worker loop and its renewer thread; everything
// below is guarded by `mu`. The renewer bumps the owned lease's mtime every
// lease_sec/4 so a live worker is never mistaken for a corpse, and publishes
// a heartbeat file so operators on any host sharing the workdir can see who
// is alive and how far along.
struct RenewerState {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::string lease_path;  // empty between targets
  long current_target = -1;
  size_t claims = 0;
  size_t steals = 0;
  size_t lease_expiries = 0;
  size_t evaluated = 0;
  size_t failed = 0;
  bool drained = false;
};

std::string HeartbeatJson(const std::string& worker, const RenewerState& s,
                          size_t targets_total, double lease_sec) {
  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  std::string json = "{\"worker_id\":" + JsonQuote(worker);
  json += ",\"pid\":" + std::to_string(static_cast<long>(::getpid()));
  json += ",\"host\":" + JsonQuote(host);
  json += ",\"time_unix\":" +
          std::to_string(static_cast<long long>(::time(nullptr)));
  json += ",\"lease_sec\":" + JsonNumber(lease_sec, 17);
  json += ",\"targets_total\":" + std::to_string(targets_total);
  json += ",\"claims\":" + std::to_string(s.claims);
  json += ",\"steals\":" + std::to_string(s.steals);
  json += ",\"lease_expiries\":" + std::to_string(s.lease_expiries);
  json += ",\"evaluated\":" + std::to_string(s.evaluated);
  json += ",\"failed\":" + std::to_string(s.failed);
  json += ",\"current_target\":" + std::to_string(s.current_target);
  json += ",\"drained\":" + std::string(s.drained ? "true" : "false");
  json += "}\n";
  return json;
}

void RenewerLoop(RenewerState* s, const std::string& workdir,
                 const std::string& worker, size_t targets_total,
                 double lease_sec) {
  const double interval =
      std::min(5.0, std::max(0.02, lease_sec / 4.0));
  const std::string heartbeat_path = SweepHeartbeatPath(workdir, worker);
  std::unique_lock<std::mutex> lock(s->mu);
  while (!s->stop) {
    s->cv.wait_for(lock, std::chrono::duration<double>(interval),
                   [s] { return s->stop; });
    if (s->stop) break;
    const std::string lease = s->lease_path;
    const std::string heartbeat =
        HeartbeatJson(worker, *s, targets_total, lease_sec);
    lock.unlock();
    // NotFound: stolen out from under us (we stalled past lease_sec, or the
    // mtime bump lost a race). The in-flight evaluation continues -- its
    // result is bit-identical to the thief's and shard publication is
    // idempotent -- but we stop renewing a lease we no longer own. Any other
    // failure (an injected lease.renew fault) just skips this tick, and the
    // lease ages toward reclaim.
    if (!lease.empty() &&
        RenewLease(lease).code() == StatusCode::kNotFound) {
      obs::EmitEvent("worker_lease_lost", worker, lease);
      lock.lock();
      if (s->lease_path == lease) s->lease_path.clear();
      lock.unlock();
    }
    // Best-effort: a failing heartbeat write must never take the worker
    // down.
    (void)WriteFileAtomic(heartbeat_path, heartbeat, /*unique_temp=*/true);
    lock.lock();
  }
}

}  // namespace

// --- Paths ------------------------------------------------------------------

std::string SweepManifestPath(const std::string& workdir) {
  return workdir + "/sweep.json";
}

std::string SweepClaimsDir(const std::string& workdir) {
  return workdir + "/claims";
}

std::string SweepShardsDir(const std::string& workdir) {
  return workdir + "/shards";
}

std::string SweepFreePath(const std::string& workdir, size_t target) {
  return SweepClaimsDir(workdir) + "/target-" + std::to_string(target) +
         ".free";
}

std::string SweepLeasePath(const std::string& workdir, size_t target,
                           const std::string& worker) {
  return SweepClaimsDir(workdir) + "/target-" + std::to_string(target) + "." +
         worker + ".lease";
}

std::string SweepShardPath(const std::string& workdir, size_t target) {
  return SweepShardsDir(workdir) + "/target-" + std::to_string(target) +
         ".json";
}

std::string SweepFailedMarkerPath(const std::string& workdir, size_t target) {
  return SweepShardsDir(workdir) + "/target-" + std::to_string(target) +
         ".failed.json";
}

std::string SweepHeartbeatPath(const std::string& workdir,
                               const std::string& worker) {
  return WorkerDir(workdir, worker) + "/heartbeat.json";
}

// --- Protocol primitives ----------------------------------------------------

Status InitializeSweepWorkdir(const std::string& workdir,
                              const std::string& fingerprint,
                              size_t num_targets, double lease_sec,
                              size_t* tmp_reclaimed) {
  if (tmp_reclaimed != nullptr) *tmp_reclaimed = 0;
  if (workdir.empty()) {
    return Status::InvalidArgument("sweep workdir must be non-empty");
  }
  TG_RETURN_IF_ERROR(MakeDir(workdir));
  TG_RETURN_IF_ERROR(MakeDir(SweepClaimsDir(workdir)));
  TG_RETURN_IF_ERROR(MakeDir(SweepShardsDir(workdir)));
  TG_RETURN_IF_ERROR(MakeDir(WorkersDir(workdir)));

  const std::string manifest_path = SweepManifestPath(workdir);
  if (PathExists(manifest_path)) {
    TG_RETURN_IF_ERROR(ValidateManifest(workdir, fingerprint, num_targets));
  } else {
    // Two workers racing here write byte-identical manifests (same config,
    // same build) through the same temp name, so the loser's rename can
    // fail with ENOENT after the winner published. That race is benign:
    // whatever landed must still validate. A worker from a different
    // config lands in the validation path and is refused.
    const Status wrote = WriteFileAtomic(
        manifest_path,
        ManifestJson(fingerprint, GetBuildInfo().git_sha, num_targets),
        /*unique_temp=*/true);
    if (!wrote.ok() && !PathExists(manifest_path)) return wrote;
    TG_RETURN_IF_ERROR(ValidateManifest(workdir, fingerprint, num_targets));
  }

  // Janitor: a crash between an atomic writer's open and its rename leaves
  // `*.tmp` debris behind (deliberately -- see atomic_file.crash_before_
  // rename). Anything older than the lease horizon is dead weight.
  const size_t reclaimed = JanitorSweepTmpDebris(workdir, lease_sec);
  if (reclaimed > 0) {
    static obs::Counter& tmp_counter =
        obs::MetricsRegistry::Instance().GetCounter("sweep.tmp_reclaimed");
    tmp_counter.Increment(reclaimed);
    obs::EmitEvent("worker_tmp_reclaimed",
                   std::to_string(reclaimed) + " orphaned .tmp files",
                   workdir);
  }
  if (tmp_reclaimed != nullptr) *tmp_reclaimed = reclaimed;

  // Seed free tokens for unresolved, unclaimed targets and clear claim
  // debris for completed ones (a crash between shard publish and lease
  // unlink leaves a lease pointing at finished work).
  std::vector<uint8_t> has_free(num_targets, 0);
  std::vector<uint8_t> has_lease(num_targets, 0);
  for (const ClaimEntry& entry : ListClaims(workdir)) {
    if (entry.target >= num_targets) continue;
    if (entry.is_free) {
      has_free[entry.target] = 1;
    } else {
      has_lease[entry.target] = 1;
    }
  }
  for (size_t i = 0; i < num_targets; ++i) {
    if (TargetResolved(workdir, i)) {
      if (has_free[i]) std::remove(SweepFreePath(workdir, i).c_str());
      if (has_lease[i]) {
        for (const ClaimEntry& entry : ListClaims(workdir)) {
          if (!entry.is_free && entry.target == i) {
            std::remove(SweepLeasePath(workdir, i, entry.owner).c_str());
          }
        }
      }
      continue;
    }
    if (has_free[i] || has_lease[i]) continue;
    const Status seeded = WriteFileAtomic(SweepFreePath(workdir, i), "free\n",
                                          /*unique_temp=*/true);
    if (!seeded.ok()) {
      // Racing initializers share the token's temp name too; the seed only
      // genuinely failed if no token, lease, or shard exists afterwards
      // (a racing worker may even have claimed-and-finished it already).
      bool claimed_elsewhere = false;
      for (const ClaimEntry& entry : ListClaims(workdir)) {
        if (entry.target == i) {
          claimed_elsewhere = true;
          break;
        }
      }
      if (!claimed_elsewhere && !TargetResolved(workdir, i)) return seeded;
      continue;
    }
    // A racing worker may have published this target's shard between our
    // resolved check and the seed; retract the stale token so nobody
    // recomputes finished work. (If someone claims it first anyway, the
    // recompute is bit-identical -- wasteful, never wrong.)
    if (TargetResolved(workdir, i)) {
      std::remove(SweepFreePath(workdir, i).c_str());
    }
  }
  return Status::OK();
}

bool TryClaimFreeTarget(const std::string& workdir, size_t target,
                        const std::string& worker) {
  if (TG_FAULT_POINT("claim.rename")) return false;
  const std::string free_path = SweepFreePath(workdir, target);
  const std::string lease_path = SweepLeasePath(workdir, target, worker);
  // Plain rename(2): atomic, and with N workers renaming the same source
  // exactly one succeeds -- the losers see ENOENT. This is the entire
  // mutual-exclusion mechanism.
  if (std::rename(free_path.c_str(), lease_path.c_str()) != 0) return false;
  TouchNow(lease_path);  // rename kept the token's stale mtime
  return true;
}

bool TryStealExpiredLease(const std::string& workdir, size_t target,
                          const std::string& worker, double lease_sec,
                          std::string* victim) {
  if (victim != nullptr) victim->clear();
  // Find the current lease holder. At most one lease file exists per target
  // (it is only ever created by renaming the single free token or the
  // single previous lease).
  std::string owner;
  for (const ClaimEntry& entry : ListClaims(workdir)) {
    if (!entry.is_free && entry.target == target) {
      owner = entry.owner;
      break;
    }
  }
  if (owner.empty() || owner == worker) return false;
  const std::string victim_path = SweepLeasePath(workdir, target, owner);
  const double age = FileAgeSec(victim_path);
  if (age < lease_sec) return false;  // live owner, or lease vanished
  if (TG_FAULT_POINT("claim.rename")) return false;
  const std::string my_path = SweepLeasePath(workdir, target, worker);
  // Concurrent stealers race on the same source file: one rename wins.
  if (std::rename(victim_path.c_str(), my_path.c_str()) != 0) return false;
  TouchNow(my_path);
  if (victim != nullptr) *victim = owner;
  return true;
}

Status ReleaseLeaseToFree(const std::string& workdir, size_t target,
                          const std::string& worker) {
  if (TG_FAULT_POINT("claim.rename")) {
    // An unreleased lease is not leaked: it expires and gets stolen.
    return fault::InjectedFault("claim.rename");
  }
  const std::string lease_path = SweepLeasePath(workdir, target, worker);
  const std::string free_path = SweepFreePath(workdir, target);
  if (std::rename(lease_path.c_str(), free_path.c_str()) != 0) {
    if (errno == ENOENT) {
      return Status::NotFound("lease " + lease_path +
                              " no longer owned (stolen)");
    }
    return Status::Internal("release " + lease_path + ": " + ErrnoText());
  }
  TouchNow(free_path);
  return Status::OK();
}

Status RenewLease(const std::string& lease_path) {
  if (TG_FAULT_POINT("lease.renew")) {
    return fault::InjectedFault("lease.renew");
  }
  if (::utimensat(AT_FDCWD, lease_path.c_str(), nullptr, 0) != 0) {
    if (errno == ENOENT) {
      return Status::NotFound("lease " + lease_path + " gone");
    }
    return Status::Internal("renew " + lease_path + ": " + ErrnoText());
  }
  return Status::OK();
}

Status WriteSweepShard(const std::string& workdir, size_t target,
                       const std::string& fingerprint,
                       const TargetEvaluation& eval) {
  if (TG_FAULT_POINT("shard.write")) {
    return fault::InjectedFault("shard.write");
  }
  std::string json = ShardPayloadPrefix(fingerprint, target);
  json += ",\"target\":";
  AppendTargetEvaluationJson(eval, &json);
  json += "}\n";
  return WriteFileAtomic(SweepShardPath(workdir, target), json,
                         /*unique_temp=*/true);
}

Status WriteSweepFailedMarker(const std::string& workdir, size_t target,
                              const std::string& fingerprint,
                              const std::string& error) {
  if (TG_FAULT_POINT("shard.write")) {
    return fault::InjectedFault("shard.write");
  }
  std::string json = ShardPayloadPrefix(fingerprint, target);
  json += ",\"failed\":true,\"error\":" + JsonQuote(error);
  json += "}\n";
  return WriteFileAtomic(SweepFailedMarkerPath(workdir, target), json,
                         /*unique_temp=*/true);
}

Result<TargetEvaluation> ReadSweepShard(const std::string& workdir,
                                        size_t target,
                                        const std::string& fingerprint) {
  if (TG_FAULT_POINT("merge.read")) {
    return fault::InjectedFault("merge.read");
  }
  const std::string path = SweepShardPath(workdir, target);
  Result<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  Result<JsonValue> parsed = JsonValue::Parse(contents.value());
  if (!parsed.ok()) {
    return Status::InvalidArgument("shard " + path + ": torn or malformed: " +
                                   parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_number() ||
      schema->AsDouble() != kShardSchemaVersion) {
    return Status::InvalidArgument("shard " + path +
                                   ": unsupported schema version");
  }
  const JsonValue* sha = root.Find("build_git_sha");
  const std::string my_sha = GetBuildInfo().git_sha;
  if (sha == nullptr || !sha->is_string() || sha->AsString() != my_sha) {
    return Status::InvalidArgument(
        "shard " + path + ": stale build (shard " +
        (sha != nullptr ? sha->AsString() : std::string("?")) +
        ", merger " + my_sha + ")");
  }
  const JsonValue* fp = root.Find("fingerprint");
  if (fp == nullptr || !fp->is_string() || fp->AsString() != fingerprint) {
    return Status::InvalidArgument("shard " + path +
                                   ": configuration fingerprint mismatch");
  }
  const JsonValue* index = root.Find("target_index");
  if (index == nullptr || !index->is_number() ||
      index->AsDouble() != static_cast<double>(target)) {
    return Status::InvalidArgument("shard " + path +
                                   ": holds a different target index");
  }
  const JsonValue* inner = root.Find("target");
  if (inner == nullptr) {
    return Status::InvalidArgument("shard " + path + ": missing target");
  }
  Result<TargetEvaluation> eval = ParseTargetEvaluationJson(*inner);
  if (!eval.ok()) {
    return Status::InvalidArgument("shard " + path + ": " +
                                   eval.status().message());
  }
  return eval;
}

size_t JanitorSweepTmpDebris(const std::string& workdir, double age_sec) {
  std::vector<std::string> dirs = {workdir, SweepClaimsDir(workdir),
                                   SweepShardsDir(workdir),
                                   WorkersDir(workdir)};
  // Heartbeats live one level down: workers/<id>/heartbeat.json.tmp.
  if (DIR* workers = ::opendir(WorkersDir(workdir).c_str())) {
    while (struct dirent* entry = ::readdir(workers)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string sub = WorkersDir(workdir) + "/" + name;
      struct stat st;
      if (::stat(sub.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        dirs.push_back(sub);
      }
    }
    ::closedir(workers);
  }
  size_t reclaimed = 0;
  constexpr const char kTmp[] = ".tmp";
  const size_t tmp_len = sizeof(kTmp) - 1;
  for (const std::string& dir : dirs) {
    DIR* handle = ::opendir(dir.c_str());
    if (handle == nullptr) continue;
    while (struct dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name.size() <= tmp_len ||
          name.compare(name.size() - tmp_len, tmp_len, kTmp) != 0) {
        continue;
      }
      const std::string path = dir + "/" + name;
      const double age = FileAgeSec(path);
      // Young .tmp files may belong to a live writer mid-commit; only
      // debris older than the lease horizon is provably orphaned.
      if (age < age_sec) continue;
      if (std::remove(path.c_str()) == 0) ++reclaimed;
    }
    ::closedir(handle);
  }
  return reclaimed;
}

// --- Worker -----------------------------------------------------------------

Result<WorkerReport> RunSweepWorker(Pipeline* pipeline,
                                    const PipelineConfig& config,
                                    const DistributedSweepOptions& options) {
  if (pipeline == nullptr) {
    return Status::InvalidArgument("pipeline must be non-null");
  }
  if (options.workdir.empty()) {
    return Status::InvalidArgument("--workdir is required");
  }
  TG_RETURN_IF_ERROR(ValidateWorkerId(options.worker_id));
  if (options.lease_sec <= 0.0) {
    return Status::InvalidArgument("--lease-sec must be positive");
  }

  zoo::ModelZoo* zoo = pipeline->zoo();
  const std::vector<size_t> targets =
      zoo->EvaluationTargets(pipeline->modality());
  if (targets.empty()) {
    return Status::FailedPrecondition("no evaluation targets");
  }
  const std::string fingerprint =
      SweepFingerprint(config, pipeline->modality());
  const std::string& workdir = options.workdir;
  const std::string& worker = options.worker_id;

  WorkerReport report;
  report.targets_total = targets.size();
  TG_RETURN_IF_ERROR(InitializeSweepWorkdir(
      workdir, fingerprint, targets.size(), options.lease_sec,
      &report.tmp_reclaimed));
  TG_RETURN_IF_ERROR(MakeDir(WorkerDir(workdir, worker)));

  RenewerState renewer;
  std::thread renewer_thread(RenewerLoop, &renewer, workdir, worker,
                             targets.size(), options.lease_sec);
  auto update_renewer = [&](const std::string& lease_path, long target) {
    std::lock_guard<std::mutex> lock(renewer.mu);
    renewer.lease_path = lease_path;
    renewer.current_target = target;
    renewer.claims = report.claims;
    renewer.steals = report.steals;
    renewer.lease_expiries = report.lease_expiries;
    renewer.evaluated = report.evaluated;
    renewer.failed = report.failed;
  };

  const uint64_t worker_hash = HashId(worker);
  BackoffPolicy idle_policy = kBackoff;
  idle_policy.seed ^= worker_hash;
  Backoff idle_backoff(idle_policy);

  obs::EmitEvent("worker_begin", worker,
                 std::to_string(targets.size()) + " targets, workdir " +
                     workdir);

  // One target through the shared sweep step, then publish: the shard (or
  // the failed marker) lands on disk before the lease is unlinked. Returns
  // true iff the target is resolved afterwards.
  auto run_one = [&](size_t k) -> bool {
    const std::string lease_path = SweepLeasePath(workdir, k, worker);
    update_renewer(lease_path, static_cast<long>(k));
    const TargetEvaluation eval = pipeline->SweepTarget(
        config, targets[k], options.degrade_on_failure);
    const std::string& name = eval.target_name;
    if (eval.retries > 0) ++report.retried;
    if (eval.degraded) ++report.degraded;
    if (eval.failed) {
      ++report.failed;
      report.errors.push_back(name + ": " + eval.error);
    }

    BackoffPolicy write_policy = kBackoff;
    write_policy.seed ^= worker_hash ^ (k * 0x9e3779b97f4a7c15ull);
    Backoff write_backoff(write_policy);
    const std::string path = eval.failed ? SweepFailedMarkerPath(workdir, k)
                                         : SweepShardPath(workdir, k);
    Status published;
    bool on_disk = false;
    for (int attempt = 0; attempt < kShardWriteAttempts && !on_disk;
         ++attempt) {
      if (attempt > 0) write_backoff.SleepNext();
      published =
          eval.failed
              ? WriteSweepFailedMarker(workdir, k, fingerprint, eval.error)
              : WriteSweepShard(workdir, k, fingerprint, eval);
      // A thief that published the (bit-identical) duplicate first can make
      // our rename fail; the file being on disk is what matters.
      on_disk = published.ok() || PathExists(path);
    }
    if (on_disk) {
      if (!eval.failed) {
        ++report.evaluated;
        obs::EmitEvent("worker_shard", worker,
                       name + (eval.degraded ? " (degraded)" : ""));
      }
      // Publish-then-unlink: at every instant the target shows as leased or
      // completed, never unowned-and-unfinished. ENOENT just means the lease
      // was stolen mid-flight; the duplicate shard was identical.
      std::remove(lease_path.c_str());
    } else {
      report.errors.push_back(name + ": shard write failed: " +
                              published.ToString());
      obs::EmitEvent("worker_shard_write_failed", worker,
                     name + ": " + published.ToString());
      // Hand the target back; a worker with a healthier disk can retry.
      (void)ReleaseLeaseToFree(workdir, k, worker);
    }
    update_renewer("", -1);
    return on_disk;
  };

  const double stall_sec = options.stall_timeout_sec > 0.0
                               ? options.stall_timeout_sec
                               : std::max(60.0, 10.0 * options.lease_sec);
  double last_progress = MonotonicSec();
  size_t prev_resolved = 0;
  while (true) {
    if (SweepDrainRequested()) {
      report.drained = true;
      break;
    }
    size_t resolved = 0;
    bool progress = false;
    for (size_t k = 0; k < targets.size(); ++k) {
      // Drain finishes the in-flight target (run_one runs to completion
      // within an iteration) but claims nothing new.
      if (SweepDrainRequested()) break;
      if (TargetResolved(workdir, k)) {
        ++resolved;
        continue;
      }
      bool owned = false;
      std::string victim;
      if (TryClaimFreeTarget(workdir, k, worker)) {
        owned = true;
        ++report.claims;
        obs::EmitEvent("worker_claim", worker,
                       "target " + std::to_string(k));
      } else if (TryStealExpiredLease(workdir, k, worker, options.lease_sec,
                                      &victim)) {
        owned = true;
        ++report.steals;
        ++report.lease_expiries;
        obs::EmitEvent("worker_steal", worker,
                       "target " + std::to_string(k) + " from " + victim);
      }
      if (!owned) continue;
      progress = true;
      idle_backoff.Reset();
      if (run_one(k)) ++resolved;
    }
    if (SweepDrainRequested()) {
      report.drained = true;
      break;
    }
    if (resolved >= targets.size()) break;
    const double now = MonotonicSec();
    if (progress || resolved != prev_resolved) last_progress = now;
    prev_resolved = resolved;
    if (!progress) {
      if (now - last_progress > stall_sec) {
        report.errors.push_back(
            "stalled: no progress for " + std::to_string(stall_sec) +
            "s with " + std::to_string(targets.size() - resolved) +
            " unresolved targets");
        obs::EmitEvent("worker_stalled", worker,
                       std::to_string(targets.size() - resolved) +
                           " unresolved");
        break;
      }
      // Everything unresolved is leased by a live peer (or a claim race /
      // injected claim.rename fault just lost): back off with jitter, then
      // rescan -- a peer's shard, a freed token, or an expired lease will
      // show up.
      const double delay =
          std::max(options.poll_sec, idle_backoff.NextDelaySec());
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }

  // Final resolved census for the completion verdict (the loop's count can
  // be stale by one round when a peer published during our pass).
  size_t resolved = 0;
  for (size_t k = 0; k < targets.size(); ++k) {
    if (TargetResolved(workdir, k)) ++resolved;
  }
  report.complete = resolved == targets.size();

  {
    std::lock_guard<std::mutex> lock(renewer.mu);
    renewer.stop = true;
  }
  renewer.cv.notify_all();
  renewer_thread.join();
  // Final heartbeat so the drained/complete state is visible on disk even
  // after the renewer stopped.
  update_renewer("", -1);
  {
    std::lock_guard<std::mutex> lock(renewer.mu);
    renewer.drained = report.drained;
    (void)WriteFileAtomic(
        SweepHeartbeatPath(workdir, worker),
        HeartbeatJson(worker, renewer, targets.size(), options.lease_sec),
        /*unique_temp=*/true);
  }

  obs::EmitEvent(report.drained ? "worker_drain" : "worker_done", worker,
                 std::to_string(report.evaluated) + " evaluated, " +
                     std::to_string(report.claims) + " claims, " +
                     std::to_string(report.steals) + " steals, " +
                     std::to_string(resolved) + "/" +
                     std::to_string(targets.size()) + " resolved");
  return report;
}

// --- Merger -----------------------------------------------------------------

Result<MergeReport> MergeSweepShards(Pipeline* pipeline,
                                     const PipelineConfig& config,
                                     const std::string& workdir,
                                     const std::string& out_path) {
  if (pipeline == nullptr) {
    return Status::InvalidArgument("pipeline must be non-null");
  }
  if (out_path.empty()) {
    return Status::InvalidArgument("merge output path must be non-empty");
  }
  zoo::ModelZoo* zoo = pipeline->zoo();
  const std::vector<size_t> targets =
      zoo->EvaluationTargets(pipeline->modality());
  const std::string fingerprint =
      SweepFingerprint(config, pipeline->modality());
  if (!PathExists(SweepManifestPath(workdir))) {
    return Status::NotFound(workdir + " is not an initialized sweep workdir");
  }
  TG_RETURN_IF_ERROR(ValidateManifest(workdir, fingerprint, targets.size()));

  MergeReport report;
  report.targets_total = targets.size();
  std::vector<TargetEvaluation> evals;
  evals.reserve(targets.size());
  BackoffPolicy read_policy;
  read_policy.seed = HashId("sweep-merge");
  Backoff read_backoff(read_policy);
  for (size_t i = 0; i < targets.size(); ++i) {
    const std::string& name = zoo->datasets()[targets[i]].name;
    const std::string label = "target " + std::to_string(i) + " (" + name +
                              ")";
    if (PathExists(SweepFailedMarkerPath(workdir, i))) {
      std::string why = "unreadable marker";
      Result<std::string> marker =
          ReadFileToString(SweepFailedMarkerPath(workdir, i));
      if (marker.ok()) {
        Result<JsonValue> parsed = JsonValue::Parse(marker.value());
        if (parsed.ok()) {
          if (const JsonValue* err = parsed.value().Find("error");
              err != nullptr && err->is_string()) {
            why = err->AsString();
          }
        }
      }
      report.problems.push_back(label + ": failed: " + why);
      continue;
    }
    Result<TargetEvaluation> shard = Status::NotFound("unread");
    for (int attempt = 0; attempt < kShardReadAttempts; ++attempt) {
      shard = ReadSweepShard(workdir, i, fingerprint);
      if (shard.ok()) break;
      const StatusCode code = shard.status().code();
      // Missing and malformed/mismatched are permanent verdicts; only
      // transient I/O (injected merge.read, EIO) earns a retry.
      if (code == StatusCode::kNotFound ||
          code == StatusCode::kInvalidArgument) {
        break;
      }
      read_backoff.SleepNext();
    }
    if (!shard.ok()) {
      if (shard.status().code() == StatusCode::kNotFound) {
        report.problems.push_back(label + ": missing shard");
      } else {
        report.problems.push_back(label + ": " + shard.status().message());
      }
      continue;
    }
    const TargetEvaluation& eval = shard.value();
    // Duplicate / misplaced detection: a shard file that parses cleanly but
    // describes some other target (copied artifact, index collision).
    if (eval.target_dataset != targets[i] || eval.target_name != name) {
      report.problems.push_back(label + ": shard holds " + eval.target_name +
                                " (dataset " +
                                std::to_string(eval.target_dataset) + ")");
      continue;
    }
    evals.push_back(std::move(shard).value());
  }
  if (!report.ok()) {
    obs::EmitEvent("merge_failed", std::to_string(report.problems.size()) +
                                       " problem(s)");
    return report;
  }

  // Re-serialize through the checkpoint writer: same encoder, same field
  // order, same %.17g doubles, same build sha and fingerprint -- the merged
  // artifact is byte-identical to the final checkpoint of an uninterrupted
  // serial `sweep --checkpoint` run.
  SweepCheckpoint checkpoint;
  checkpoint.build_git_sha = GetBuildInfo().git_sha;
  checkpoint.fingerprint = fingerprint;
  checkpoint.targets = std::move(evals);
  TG_RETURN_IF_ERROR(SaveSweepCheckpoint(out_path, checkpoint));
  report.merged = targets.size();
  report.artifact_path = out_path;
  obs::EmitEvent("merge_done", std::to_string(report.merged) + " shards -> " +
                                   out_path);
  return report;
}

}  // namespace tg::core
