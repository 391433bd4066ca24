// Checkpoint persistence for the leave-one-out evaluation sweep: completed
// TargetEvaluations are saved after each target (atomically, see
// util/atomic_file.h) so an interrupted sweep resumes where it stopped
// instead of recomputing hours of work. See docs/robustness.md.
//
// The file is JSON, versioned by a schema number, and stamped with the
// build's git sha plus a fingerprint of the sweep configuration; a
// checkpoint from a different build or config is ignored (with a warning)
// rather than spliced into mismatched results, which preserves the
// bit-identity guarantee: resumed results equal an uninterrupted run.
#ifndef TG_CORE_SWEEP_CHECKPOINT_H_
#define TG_CORE_SWEEP_CHECKPOINT_H_

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "util/json_util.h"
#include "util/status.h"

namespace tg::core {

struct SweepCheckpoint {
  std::string build_git_sha;  // from GetBuildInfo() at save time
  std::string fingerprint;    // SweepFingerprint() of the config
  std::vector<TargetEvaluation> targets;  // completed evaluations only
};

// Deterministic digest of everything that affects sweep results: modality,
// strategy, every embedding input (EmbeddingConfigKey), predictor settings,
// label source, evaluation method. Two configs with equal fingerprints
// produce bit-identical evaluations.
std::string SweepFingerprint(const PipelineConfig& config,
                             zoo::Modality modality);

// Serializes and atomically publishes the checkpoint (temp + fsync +
// rename); an interrupted save leaves the previous checkpoint intact.
// Fault site: "checkpoint.write".
Status SaveSweepCheckpoint(const std::string& path,
                           const SweepCheckpoint& checkpoint);

// Loads and validates a checkpoint. NotFound if the file does not exist;
// InvalidArgument on schema mismatch, malformed JSON, non-finite scores, or
// inconsistent per-target arrays (treat any error as "start fresh").
// pearson/spearman are recomputed from the stored vectors, because the JSON
// encoder flattens non-finite values. Fault site: "checkpoint.read".
Result<SweepCheckpoint> LoadSweepCheckpoint(const std::string& path);

// The per-target JSON object used inside the checkpoint's "targets" array.
// Exposed so distributed-sweep shards (core/distributed_sweep.h) carry the
// byte-identical encoding: a merge of shards re-serialized through
// SaveSweepCheckpoint reproduces a serial checkpoint exactly. Doubles at
// %.17g so values round-trip bit-for-bit.
void AppendTargetEvaluationJson(const TargetEvaluation& eval,
                                std::string* out);

// Parses and validates one such object (the inverse of the appender);
// pearson/spearman are recomputed from the stored vectors. InvalidArgument
// on any malformed, non-finite, or inconsistent field.
Result<TargetEvaluation> ParseTargetEvaluationJson(const JsonValue& entry);

}  // namespace tg::core

#endif  // TG_CORE_SWEEP_CHECKPOINT_H_
