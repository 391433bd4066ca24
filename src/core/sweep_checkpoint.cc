#include "core/sweep_checkpoint.h"

#include <cmath>
#include <limits>

#include "numeric/kernel_backend.h"
#include "numeric/stats.h"
#include "util/atomic_file.h"
#include "util/build_info.h"
#include "util/fault.h"
#include "util/json_util.h"

namespace tg::core {
namespace {

constexpr int kSchemaVersion = 1;

// Doubles are emitted at %.17g so strtod round-trips them exactly --
// required for the resume bit-identity guarantee.
constexpr int kDoublePrecision = 17;

void AppendDoubleArray(const std::vector<double>& values, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += JsonNumber(values[i], kDoublePrecision);
  }
  out->push_back(']');
}

Status BadCheckpoint(const std::string& path, const std::string& why) {
  return Status::InvalidArgument("checkpoint " + path + ": " + why);
}

// Reads a JSON array of finite numbers into `out` (NaN would poison
// correlations silently).
bool ReadFiniteArray(const JsonValue* value, std::vector<double>* out) {
  if (value == nullptr || !value->is_array()) return false;
  out->clear();
  out->reserve(value->size());
  for (size_t i = 0; i < value->size(); ++i) {
    const JsonValue& element = value->at(i);
    if (!element.is_number()) return false;
    const double v = element.AsDouble();
    if (!std::isfinite(v)) return false;
    out->push_back(v);
  }
  return true;
}

// 2^53: below it a double represents every integer exactly, and the cast
// to size_t is defined.
constexpr double kIndexLimit = 9007199254740992.0;
constexpr double kRetriesLimit =
    static_cast<double>(std::numeric_limits<int>::max()) + 1.0;

// True iff `value` is a JSON number holding an integer in [0, limit). NaN
// and infinities fail the range test.
bool IsIntegerBelow(const JsonValue& value, double limit) {
  if (!value.is_number()) return false;
  const double v = value.AsDouble();
  return v >= 0.0 && v < limit && v == std::floor(v);
}

}  // namespace

std::string SweepFingerprint(const PipelineConfig& config,
                             zoo::Modality modality) {
  std::string fp = ModalityName(modality);
  fp += "|f=";
  fp += FeatureSetName(config.strategy.features);
  fp += "|p=";
  fp += PredictorKindName(config.strategy.predictor);
  fp += "|l=" + EmbeddingConfigKey(config);
  fp += PredictorSettingsKey(config.predictor);
  fp += "|em=" + std::string(zoo::FineTuneMethodName(config.evaluation_method));
  fp += "|tl=" + std::to_string(config.use_transferability_labels);
  // Vector backends round differently from `scalar`, so results computed
  // under one TG_ISA must not resume or merge under another.
  fp += "|isa=" + std::string(kernels::ActiveBackendName());
  return fp;
}

Status SaveSweepCheckpoint(const std::string& path,
                           const SweepCheckpoint& checkpoint) {
  if (TG_FAULT_POINT("checkpoint.write")) {
    return fault::InjectedFault("checkpoint.write");
  }
  std::string json = "{\"schema\":" + std::to_string(kSchemaVersion);
  json += ",\"build_git_sha\":" + JsonQuote(checkpoint.build_git_sha);
  json += ",\"fingerprint\":" + JsonQuote(checkpoint.fingerprint);
  json += ",\"targets\":[";
  for (size_t i = 0; i < checkpoint.targets.size(); ++i) {
    if (i > 0) json.push_back(',');
    AppendTargetEvaluationJson(checkpoint.targets[i], &json);
  }
  json += "]}\n";
  // unique_temp: checkpoints and merged artifacts may be written by several
  // processes racing on one path (see distributed_sweep.h); a per-writer
  // temp name keeps every replace whole-file (last-writer-wins, no torn
  // reads).
  return WriteFileAtomic(path, json, /*unique_temp=*/true);
}

Result<SweepCheckpoint> LoadSweepCheckpoint(const std::string& path) {
  if (TG_FAULT_POINT("checkpoint.read")) {
    return fault::InjectedFault("checkpoint.read");
  }
  Result<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  Result<JsonValue> parsed = JsonValue::Parse(contents.value());
  if (!parsed.ok()) {
    return BadCheckpoint(path, parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  if (!root.is_object()) return BadCheckpoint(path, "root is not an object");
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_number() ||
      schema->AsDouble() != kSchemaVersion) {
    return BadCheckpoint(path, "unsupported schema version");
  }

  SweepCheckpoint checkpoint;
  if (const JsonValue* sha = root.Find("build_git_sha");
      sha != nullptr && sha->is_string()) {
    checkpoint.build_git_sha = sha->AsString();
  }
  if (const JsonValue* fp = root.Find("fingerprint");
      fp != nullptr && fp->is_string()) {
    checkpoint.fingerprint = fp->AsString();
  }
  const JsonValue* targets = root.Find("targets");
  if (targets == nullptr || !targets->is_array()) {
    return BadCheckpoint(path, "missing targets array");
  }
  for (size_t i = 0; i < targets->size(); ++i) {
    Result<TargetEvaluation> eval = ParseTargetEvaluationJson(targets->at(i));
    if (!eval.ok()) {
      return BadCheckpoint(path, eval.status().message());
    }
    checkpoint.targets.push_back(std::move(eval).value());
  }
  return checkpoint;
}

void AppendTargetEvaluationJson(const TargetEvaluation& eval,
                                std::string* out) {
  *out += "{\"target_dataset\":" + std::to_string(eval.target_dataset);
  *out += ",\"target_name\":" + JsonQuote(eval.target_name);
  *out += ",\"degraded\":" + std::string(eval.degraded ? "true" : "false");
  *out += ",\"retries\":" + std::to_string(eval.retries);
  *out += ",\"model_indices\":[";
  for (size_t m = 0; m < eval.model_indices.size(); ++m) {
    if (m > 0) out->push_back(',');
    *out += std::to_string(eval.model_indices[m]);
  }
  *out += "],\"predicted\":";
  AppendDoubleArray(eval.predicted, out);
  *out += ",\"actual\":";
  AppendDoubleArray(eval.actual, out);
  *out += "}";
}

Result<TargetEvaluation> ParseTargetEvaluationJson(const JsonValue& entry) {
  if (!entry.is_object()) {
    return Status::InvalidArgument("target not an object");
  }
  TargetEvaluation eval;
  const JsonValue* dataset = entry.Find("target_dataset");
  if (dataset == nullptr || !IsIntegerBelow(*dataset, kIndexLimit)) {
    return Status::InvalidArgument("bad target_dataset");
  }
  eval.target_dataset = static_cast<size_t>(dataset->AsDouble());
  const JsonValue* name = entry.Find("target_name");
  if (name == nullptr || !name->is_string() || name->AsString().empty()) {
    return Status::InvalidArgument("bad target_name");
  }
  eval.target_name = name->AsString();
  if (const JsonValue* degraded = entry.Find("degraded");
      degraded != nullptr) {
    if (!degraded->is_bool()) return Status::InvalidArgument("bad degraded");
    eval.degraded = degraded->AsBool();
  }
  if (const JsonValue* retries = entry.Find("retries"); retries != nullptr) {
    if (!IsIntegerBelow(*retries, kRetriesLimit)) {
      return Status::InvalidArgument("bad retries");
    }
    eval.retries = static_cast<int>(retries->AsDouble());
  }
  const JsonValue* indices = entry.Find("model_indices");
  if (indices == nullptr || !indices->is_array()) {
    return Status::InvalidArgument("bad model_indices");
  }
  eval.model_indices.reserve(indices->size());
  for (size_t i = 0; i < indices->size(); ++i) {
    if (!IsIntegerBelow(indices->at(i), kIndexLimit)) {
      return Status::InvalidArgument("bad model index");
    }
    eval.model_indices.push_back(
        static_cast<size_t>(indices->at(i).AsDouble()));
  }
  if (!ReadFiniteArray(entry.Find("predicted"), &eval.predicted) ||
      !ReadFiniteArray(entry.Find("actual"), &eval.actual)) {
    return Status::InvalidArgument("bad score arrays");
  }
  if (eval.predicted.size() != eval.model_indices.size() ||
      eval.actual.size() != eval.model_indices.size() ||
      eval.model_indices.empty()) {
    return Status::InvalidArgument("inconsistent per-target arrays");
  }
  // Correlations are derived state; recompute instead of trusting (or
  // round-tripping) the file.
  eval.pearson = PearsonCorrelation(eval.predicted, eval.actual);
  eval.spearman = SpearmanCorrelation(eval.predicted, eval.actual);
  return eval;
}

}  // namespace tg::core
