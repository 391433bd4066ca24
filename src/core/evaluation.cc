#include "core/evaluation.h"

#include "numeric/stats.h"
#include "util/check.h"

namespace tg::core {

StrategySummary Summarize(const std::string& name,
                          const std::vector<TargetEvaluation>& evals) {
  StrategySummary summary;
  summary.name = name;
  for (const TargetEvaluation& e : evals) {
    summary.target_names.push_back(e.target_name);
    summary.per_target_pearson.push_back(e.pearson);
    summary.per_target_spearman.push_back(e.spearman);
  }
  summary.mean_pearson = Mean(summary.per_target_pearson);
  summary.mean_spearman = Mean(summary.per_target_spearman);
  return summary;
}

StrategySummary EvaluateStrategy(Pipeline* pipeline,
                                 const PipelineConfig& config) {
  // A figure never mixes in a degraded target: any failure aborts the run.
  SweepOptions options;
  options.degrade_on_failure = false;
  const SweepResult result =
      pipeline->EvaluateAllTargetsResumable(config, options);
  TG_CHECK_MSG(result.complete, result.errors.empty()
                                    ? "sweep drained before completion"
                                    : result.errors.front().c_str());
  return Summarize(config.strategy.DisplayName(), result.evaluations);
}

}  // namespace tg::core
