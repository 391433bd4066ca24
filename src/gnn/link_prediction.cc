#include "gnn/link_prediction.h"

#include "autograd/ops.h"
#include "graph/negative_sampler.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tg::gnn {

LinkPredictionResult TrainLinkPrediction(
    const Graph& graph, Encoder* encoder, const Matrix& features,
    const std::vector<std::pair<NodeId, NodeId>>& labeled_negatives,
    const LinkPredictionConfig& config, Rng* rng) {
  using namespace autograd;  // NOLINT(build/namespaces)
  TG_CHECK_EQ(features.rows(), graph.num_nodes());
  TG_TRACE_SPAN("link_prediction_train");

  std::vector<std::pair<NodeId, NodeId>> positives;
  positives.reserve(graph.edges().size());
  for (const EdgeRecord& e : graph.edges()) positives.emplace_back(e.src, e.dst);

  Var feature_var = MakeConstant(features);
  nn::Adam optimizer(encoder->Parameters(), config.learning_rate, 0.9, 0.999,
                     1e-8, config.weight_decay);

  LinkPredictionResult result;
  const size_t num_sampled = static_cast<size_t>(
      config.sampled_negative_ratio * static_cast<double>(positives.size()));

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Assemble this epoch's supervision: all positives, all labeled
    // negatives, plus freshly sampled non-edges.
    std::vector<size_t> u_idx;
    std::vector<size_t> v_idx;
    std::vector<double> labels;
    auto add_pair = [&](NodeId a, NodeId b, double label) {
      u_idx.push_back(a);
      v_idx.push_back(b);
      labels.push_back(label);
    };
    for (const auto& [a, b] : positives) add_pair(a, b, 1.0);
    for (const auto& [a, b] : labeled_negatives) add_pair(a, b, 0.0);
    for (const auto& [a, b] : SampleNegativeEdges(graph, num_sampled, rng)) {
      add_pair(a, b, 0.0);
    }

    optimizer.ZeroGrad();
    Var z = encoder->Encode(feature_var);
    Var logits = PairDot(z, std::move(u_idx), std::move(v_idx));
    Var loss = BceWithLogits(
        logits, MakeConstant(Matrix::ColumnVector(labels)));
    Backward(loss);
    optimizer.Step();

    result.loss_curve.push_back(loss->value()(0, 0));
    if (epoch % 50 == 0) {
      TG_LOG(Debug) << "link-prediction epoch " << epoch << " loss "
                    << result.loss_curve.back();
    }
  }

  result.embeddings = encoder->Encode(feature_var)->value();
  return result;
}

}  // namespace tg::gnn
