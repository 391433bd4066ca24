#include "gnn/gat.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace tg::gnn {

Gat::Gat(const EdgeIndex& edges, size_t in_dim, const GatConfig& config,
         Rng* rng)
    : edges_(edges), config_(config) {
  TG_CHECK_GE(config.num_layers, 1);
  TG_CHECK_GE(config.num_heads, 1);
  size_t dim = in_dim;
  for (int l = 0; l < config.num_layers; ++l) {
    const bool last = (l + 1 == config.num_layers);
    const size_t head_dim = last ? config.output_dim : config.hidden_dim;
    Layer layer;
    layer.concat = !last;
    for (int h = 0; h < config.num_heads; ++h) {
      Head head;
      head.transform =
          std::make_unique<nn::Linear>(dim, head_dim, rng, /*use_bias=*/false);
      head.attn_src =
          autograd::MakeParameter(nn::GlorotUniform(head_dim, 1, rng));
      head.attn_dst =
          autograd::MakeParameter(nn::GlorotUniform(head_dim, 1, rng));
      layer.heads.push_back(std::move(head));
    }
    dim = layer.concat ? head_dim * static_cast<size_t>(config.num_heads)
                       : head_dim;
    layers_.push_back(std::move(layer));
  }
}

autograd::Var Gat::RunHead(const Head& head, const autograd::Var& h) const {
  using namespace autograd;  // NOLINT(build/namespaces)
  Var wh = head.transform->Forward(h);  // nodes x head_dim
  // Per-node attention contributions, then gathered per edge.
  Var src_score = MatMul(wh, head.attn_src);  // nodes x 1
  Var dst_score = MatMul(wh, head.attn_dst);  // nodes x 1
  Var e = LeakyRelu(Add(GatherRows(src_score, edges_.src),
                        GatherRows(dst_score, edges_.dst)),
                    config_.leaky_relu_slope);
  Var alpha = SegmentSoftmax(e, edges_.dst);
  // The messages read wh through an exact identity node (x * 1.0), so
  // backward adds their gradient into wh after the two attention-score
  // gradients, not before. That is the summation order the pinned GAT
  // embeddings in tests/gnn_test.cc were recorded with.
  return WeightedNeighborSum(Scale(wh, 1.0), edges_.src, edges_.dst, alpha,
                             edges_.num_nodes);
}

autograd::Var Gat::Encode(const autograd::Var& features) const {
  using namespace autograd;  // NOLINT(build/namespaces)
  Var h = features;
  for (const Layer& layer : layers_) {
    std::vector<Var> head_outputs;
    head_outputs.reserve(layer.heads.size());
    for (const Head& head : layer.heads) {
      head_outputs.push_back(RunHead(head, h));
    }
    Var combined;
    if (layer.concat) {
      combined = head_outputs[0];
      for (size_t i = 1; i < head_outputs.size(); ++i) {
        combined = ConcatCols(combined, head_outputs[i]);
      }
      combined = Elu(combined);
    } else {
      combined = head_outputs[0];
      for (size_t i = 1; i < head_outputs.size(); ++i) {
        combined = Add(combined, head_outputs[i]);
      }
      combined = Scale(combined, 1.0 / static_cast<double>(
                                          head_outputs.size()));
    }
    h = combined;
  }
  return h;
}

std::vector<autograd::Var> Gat::Parameters() const {
  std::vector<autograd::Var> params;
  for (const Layer& layer : layers_) {
    for (const Head& head : layer.heads) {
      for (const auto& p : head.transform->Parameters()) params.push_back(p);
      params.push_back(head.attn_src);
      params.push_back(head.attn_dst);
    }
  }
  return params;
}

}  // namespace tg::gnn
