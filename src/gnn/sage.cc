#include "gnn/sage.h"

#include <cmath>

#include "autograd/ops.h"

namespace tg::gnn {

EdgeIndex BuildEdgeIndex(const Graph& graph, bool add_self_loops) {
  EdgeIndex out;
  out.num_nodes = graph.num_nodes();
  for (const EdgeRecord& e : graph.edges()) {
    out.src.push_back(e.src);
    out.dst.push_back(e.dst);
    out.weight.push_back(std::max(e.weight, 1e-9));
    out.src.push_back(e.dst);
    out.dst.push_back(e.src);
    out.weight.push_back(std::max(e.weight, 1e-9));
  }
  if (add_self_loops) {
    for (size_t v = 0; v < graph.num_nodes(); ++v) {
      out.src.push_back(v);
      out.dst.push_back(v);
      out.weight.push_back(1.0);
    }
  }
  return out;
}

GraphSage::GraphSage(const EdgeIndex& edges, size_t in_dim,
                     const SageConfig& config, Rng* rng)
    : edges_(edges), config_(config) {
  TG_CHECK_GE(config.num_layers, 1);
  size_t dim = in_dim;
  for (int l = 0; l < config.num_layers; ++l) {
    const size_t out_dim = (l + 1 == config.num_layers) ? config.output_dim
                                                        : config.hidden_dim;
    Layer layer;
    layer.pre = std::make_unique<nn::Linear>(dim, dim, rng);
    layer.self = std::make_unique<nn::Linear>(dim, out_dim, rng);
    layer.neigh =
        std::make_unique<nn::Linear>(dim, out_dim, rng, /*use_bias=*/false);
    layers_.push_back(std::move(layer));
    dim = out_dim;
  }

  // Per-destination normalization: 1 / sum of incoming edge weights.
  Matrix inv_deg(edges.num_nodes, 1);
  for (size_t i = 0; i < edges.dst.size(); ++i) {
    inv_deg(edges.dst[i], 0) += edges.weight[i];
  }
  for (size_t v = 0; v < edges.num_nodes; ++v) {
    inv_deg(v, 0) = inv_deg(v, 0) > 0.0 ? 1.0 / inv_deg(v, 0) : 0.0;
  }
  inv_weighted_degree_ = autograd::MakeConstant(std::move(inv_deg));
  edge_weight_ = autograd::MakeConstant(Matrix::ColumnVector(edges.weight));
}

autograd::Var GraphSage::Aggregate(const Layer& layer,
                                   const autograd::Var& h) const {
  using namespace autograd;  // NOLINT(build/namespaces)
  // Transform each neighbor message, sum it weighted into the destination
  // nodes, and normalize the sum into a weighted mean.
  Var transformed = Relu(layer.pre->Forward(h));
  Var summed = WeightedNeighborSum(transformed, edges_.src, edges_.dst,
                                   edge_weight_, edges_.num_nodes);
  return MulColBroadcast(summed, inv_weighted_degree_);
}

autograd::Var GraphSage::Encode(const autograd::Var& features) const {
  using namespace autograd;  // NOLINT(build/namespaces)
  Var h = features;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    Var combined =
        Add(layer.self->Forward(h), layer.neigh->Forward(Aggregate(layer, h)));
    h = (l + 1 == layers_.size()) ? combined : Relu(combined);
  }
  if (config_.normalize_output) {
    // Row-wise L2 normalization via 1/||h_i|| column broadcast.
    Var norms = RowsDot(h, h);
    Var inv = autograd::Exp(Scale(Log(norms, 1e-12), -0.5));
    h = MulColBroadcast(h, inv);
  }
  return h;
}

std::vector<autograd::Var> GraphSage::Parameters() const {
  std::vector<autograd::Var> params;
  for (const Layer& layer : layers_) {
    for (const auto& p : layer.pre->Parameters()) params.push_back(p);
    for (const auto& p : layer.self->Parameters()) params.push_back(p);
    for (const auto& p : layer.neigh->Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace tg::gnn
