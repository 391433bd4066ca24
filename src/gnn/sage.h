// GraphSAGE with mean aggregation (Hamilton et al. 2017), full batch.
// Layer update (paper Eq. 4):
//   h_i' = ReLU( W_self h_i + W_neigh * mean_{n in N(i)} ReLU(Q h_n) + b )
// The inner ReLU(Q h_n) transform follows the paper's formulation; the mean
// uses edge weights as aggregation coefficients (normalized per node).
#ifndef TG_GNN_SAGE_H_
#define TG_GNN_SAGE_H_

#include <memory>
#include <vector>

#include "gnn/encoder.h"
#include "nn/linear.h"
#include "util/rng.h"

namespace tg::gnn {

struct SageConfig {
  size_t hidden_dim = 64;
  size_t output_dim = 128;
  int num_layers = 2;
  // L2-normalize the final embeddings (as in the original GraphSAGE).
  bool normalize_output = true;
};

class GraphSage : public Encoder {
 public:
  GraphSage(const EdgeIndex& edges, size_t in_dim, const SageConfig& config,
            Rng* rng);

  autograd::Var Encode(const autograd::Var& features) const override;
  std::vector<autograd::Var> Parameters() const override;
  size_t output_dim() const override { return config_.output_dim; }

 private:
  struct Layer {
    std::unique_ptr<nn::Linear> self;
    std::unique_ptr<nn::Linear> neigh;
    std::unique_ptr<nn::Linear> pre;  // the Q transform inside aggregation
  };

  autograd::Var Aggregate(const Layer& layer, const autograd::Var& h) const;

  EdgeIndex edges_;
  SageConfig config_;
  std::vector<Layer> layers_;
  autograd::Var inv_weighted_degree_;  // (num_nodes x 1) constant
  autograd::Var edge_weight_;          // (num_edges x 1) constant
};

}  // namespace tg::gnn

#endif  // TG_GNN_SAGE_H_
