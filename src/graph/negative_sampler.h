// Negative sampling utilities:
//   * UnigramNegativeSampler: degree^power distribution over nodes, the
//     word2vec-style table used by skip-gram training (power 0.75).
//   * SampleNegativeEdges: uniform non-edges for link-prediction training.
#ifndef TG_GRAPH_NEGATIVE_SAMPLER_H_
#define TG_GRAPH_NEGATIVE_SAMPLER_H_

#include <utility>
#include <vector>

#include "graph/alias_table.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace tg {

class UnigramNegativeSampler {
 public:
  // Node frequencies are (weighted) degrees raised to `power`.
  UnigramNegativeSampler(const Graph& graph, double power = 0.75);
  // Directly from token frequencies (skip-gram over an arbitrary corpus).
  UnigramNegativeSampler(const std::vector<double>& frequencies, double power);

  NodeId Sample(Rng* rng) const;

  // Cache hint: prefetch the alias-table entry the next Sample(rng) call
  // will read (peeks on a copy; `rng` is not advanced). See AliasTable.
  void PrefetchNext(const Rng& rng) const { table_.PrefetchNext(rng); }

 private:
  AliasTable table_;
};

// Samples `count` (src, dst) pairs that are not edges in the graph (and not
// self loops). Pairs may repeat across calls but not within one call. Fewer
// come back when count * 200 + 1000 draws do not find them all. Each call
// marks edges and drawn pairs in an n x n byte map (3 KB at 56 nodes,
// 70 KB at the paper's 265).
std::vector<std::pair<NodeId, NodeId>> SampleNegativeEdges(const Graph& graph,
                                                           size_t count,
                                                           Rng* rng);

}  // namespace tg

#endif  // TG_GRAPH_NEGATIVE_SAMPLER_H_
