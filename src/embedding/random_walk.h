// Second-order biased random walks over the model-zoo graph.
//
// Node2Vec (Grover & Leskovec 2016): given the previous node t and current
// node v, a candidate next hop x receives bias
//     1/p  if x == t            (return)
//     1    if x is adjacent to t (BFS-like)
//     1/q  otherwise            (DFS-like)
// multiplied by the edge weight w(v, x).
//
// Node2Vec+ (Liu, Hirn & Krishnan 2023) extends the rule to weighted graphs:
// whether x counts as "adjacent to t" depends on the *weight* of (x, t)
// relative to the mean incident weights of x and t, and loosely connected
// pairs interpolate between the 1/q and 1 regimes:
//     bias(x | t) = 1/q + (1 - 1/q) * min(1, w(x,t) / thr(x,t)),
//     thr(x,t) = min(mean incident weight of x, of t).
#ifndef TG_EMBEDDING_RANDOM_WALK_H_
#define TG_EMBEDDING_RANDOM_WALK_H_

#include <vector>

#include "graph/alias_table.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace tg {

struct WalkConfig {
  int walks_per_node = 10;
  int walk_length = 40;
  double p = 1.0;  // return parameter
  double q = 1.0;  // in-out parameter
  // false: classic node2vec second-order bias (edge weights still scale the
  // transition); true: node2vec+ weighted in/out classification.
  bool extended = false;
};

class RandomWalkGenerator {
 public:
  // The graph must outlive the generator.
  RandomWalkGenerator(const Graph& graph, const WalkConfig& config);

  // One walk starting at `start`. Stops early at isolated nodes.
  std::vector<NodeId> Walk(NodeId start, Rng* rng) const;

  // walks_per_node walks from every node, in node-shuffled order per pass.
  // Walks are generated in parallel on the global pool; each walk runs on an
  // Rng forked from (rng's seed, walk index), so the output is bit-identical
  // for any thread count given a fixed seed.
  std::vector<std::vector<NodeId>> GenerateAll(Rng* rng) const;

  // Exposed for tests: the unnormalized transition bias of candidate x given
  // previous node t at current node v (excludes the w(v,x) factor).
  double TransitionBias(NodeId prev, NodeId candidate) const;

 private:
  // Sum of the weights of every edge between a and b (0 if none), scanning
  // the shorter neighbour list.
  double EdgeWeightBetween(NodeId a, NodeId b) const;

  const Graph& graph_;
  WalkConfig config_;
  std::vector<AliasTable> first_step_;       // per-node first-order sampling
  std::vector<double> mean_incident_weight_;  // node2vec+ thresholds
  // Dense N x N table: pair_weight_[a * N + b] == EdgeWeightBetween(a, b),
  // so a walk step costs O(deg) rather than O(deg^2).
  std::vector<double> pair_weight_;
};

}  // namespace tg

#endif  // TG_EMBEDDING_RANDOM_WALK_H_
