#include "embedding/random_walk.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace tg {
namespace {

// Stream-id base separating per-walk forks from other forks callers may
// derive from the same seed (e.g. the skip-gram position streams).
constexpr uint64_t kWalkStreamBase = 0x57A1C000ULL;

}  // namespace

RandomWalkGenerator::RandomWalkGenerator(const Graph& graph,
                                         const WalkConfig& config)
    : graph_(graph), config_(config) {
  TG_CHECK_GT(config.p, 0.0);
  TG_CHECK_GT(config.q, 0.0);
  first_step_.resize(graph.num_nodes());
  mean_incident_weight_.resize(graph.num_nodes(), 0.0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto& nbrs = graph.neighbors(v);
    if (nbrs.empty()) continue;
    std::vector<double> weights(nbrs.size());
    double total = 0.0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      weights[i] = std::max(nbrs[i].weight, 1e-9);
      total += weights[i];
    }
    first_step_[v] = AliasTable(weights);
    mean_incident_weight_[v] = total / static_cast<double>(nbrs.size());
  }
  // Every ordered adjacent pair's summed weight, filled by the scan itself so
  // its summation order over repeated typed edges is kept; a non-adjacent
  // pair keeps the 0.0 the scan would return.
  const size_t n = graph.num_nodes();
  pair_weight_.assign(n * n, 0.0);
  for (NodeId a = 0; a < n; ++a) {
    for (const Neighbor& nbr : graph.neighbors(a)) {
      pair_weight_[a * n + nbr.node] = EdgeWeightBetween(a, nbr.node);
      pair_weight_[nbr.node * n + a] = EdgeWeightBetween(nbr.node, a);
    }
  }
}

double RandomWalkGenerator::EdgeWeightBetween(NodeId a, NodeId b) const {
  // Multiple typed edges may connect the same pair; their mass adds up.
  double total = 0.0;
  const auto& smaller =
      graph_.degree(a) <= graph_.degree(b) ? graph_.neighbors(a)
                                           : graph_.neighbors(b);
  const NodeId other = graph_.degree(a) <= graph_.degree(b) ? b : a;
  for (const Neighbor& n : smaller) {
    if (n.node == other) total += std::max(n.weight, 0.0);
  }
  return total;
}

double RandomWalkGenerator::TransitionBias(NodeId prev,
                                           NodeId candidate) const {
  if (candidate == prev) return 1.0 / config_.p;
  const double w_ct =
      pair_weight_[static_cast<size_t>(candidate) * graph_.num_nodes() + prev];
  if (!config_.extended) {
    // Classic node2vec: any edge to the previous node counts as "in".
    return w_ct > 0.0 ? 1.0 : 1.0 / config_.q;
  }
  // Node2Vec+: interpolate by connection strength relative to the local
  // mean incident weights.
  const double thr = std::max(
      std::min(mean_incident_weight_[candidate], mean_incident_weight_[prev]),
      1e-12);
  const double strength = std::min(1.0, w_ct / thr);
  const double inv_q = 1.0 / config_.q;
  return inv_q + (1.0 - inv_q) * strength;
}

std::vector<NodeId> RandomWalkGenerator::Walk(NodeId start, Rng* rng) const {
  std::vector<NodeId> walk;
  walk.reserve(config_.walk_length);
  walk.push_back(start);
  if (graph_.degree(start) == 0) return walk;

  // First step: first-order weighted sampling.
  NodeId prev = start;
  NodeId cur = graph_.neighbors(start)[first_step_[start].Sample(rng)].node;
  walk.push_back(cur);

  std::vector<double> biased;
  while (static_cast<int>(walk.size()) < config_.walk_length) {
    const auto& nbrs = graph_.neighbors(cur);
    if (nbrs.empty()) break;
    biased.resize(nbrs.size());
    double total = 0.0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      biased[i] = std::max(nbrs[i].weight, 1e-9) *
                  TransitionBias(prev, nbrs[i].node);
      total += biased[i];
    }
    // Inverse-CDF over the (small) neighbor list.
    double u = rng->NextDouble() * total;
    size_t pick = nbrs.size() - 1;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      u -= biased[i];
      if (u <= 0.0) {
        pick = i;
        break;
      }
    }
    prev = cur;
    cur = nbrs[pick].node;
    walk.push_back(cur);
  }
  return walk;
}

std::vector<std::vector<NodeId>> RandomWalkGenerator::GenerateAll(
    Rng* rng) const {
  TG_TRACE_SPAN("walk_corpus");
  // The start schedule (node order per pass) is drawn sequentially from the
  // caller's rng; the walks themselves each run on an Rng forked from the
  // walk's global index, so the fan-out below is bit-identical for any
  // thread count (chunking only affects scheduling, never the streams).
  std::vector<NodeId> nodes(graph_.num_nodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  std::vector<NodeId> starts;
  starts.reserve(nodes.size() * static_cast<size_t>(config_.walks_per_node));
  for (int pass = 0; pass < config_.walks_per_node; ++pass) {
    rng->Shuffle(&nodes);
    starts.insert(starts.end(), nodes.begin(), nodes.end());
  }

  std::vector<std::vector<NodeId>> walks(starts.size());
  constexpr size_t kWalkGrain = 64;
  ParallelFor(0, starts.size(), kWalkGrain,
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t i = begin; i < end; ++i) {
                  Rng walk_rng = rng->Fork(kWalkStreamBase + i);
                  walks[i] = Walk(starts[i], &walk_rng);
                }
              });
  return walks;
}

}  // namespace tg
