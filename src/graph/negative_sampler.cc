#include "graph/negative_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace tg {

namespace {

std::vector<double> DegreesPowered(const Graph& graph, double power) {
  std::vector<double> freqs(graph.num_nodes());
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    // +1 smoothing keeps isolated nodes sampleable.
    freqs[id] = std::pow(static_cast<double>(graph.degree(id)) + 1.0, power);
  }
  return freqs;
}

std::vector<double> Powered(const std::vector<double>& frequencies,
                            double power) {
  std::vector<double> powered(frequencies.size());
  for (size_t i = 0; i < frequencies.size(); ++i) {
    powered[i] = std::pow(frequencies[i], power);
  }
  return powered;
}

}  // namespace

UnigramNegativeSampler::UnigramNegativeSampler(const Graph& graph,
                                               double power)
    : table_(DegreesPowered(graph, power)) {}

// Member-init so the table is built exactly once (no default-construct +
// move-assign). Callers (e.g. SkipGramTrainer::Train) construct one sampler
// per training run, never per epoch.
UnigramNegativeSampler::UnigramNegativeSampler(
    const std::vector<double>& frequencies, double power)
    : table_(Powered(frequencies, power)) {}

NodeId UnigramNegativeSampler::Sample(Rng* rng) const {
  return static_cast<NodeId>(table_.Sample(rng));
}

std::vector<std::pair<NodeId, NodeId>> SampleNegativeEdges(const Graph& graph,
                                                           size_t count,
                                                           Rng* rng) {
  const size_t n = graph.num_nodes();
  TG_CHECK_GT(n, 1u);
  // taken[a * n + b], a < b: an edge of the graph, or a pair already drawn.
  std::vector<uint8_t> taken(n * n, 0);
  for (const EdgeRecord& e : graph.edges()) {
    taken[std::min(e.src, e.dst) * n + std::max(e.src, e.dst)] = 1;
  }
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(count);
  size_t attempts = 0;
  const size_t max_attempts = count * 200 + 1000;
  while (out.size() < count && attempts < max_attempts) {
    ++attempts;
    NodeId a = static_cast<NodeId>(rng->NextBelow(n));
    NodeId b = static_cast<NodeId>(rng->NextBelow(n));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    uint8_t& slot = taken[a * n + b];
    if (slot != 0) continue;
    slot = 1;
    out.emplace_back(a, b);
  }
  return out;
}

}  // namespace tg
