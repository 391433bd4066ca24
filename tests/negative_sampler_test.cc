#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/negative_sampler.h"

namespace tg {
namespace {

Graph RingGraph(size_t n) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(NodeType::kDataset, "n" + std::to_string(i));
  }
  for (size_t i = 0; i < n; ++i) {
    g.AddUndirectedEdge(static_cast<NodeId>(i),
                        static_cast<NodeId>((i + 1) % n),
                        EdgeType::kDatasetDataset, 1.0);
  }
  return g;
}

TEST(NegativeSamplerTest, SampledPairsAreNonEdges) {
  Graph g = RingGraph(12);
  Rng rng(1);
  auto negatives = SampleNegativeEdges(g, 20, &rng);
  EXPECT_EQ(negatives.size(), 20u);
  for (const auto& [a, b] : negatives) {
    EXPECT_NE(a, b);
    EXPECT_FALSE(g.HasEdgeBetween(a, b));
  }
}

TEST(NegativeSamplerTest, NoDuplicatesWithinCall) {
  Graph g = RingGraph(10);
  Rng rng(2);
  auto negatives = SampleNegativeEdges(g, 15, &rng);
  std::set<std::pair<NodeId, NodeId>> seen(negatives.begin(),
                                           negatives.end());
  EXPECT_EQ(seen.size(), negatives.size());
}

TEST(NegativeSamplerTest, SaturatedGraphReturnsFewer) {
  // Complete graph on 4 nodes has no non-edges.
  Graph g;
  for (int i = 0; i < 4; ++i) {
    g.AddNode(NodeType::kModel, "m" + std::to_string(i));
  }
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) {
      g.AddUndirectedEdge(a, b, EdgeType::kDatasetDataset, 1.0);
    }
  }
  Rng rng(3);
  auto negatives = SampleNegativeEdges(g, 10, &rng);
  EXPECT_TRUE(negatives.empty());
}

// FNV-1a over the pair count and every pair in order.
uint64_t HashPairs(const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (x >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  mix(pairs.size());
  for (const auto& [a, b] : pairs) {
    mix(a);
    mix(b);
  }
  return hash;
}

// The draws and the decisions per draw (self pair, repeat, edge) are a
// contract: GNN training consumes this rng stream. Hashes recorded from the
// seen-set and adjacency-scan sampler: a dense random multigraph (300 draws
// of an edge over 30 nodes, so many pairs carry two or more edges), the
// 12-node ring, and a count above the 6-node ring's nine non-edges, which
// runs out of attempts.
TEST(NegativeSamplerTest, SampledPairsPinned) {
  Graph dense;
  for (int i = 0; i < 30; ++i) {
    dense.AddNode(NodeType::kDataset, "d" + std::to_string(i));
  }
  Rng build(11);
  for (int e = 0; e < 300; ++e) {
    const NodeId a = static_cast<NodeId>(build.NextBelow(30));
    NodeId b = static_cast<NodeId>(build.NextBelow(29));
    if (b >= a) ++b;
    dense.AddUndirectedEdge(a, b, EdgeType::kDatasetDataset, 1.0);
  }
  Rng rng_dense(12);
  const auto dense_pairs = SampleNegativeEdges(dense, 150, &rng_dense);
  EXPECT_EQ(dense_pairs.size(), 150u);
  EXPECT_EQ(HashPairs(dense_pairs), 0x7966bc387b94e7bbULL);

  Rng rng_ring(13);
  const auto ring_pairs = SampleNegativeEdges(RingGraph(12), 40, &rng_ring);
  EXPECT_EQ(ring_pairs.size(), 40u);
  EXPECT_EQ(HashPairs(ring_pairs), 0x92cb3863910e06a0ULL);

  Rng rng_exhaust(14);
  const auto exhaust_pairs =
      SampleNegativeEdges(RingGraph(6), 20, &rng_exhaust);
  EXPECT_EQ(exhaust_pairs.size(), 9u);
  EXPECT_EQ(HashPairs(exhaust_pairs), 0x8504805863c709abULL);
}

TEST(UnigramSamplerTest, HigherDegreeSampledMoreOften) {
  // Star graph: center has degree n-1, leaves degree 1.
  Graph g;
  NodeId center = g.AddNode(NodeType::kModel, "center");
  for (int i = 0; i < 9; ++i) {
    NodeId leaf = g.AddNode(NodeType::kDataset, "leaf" + std::to_string(i));
    g.AddUndirectedEdge(center, leaf, EdgeType::kModelDatasetAccuracy, 1.0);
  }
  UnigramNegativeSampler sampler(g, 0.75);
  Rng rng(4);
  int center_hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (sampler.Sample(&rng) == center) ++center_hits;
  }
  // Center frequency ~ 10^0.75 / (10^0.75 + 9 * 2^0.75) ~ 0.27.
  EXPECT_GT(center_hits, n / 5);
  EXPECT_LT(center_hits, n / 2);
}

TEST(UnigramSamplerTest, FrequencyConstructor) {
  UnigramNegativeSampler sampler({1.0, 100.0}, 1.0);
  Rng rng(5);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) {
    if (sampler.Sample(&rng) == 1) ++ones;
  }
  EXPECT_GT(ones, 9500);
}

}  // namespace
}  // namespace tg
