#include <cstdint>
#include <map>

#include <gtest/gtest.h>

#include "embedding/random_walk.h"

namespace tg {
namespace {

Graph PathGraph(size_t n) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(NodeType::kDataset, "n" + std::to_string(i));
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddUndirectedEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                        EdgeType::kDatasetDataset, 1.0);
  }
  return g;
}

Graph TriangleWithTail() {
  // 0-1-2 triangle, 2-3 tail.
  Graph g;
  for (int i = 0; i < 4; ++i) {
    g.AddNode(NodeType::kDataset, "n" + std::to_string(i));
  }
  g.AddUndirectedEdge(0, 1, EdgeType::kDatasetDataset, 1.0);
  g.AddUndirectedEdge(1, 2, EdgeType::kDatasetDataset, 1.0);
  g.AddUndirectedEdge(0, 2, EdgeType::kDatasetDataset, 1.0);
  g.AddUndirectedEdge(2, 3, EdgeType::kDatasetDataset, 1.0);
  return g;
}

TEST(RandomWalkTest, WalkLengthRespected) {
  Graph g = PathGraph(10);
  WalkConfig config;
  config.walk_length = 7;
  RandomWalkGenerator walker(g, config);
  Rng rng(1);
  auto walk = walker.Walk(0, &rng);
  EXPECT_EQ(walk.size(), 7u);
  EXPECT_EQ(walk[0], 0u);
}

TEST(RandomWalkTest, StepsFollowEdges) {
  Graph g = PathGraph(6);
  RandomWalkGenerator walker(g, WalkConfig{});
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    auto walk = walker.Walk(2, &rng);
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      EXPECT_TRUE(g.HasEdgeBetween(walk[i], walk[i + 1]))
          << walk[i] << "->" << walk[i + 1];
    }
  }
}

TEST(RandomWalkTest, IsolatedNodeStops) {
  Graph g;
  g.AddNode(NodeType::kModel, "alone");
  RandomWalkGenerator walker(g, WalkConfig{});
  Rng rng(3);
  auto walk = walker.Walk(0, &rng);
  EXPECT_EQ(walk.size(), 1u);
}

TEST(RandomWalkTest, GenerateAllCount) {
  Graph g = PathGraph(5);
  WalkConfig config;
  config.walks_per_node = 3;
  RandomWalkGenerator walker(g, config);
  Rng rng(4);
  auto walks = walker.GenerateAll(&rng);
  EXPECT_EQ(walks.size(), 15u);
}

TEST(RandomWalkTest, LowPEncouragesBacktracking) {
  Graph g = PathGraph(20);
  WalkConfig returny;
  returny.p = 0.05;
  returny.q = 1.0;
  returny.walk_length = 50;
  WalkConfig explory;
  explory.p = 20.0;
  explory.q = 1.0;
  explory.walk_length = 50;

  auto count_backtracks = [&](const WalkConfig& config, uint64_t seed) {
    RandomWalkGenerator walker(g, config);
    Rng rng(seed);
    int backtracks = 0;
    int steps = 0;
    for (int trial = 0; trial < 50; ++trial) {
      auto walk = walker.Walk(10, &rng);
      for (size_t i = 2; i < walk.size(); ++i) {
        ++steps;
        if (walk[i] == walk[i - 2]) ++backtracks;
      }
    }
    return static_cast<double>(backtracks) / steps;
  };

  EXPECT_GT(count_backtracks(returny, 5), count_backtracks(explory, 5) + 0.2);
}

TEST(RandomWalkTest, TransitionBiasClassic) {
  Graph g = TriangleWithTail();
  WalkConfig config;
  config.p = 4.0;
  config.q = 0.25;
  RandomWalkGenerator walker(g, config);
  // At node 2 coming from node 1:
  EXPECT_DOUBLE_EQ(walker.TransitionBias(1, 1), 0.25);  // return: 1/p
  EXPECT_DOUBLE_EQ(walker.TransitionBias(1, 0), 1.0);   // 0 adjacent to 1
  EXPECT_DOUBLE_EQ(walker.TransitionBias(1, 3), 4.0);   // 3 not adjacent: 1/q
}

TEST(RandomWalkTest, ExtendedBiasInterpolatesWithWeight) {
  // Two graphs identical except the candidate-previous edge weight.
  auto make = [](double weight) {
    Graph g;
    for (int i = 0; i < 3; ++i) {
      g.AddNode(NodeType::kDataset, "n" + std::to_string(i));
    }
    // walk ... t=0, v=1, candidate=2; (2,0) edge with `weight`.
    g.AddUndirectedEdge(0, 1, EdgeType::kDatasetDataset, 1.0);
    g.AddUndirectedEdge(1, 2, EdgeType::kDatasetDataset, 1.0);
    g.AddUndirectedEdge(2, 0, EdgeType::kDatasetDataset, weight);
    return g;
  };

  WalkConfig config;
  config.q = 4.0;  // 1/q = 0.25
  config.extended = true;

  Graph strong = make(1.0);
  Graph weak = make(0.05);
  RandomWalkGenerator strong_walker(strong, config);
  RandomWalkGenerator weak_walker(weak, config);

  const double strong_bias = strong_walker.TransitionBias(0, 2);
  const double weak_bias = weak_walker.TransitionBias(0, 2);
  // Strong connection behaves like an in-edge (bias ~1); weak connection
  // approaches the out-edge bias 1/q.
  EXPECT_NEAR(strong_bias, 1.0, 1e-9);
  EXPECT_LT(weak_bias, 0.5);
  EXPECT_GT(weak_bias, 0.25 - 1e-9);
}

TEST(RandomWalkTest, WeightedFirstStepPrefersHeavyEdge) {
  Graph g;
  g.AddNode(NodeType::kDataset, "hub");
  g.AddNode(NodeType::kDataset, "heavy");
  g.AddNode(NodeType::kDataset, "light");
  g.AddUndirectedEdge(0, 1, EdgeType::kDatasetDataset, 10.0);
  g.AddUndirectedEdge(0, 2, EdgeType::kDatasetDataset, 0.1);
  WalkConfig config;
  config.walk_length = 2;
  RandomWalkGenerator walker(g, config);
  Rng rng(7);
  int heavy = 0;
  for (int i = 0; i < 2000; ++i) {
    auto walk = walker.Walk(0, &rng);
    ASSERT_EQ(walk.size(), 2u);
    if (walk[1] == 1) ++heavy;
  }
  EXPECT_GT(heavy, 1900);
}


// A small multigraph in the shape of the zoo graph: datasets and models with
// typed, weighted edges, where one model-dataset pair carries an accuracy
// edge, a transferability edge and a repeated accuracy edge, and one
// dataset pair is linked twice. Repeated edges between a pair are exactly
// what EdgeWeightBetween has to sum.
Graph TypedMultigraph() {
  Graph g;
  for (int i = 0; i < 4; ++i) {
    g.AddNode(NodeType::kDataset, "d" + std::to_string(i));
  }
  for (int i = 0; i < 4; ++i) {
    g.AddNode(NodeType::kModel, "m" + std::to_string(i));
  }
  g.AddUndirectedEdge(0, 1, EdgeType::kDatasetDataset, 0.8);
  g.AddUndirectedEdge(0, 1, EdgeType::kDatasetDataset, 0.3);
  g.AddUndirectedEdge(1, 2, EdgeType::kDatasetDataset, 0.5);
  g.AddUndirectedEdge(2, 3, EdgeType::kDatasetDataset, 0.6);
  // Each of these three is weaker than the pair's Node2Vec+ threshold; only
  // their sum reaches it.
  g.AddUndirectedEdge(4, 0, EdgeType::kModelDatasetAccuracy, 0.12);
  g.AddUndirectedEdge(4, 0, EdgeType::kModelDatasetTransferability, 0.1);
  g.AddUndirectedEdge(4, 0, EdgeType::kModelDatasetAccuracy, 0.08);
  g.AddUndirectedEdge(4, 1, EdgeType::kModelDatasetAccuracy, 0.9);
  g.AddUndirectedEdge(5, 1, EdgeType::kModelDatasetTransferability, 0.35);
  g.AddUndirectedEdge(5, 2, EdgeType::kModelDatasetAccuracy, 0.65);
  g.AddUndirectedEdge(6, 2, EdgeType::kModelDatasetAccuracy, 0.55);
  g.AddUndirectedEdge(6, 3, EdgeType::kModelDatasetTransferability, 0.25);
  g.AddUndirectedEdge(7, 3, EdgeType::kModelDatasetAccuracy, 0.45);
  g.AddUndirectedEdge(7, 0, EdgeType::kModelDatasetTransferability, 0.15);
  return g;
}

// FNV-1a over every walk's length and node ids, in corpus order.
uint64_t CorpusHash(const std::vector<std::vector<NodeId>>& walks) {
  uint64_t hash = 1469598103934665603ULL;
  auto add = [&](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  for (const std::vector<NodeId>& walk : walks) {
    add(walk.size());
    for (NodeId node : walk) add(node);
  }
  return hash;
}

// Pins the walk corpus bit for bit, so a change to how walks sample (for
// example an O(deg) transition table) must reproduce today's corpus or say
// why it does not.
TEST(RandomWalkTest, GenerateAllCorpusPinned) {
  const Graph g = TypedMultigraph();
  for (bool extended : {false, true}) {
    WalkConfig config;
    config.walks_per_node = 5;
    config.walk_length = 20;
    config.p = 2.0;
    config.q = 0.5;
    config.extended = extended;
    RandomWalkGenerator walker(g, config);
    Rng rng(2024);
    const uint64_t got = CorpusHash(walker.GenerateAll(&rng));
    const uint64_t want =
        extended ? 0x4dba0e69aa33e606ULL : 0x8175dbfcf97b91c1ULL;
    EXPECT_EQ(got, want) << (extended ? "node2vec+" : "node2vec") << std::hex
                         << " got 0x" << got;
  }
}

}  // namespace
}  // namespace tg
