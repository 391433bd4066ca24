#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "gnn/gat.h"
#include "gnn/link_prediction.h"
#include "gnn/sage.h"
#include "numeric/kernel_backend.h"
#include "numeric/stats.h"
#include "obs/memory.h"
#include "util/rng.h"

namespace tg::gnn {
namespace {

Graph TwoCommunities() {
  Graph g;
  for (int i = 0; i < 12; ++i) {
    g.AddNode(i % 2 == 0 ? NodeType::kDataset : NodeType::kModel,
              "n" + std::to_string(i));
  }
  auto clique = [&](NodeId lo, NodeId hi, double w) {
    for (NodeId a = lo; a <= hi; ++a) {
      for (NodeId b = a + 1; b <= hi; ++b) {
        g.AddUndirectedEdge(a, b, EdgeType::kDatasetDataset, w);
      }
    }
  };
  clique(0, 5, 1.0);
  clique(6, 11, 1.0);
  g.AddUndirectedEdge(5, 6, EdgeType::kDatasetDataset, 0.1);
  return g;
}

TEST(EdgeIndexTest, BothDirectionsAndSelfLoops) {
  Graph g = TwoCommunities();
  EdgeIndex with_loops = BuildEdgeIndex(g, /*add_self_loops=*/true);
  EdgeIndex without = BuildEdgeIndex(g, /*add_self_loops=*/false);
  EXPECT_EQ(without.src.size(), 2 * g.num_undirected_edges());
  EXPECT_EQ(with_loops.src.size(),
            2 * g.num_undirected_edges() + g.num_nodes());
  EXPECT_EQ(with_loops.num_nodes, g.num_nodes());
}

TEST(GraphSageTest, OutputShape) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(1);
  SageConfig config;
  config.hidden_dim = 8;
  config.output_dim = 6;
  GraphSage encoder(edges, /*in_dim=*/5, config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 5, &rng);
  autograd::Var out = encoder.Encode(autograd::MakeConstant(features));
  EXPECT_EQ(out->value().rows(), g.num_nodes());
  EXPECT_EQ(out->value().cols(), 6u);
  EXPECT_FALSE(encoder.Parameters().empty());
}

TEST(GraphSageTest, NormalizedOutputHasUnitRows) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(2);
  SageConfig config;
  config.normalize_output = true;
  config.output_dim = 8;
  GraphSage encoder(edges, 4, config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 4, &rng);
  autograd::Var out = encoder.Encode(autograd::MakeConstant(features));
  for (size_t r = 0; r < out->value().rows(); ++r) {
    double norm = 0.0;
    for (size_t c = 0; c < out->value().cols(); ++c) {
      norm += out->value()(r, c) * out->value()(r, c);
    }
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-6);
  }
}

TEST(GraphSageTest, GradientsFlowToAllParameters) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(3);
  SageConfig config;
  config.hidden_dim = 6;
  config.output_dim = 4;
  config.normalize_output = false;
  GraphSage encoder(edges, 3, config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 3, &rng);
  autograd::Var out = encoder.Encode(autograd::MakeConstant(features));
  autograd::Var loss = autograd::Mean(autograd::Mul(out, out));
  autograd::Backward(loss);
  for (const auto& p : encoder.Parameters()) {
    EXPECT_FALSE(p->grad().empty());
  }
}

TEST(GatTest, OutputShapeMultiHead) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(4);
  GatConfig config;
  config.hidden_dim = 8;
  config.output_dim = 6;
  config.num_heads = 3;
  Gat encoder(edges, 5, config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 5, &rng);
  autograd::Var out = encoder.Encode(autograd::MakeConstant(features));
  EXPECT_EQ(out->value().rows(), g.num_nodes());
  EXPECT_EQ(out->value().cols(), 6u);
}

TEST(GatTest, GradientsFlowThroughAttention) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(5);
  GatConfig config;
  config.hidden_dim = 4;
  config.output_dim = 4;
  config.num_heads = 2;
  Gat encoder(edges, 3, config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 3, &rng);
  autograd::Var out = encoder.Encode(autograd::MakeConstant(features));
  autograd::Var loss = autograd::Mean(autograd::Mul(out, out));
  autograd::Backward(loss);
  for (const auto& p : encoder.Parameters()) {
    EXPECT_FALSE(p->grad().empty()) << "parameter missing gradient";
  }
}

TEST(LinkPredictionTest, LossDecreasesForSage) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(6);
  SageConfig sage_config;
  sage_config.hidden_dim = 16;
  sage_config.output_dim = 16;
  GraphSage encoder(edges, 4, sage_config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 4, &rng);

  LinkPredictionConfig config;
  config.epochs = 80;
  config.learning_rate = 1e-2;
  LinkPredictionResult result = TrainLinkPrediction(
      g, &encoder, features, /*labeled_negatives=*/{}, config, &rng);

  ASSERT_EQ(result.loss_curve.size(), 80u);
  // Average of last 10 losses well below first loss.
  double tail = 0.0;
  for (int i = 0; i < 10; ++i) tail += result.loss_curve[79 - i];
  tail /= 10.0;
  EXPECT_LT(tail, result.loss_curve.front() * 0.8);
  EXPECT_EQ(result.embeddings.rows(), g.num_nodes());
  EXPECT_EQ(result.embeddings.cols(), 16u);
}

TEST(LinkPredictionTest, EmbeddingsSeparateCommunities) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(7);
  SageConfig sage_config;
  sage_config.hidden_dim = 16;
  sage_config.output_dim = 8;
  GraphSage encoder(edges, 4, sage_config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 4, &rng);
  LinkPredictionConfig config;
  config.epochs = 120;
  config.learning_rate = 2e-2;
  Matrix emb = TrainLinkPrediction(g, &encoder, features, {}, config, &rng)
                   .embeddings;

  // Dot products should be larger within a community than across.
  auto dot = [&](size_t a, size_t b) {
    double acc = 0.0;
    for (size_t c = 0; c < emb.cols(); ++c) acc += emb(a, c) * emb(b, c);
    return acc;
  };
  double within = (dot(0, 1) + dot(1, 2) + dot(7, 8) + dot(9, 10)) / 4.0;
  double across = (dot(0, 8) + dot(1, 9) + dot(2, 10) + dot(3, 11)) / 4.0;
  EXPECT_GT(within, across);
}

// Finite-difference check of d(loss)/d(param) through a whole encoder:
// perturbs a few entries of every parameter and compares against autograd.
template <typename EncoderT>
void CheckEncoderGradients(EncoderT* encoder, const Matrix& features,
                           double tol) {
  auto loss_of = [&]() {
    autograd::Var out =
        encoder->Encode(autograd::MakeConstant(features));
    return autograd::Mean(autograd::Mul(out, out));
  };
  autograd::Var loss = loss_of();
  autograd::Backward(loss);

  const double eps = 1e-6;
  Rng pick(99);
  for (const autograd::Var& param : encoder->Parameters()) {
    ASSERT_FALSE(param->grad().empty());
    for (int trial = 0; trial < 3; ++trial) {
      const size_t r = pick.NextBelow(param->value().rows());
      const size_t c = pick.NextBelow(param->value().cols());
      const double original = param->value()(r, c);
      param->mutable_value()(r, c) = original + eps;
      const double plus = loss_of()->value()(0, 0);
      param->mutable_value()(r, c) = original - eps;
      const double minus = loss_of()->value()(0, 0);
      param->mutable_value()(r, c) = original;
      const double numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(param->grad()(r, c), numeric, tol);
    }
  }
}

TEST(GraphSageTest, EndToEndGradientsMatchFiniteDifferences) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(31);
  SageConfig config;
  config.hidden_dim = 5;
  config.output_dim = 4;
  config.normalize_output = false;  // keep the loss surface smooth
  GraphSage encoder(edges, 3, config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 3, &rng);
  CheckEncoderGradients(&encoder, features, 1e-5);
}

TEST(GatTest, EndToEndGradientsMatchFiniteDifferences) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(33);
  GatConfig config;
  config.hidden_dim = 4;
  config.output_dim = 3;
  config.num_heads = 2;
  Gat encoder(edges, 3, config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 3, &rng);
  CheckEncoderGradients(&encoder, features, 1e-5);
}

TEST(LinkPredictionTest, LabeledNegativesAccepted) {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(8);
  GatConfig gat_config;
  gat_config.hidden_dim = 8;
  gat_config.output_dim = 8;
  gat_config.num_heads = 1;
  Gat encoder(edges, 4, gat_config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 4, &rng);
  std::vector<std::pair<NodeId, NodeId>> negatives = {{0, 7}, {2, 9}};
  LinkPredictionConfig config;
  config.epochs = 10;
  LinkPredictionResult result =
      TrainLinkPrediction(g, &encoder, features, negatives, config, &rng);
  EXPECT_EQ(result.loss_curve.size(), 10u);
  EXPECT_TRUE(std::isfinite(result.loss_curve.back()));
}

// FNV-1a over the %.17g text of every entry, so two matrices hash equal only
// when every double (sign of zero included) is the same.
uint64_t EmbeddingHash(const Matrix& m) {
  uint64_t hash = 1469598103934665603ull;
  char text[40];
  for (size_t i = 0; i < m.size(); ++i) {
    const int n = std::snprintf(text, sizeof(text), "%.17g;", m.data()[i]);
    for (int k = 0; k < n; ++k) {
      hash ^= static_cast<unsigned char>(text[k]);
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::string Hex(uint64_t v) {
  char text[20];
  std::snprintf(text, sizeof(text), "%016" PRIx64, v);
  return text;
}

// Forces a kernel backend for the enclosing scope.
class ScopedBackend {
 public:
  explicit ScopedBackend(const std::string& name)
      : saved_(kernels::ActiveBackendName()),
        ok_(kernels::SetActiveBackend(name)) {}
  ~ScopedBackend() { kernels::SetActiveBackend(saved_); }
  bool ok() const { return ok_; }

 private:
  std::string saved_;
  bool ok_;
};

// The pinned link-prediction runs: 25 epochs of SAGE or GAT on
// TwoCommunities, under whatever backend is active.
Matrix PinnedSageEmbeddings() {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(41);
  SageConfig sage_config;
  sage_config.hidden_dim = 8;
  sage_config.output_dim = 6;
  GraphSage encoder(edges, 5, sage_config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 5, &rng);
  LinkPredictionConfig config;
  config.epochs = 25;
  config.learning_rate = 1e-2;
  return TrainLinkPrediction(g, &encoder, features, {{0, 7}, {2, 9}}, config,
                             &rng)
      .embeddings;
}

Matrix PinnedGatEmbeddings() {
  Graph g = TwoCommunities();
  EdgeIndex edges = BuildEdgeIndex(g, true);
  Rng rng(43);
  GatConfig gat_config;
  gat_config.hidden_dim = 4;
  gat_config.output_dim = 6;
  gat_config.num_heads = 2;
  Gat encoder(edges, 5, gat_config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 5, &rng);
  LinkPredictionConfig config;
  config.epochs = 25;
  config.learning_rate = 1e-2;
  return TrainLinkPrediction(g, &encoder, features, {{0, 7}, {2, 9}}, config,
                             &rng)
      .embeddings;
}

// Pinned link-prediction embeddings under the exact-order scalar backend.
// The hashes were recorded from the GatherRows / MulColBroadcast /
// ScatterAddRows / RowsDot formulation of message passing and decoding, so
// any change to the GNN arithmetic (or its order) fails here.
TEST(LinkPredictionTest, SageEmbeddingsPinnedUnderScalar) {
  ScopedBackend scalar("scalar");
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(Hex(EmbeddingHash(PinnedSageEmbeddings())), "e93aeb7002fb4372");
}

TEST(LinkPredictionTest, GatEmbeddingsPinnedUnderScalar) {
  ScopedBackend scalar("scalar");
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(Hex(EmbeddingHash(PinnedGatEmbeddings())), "ff47e76a1c6cfd2f");
}

// The same runs under each x86 vector backend this host supports, recorded
// while MatMul, TransposedMatMul and MatMulTransposed were row loops over
// Axpy and Dot and Adam's update was a loop in nn/optimizer.cc. The vector
// backends contract to FMA and reassociate, so each has its own pins; a
// backend with no row here (neon) is not checked.
TEST(LinkPredictionTest, EmbeddingsPinnedUnderEveryVectorBackend) {
  const struct {
    const char* backend;
    const char* sage;
    const char* gat;
  } kPinned[] = {
      {"avx2", "be61b68c6d9ab020", "7ef2adfaa9b8f6c5"},
      {"avx512", "84181ae793149109", "1d9682bb4ba07c3b"},
  };
  const std::vector<std::string> available = kernels::AvailableBackendNames();
  for (const auto& pin : kPinned) {
    if (std::find(available.begin(), available.end(), pin.backend) ==
        available.end()) {
      continue;
    }
    ScopedBackend backend(pin.backend);
    ASSERT_TRUE(backend.ok()) << pin.backend;
    EXPECT_EQ(Hex(EmbeddingHash(PinnedSageEmbeddings())), pin.sage)
        << pin.backend;
    EXPECT_EQ(Hex(EmbeddingHash(PinnedGatEmbeddings())), pin.gat)
        << pin.backend;
  }
}

// A ring over `num_nodes` nodes plus chords (i, i + k) for k = 2, 3, ...
// until the graph has `num_edges` undirected edges.
Graph RingWithChords(size_t num_nodes, size_t num_edges) {
  Graph g;
  for (size_t i = 0; i < num_nodes; ++i) {
    g.AddNode(i % 2 == 0 ? NodeType::kDataset : NodeType::kModel,
              "n" + std::to_string(i));
  }
  for (size_t k = 1; g.num_undirected_edges() < num_edges; ++k) {
    for (size_t i = 0; i < num_nodes && g.num_undirected_edges() < num_edges;
         ++i) {
      g.AddUndirectedEdge(i, (i + k) % num_nodes, EdgeType::kDatasetDataset,
                          0.5 + 0.01 * static_cast<double>(i));
    }
  }
  return g;
}

// Gross heap bytes of one GraphSAGE link-prediction epoch: the difference
// between a two-epoch and a one-epoch training run from the same seed.
uint64_t SageEpochBytes(const Graph& g) {
  const EdgeIndex edges = BuildEdgeIndex(g, true);
  SageConfig sage_config;
  sage_config.hidden_dim = 32;
  sage_config.output_dim = 32;
  auto train_bytes = [&](int epochs) {
    Rng rng(5);
    GraphSage encoder(edges, 64, sage_config, &rng);
    Matrix features = Matrix::Gaussian(g.num_nodes(), 64, &rng);
    LinkPredictionConfig config;
    config.epochs = epochs;
    const obs::AllocStats before = obs::ThreadAllocStats();
    TrainLinkPrediction(g, &encoder, features, {}, config, &rng);
    return (obs::ThreadAllocStats() - before).bytes;
  };
  const bool was_tracking = obs::MemoryTrackingEnabled();
  obs::SetMemoryTrackingEnabled(true);
  const uint64_t one = train_bytes(1);
  const uint64_t two = train_bytes(2);
  obs::SetMemoryTrackingEnabled(was_tracking);
  EXPECT_GT(two, one);
  return two - one;
}

// Message passing and decoding must not materialize (edges x dim) matrices:
// the same nodes with four times the edges may cost only the edge-sized
// index and (edges x 1) score vectors more per epoch.
TEST(LinkPredictionTest, SageEpochAllocationDoesNotGrowWithEdges) {
  const uint64_t sparse = SageEpochBytes(RingWithChords(40, 60));
  const uint64_t dense = SageEpochBytes(RingWithChords(40, 240));
  ASSERT_GT(sparse, 0u);
  const double ratio =
      static_cast<double>(dense) / static_cast<double>(sparse);
  EXPECT_LT(ratio, 1.5) << "sparse " << sparse << " B, dense " << dense
                        << " B per epoch";
}

}  // namespace
}  // namespace tg::gnn
