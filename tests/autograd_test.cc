#include <cmath>
#include <cstring>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "numeric/kernel_backend.h"
#include "numeric/kernels.h"
#include "util/rng.h"

namespace tg::autograd {
namespace {

// Numerically verifies d(loss)/d(param) for a scalar-valued builder that
// reconstructs the graph from the parameter values on every call.
void CheckGradient(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    std::vector<Matrix> initial_values, double tol = 1e-5) {
  // Analytic gradients.
  std::vector<Var> params;
  params.reserve(initial_values.size());
  for (const Matrix& v : initial_values) params.push_back(MakeParameter(v));
  Var loss = build_loss(params);
  Backward(loss);

  const double eps = 1e-6;
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t r = 0; r < initial_values[p].rows(); ++r) {
      for (size_t c = 0; c < initial_values[p].cols(); ++c) {
        auto eval_at = [&](double delta) {
          std::vector<Var> perturbed;
          for (size_t q = 0; q < initial_values.size(); ++q) {
            Matrix v = initial_values[q];
            if (q == p) v(r, c) += delta;
            perturbed.push_back(MakeParameter(v));
          }
          return build_loss(perturbed)->value()(0, 0);
        };
        const double numeric = (eval_at(eps) - eval_at(-eps)) / (2 * eps);
        const double analytic =
            params[p]->grad().empty() ? 0.0 : params[p]->grad()(r, c);
        EXPECT_NEAR(analytic, numeric, tol)
            << "param " << p << " entry (" << r << "," << c << ")";
      }
    }
  }
}

Matrix Rand(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Gaussian(r, c, &rng, 0.0, 0.8);
}

TEST(AutogradTest, AddGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) { return Sum(Add(p[0], p[1])); },
      {Rand(2, 3, 1), Rand(2, 3, 2)});
}

TEST(AutogradTest, SubMulGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(Mul(Sub(p[0], p[1]), p[0]));
      },
      {Rand(2, 2, 3), Rand(2, 2, 4)});
}

TEST(AutogradTest, ScaleGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) { return Sum(Scale(p[0], -2.5)); },
      {Rand(3, 2, 5)});
}

TEST(AutogradTest, MatMulGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) { return Sum(MatMul(p[0], p[1])); },
      {Rand(3, 4, 6), Rand(4, 2, 7)});
}

TEST(AutogradTest, ChainedMatMulGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Mean(Tanh(MatMul(Relu(MatMul(p[0], p[1])), p[2])));
      },
      {Rand(3, 3, 8), Rand(3, 4, 9), Rand(4, 2, 10)}, 1e-4);
}

TEST(AutogradTest, AddRowBroadcastGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(Sigmoid(AddRowBroadcast(p[0], p[1])));
      },
      {Rand(4, 3, 11), Rand(1, 3, 12)});
}

TEST(AutogradTest, MulColBroadcastGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(MulColBroadcast(p[0], p[1]));
      },
      {Rand(4, 3, 13), Rand(4, 1, 14)});
}

TEST(AutogradTest, RowsDotGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(Sigmoid(RowsDot(p[0], p[1])));
      },
      {Rand(5, 3, 15), Rand(5, 3, 16)});
}

TEST(AutogradTest, ConcatColsGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(Tanh(ConcatCols(p[0], p[1])));
      },
      {Rand(3, 2, 17), Rand(3, 4, 18)});
}

TEST(AutogradTest, ActivationGradients) {
  for (int which = 0; which < 6; ++which) {
    CheckGradient(
        [which](const std::vector<Var>& p) {
          switch (which) {
            case 0:
              return Sum(Relu(p[0]));
            case 1:
              return Sum(LeakyRelu(p[0], 0.2));
            case 2:
              return Sum(Sigmoid(p[0]));
            case 3:
              return Sum(Tanh(p[0]));
            case 4:
              return Sum(Exp(p[0]));
            default:
              return Sum(Elu(p[0]));
          }
        },
        {Rand(3, 3, 20 + which)}, 1e-4);
  }
}

TEST(AutogradTest, LogGradient) {
  // Keep inputs positive and away from the epsilon clamp.
  Rng rng(30);
  Matrix positive = Matrix::Uniform(3, 3, &rng, 0.5, 2.0);
  CheckGradient(
      [](const std::vector<Var>& p) { return Sum(Log(p[0])); }, {positive});
}

TEST(AutogradTest, MeanGradient) {
  CheckGradient([](const std::vector<Var>& p) { return Mean(p[0]); },
                {Rand(4, 5, 31)});
}

TEST(AutogradTest, GatherRowsGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        // Repeated indices must accumulate gradient.
        return Sum(Tanh(GatherRows(p[0], {0, 2, 2, 1, 0})));
      },
      {Rand(3, 4, 32)});
}

// Reference scatter-add for the fused-op tests: out has `num_rows` rows;
// out[indices[i]] += a[i]. Composed with GatherRows and MulColBroadcast it
// is the unfused form WeightedNeighborSum must match bit for bit.
Var ScatterAddRows(const Var& a, std::vector<size_t> indices,
                   size_t num_rows) {
  Matrix out(num_rows, a->value().cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    kernels::Add(out.RowPtr(indices[i]), a->value().RowPtr(i), out.cols());
  }
  Var node = std::make_shared<Node>(std::move(out), /*requires_grad=*/false);
  node->set_parents({a});
  node->set_backward([a, indices = std::move(indices)](const Matrix& g) {
    Matrix ga(a->value().rows(), a->value().cols());
    for (size_t i = 0; i < indices.size(); ++i) {
      const double* src = g.RowPtr(indices[i]);
      std::copy(src, src + ga.cols(), ga.RowPtr(i));
    }
    a->AccumulateGrad(ga);
  });
  return node;
}

TEST(AutogradTest, ScatterAddRowsGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(Tanh(ScatterAddRows(p[0], {1, 0, 1, 3}, 4)));
      },
      {Rand(4, 3, 33)});
}

// Edge lists with repeated sources and destinations, a self loop and a
// node (5) that receives nothing.
const std::vector<size_t> kSrc = {0, 2, 2, 1, 4, 3, 0, 4, 1};
const std::vector<size_t> kDst = {1, 1, 0, 3, 4, 0, 2, 1, 1};

TEST(AutogradTest, WeightedNeighborSumGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(Tanh(WeightedNeighborSum(p[0], kSrc, kDst, p[1], 6)));
      },
      {Rand(5, 3, 43), Rand(kSrc.size(), 1, 44)});
}

TEST(AutogradTest, WeightedNeighborSumConstantWeightGradient) {
  const Var weight = MakeConstant(Rand(kSrc.size(), 1, 45));
  CheckGradient(
      [weight](const std::vector<Var>& p) {
        return Sum(Tanh(WeightedNeighborSum(p[0], kSrc, kDst, weight, 6)));
      },
      {Rand(5, 3, 46)});
  EXPECT_TRUE(weight->grad().empty());
}

TEST(AutogradTest, PairDotGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(Sigmoid(PairDot(p[0], kSrc, kDst)));
      },
      {Rand(5, 3, 47)});
}

void ExpectBitIdentical(const Matrix& fused, const Matrix& unfused,
                        const std::string& what) {
  ASSERT_EQ(fused.rows(), unfused.rows()) << what;
  ASSERT_EQ(fused.cols(), unfused.cols()) << what;
  for (size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(std::memcmp(fused.data() + i, unfused.data() + i,
                          sizeof(double)),
              0)
        << what << " entry " << i << ": " << fused.data()[i] << " vs "
        << unfused.data()[i];
  }
}

// Runs `body` once under every kernel backend this binary can use here,
// restoring the active one afterwards.
void ForEachBackend(const std::function<void(const std::string&)>& body) {
  const std::string saved = kernels::ActiveBackendName();
  for (const std::string& name : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(name)) << name;
    body(name);
  }
  kernels::SetActiveBackend(saved);
}

// The fused op against GatherRows -> MulColBroadcast -> ScatterAddRows.
// `x` also feeds a second term that backward reaches first, so x's gradient
// is a sum of two contributions and their order is checked too.
void CheckNeighborSumMatchesUnfused(bool learned_weight,
                                    const std::string& backend) {
  const size_t kRows = 7;
  const size_t kDim = 37;  // odd, so vector kernels run their scalar tails
  const Matrix x0 = Rand(5, kDim, 50);
  const Matrix w0 = Rand(kSrc.size(), 1, 51);
  const Var side = MakeConstant(Rand(5, kDim, 52));
  const Var probe = MakeConstant(Rand(kRows, kDim, 53));
  struct Run {
    Var x, w, out;
  };
  auto run = [&](bool fused) {
    Run r;
    r.x = MakeParameter(x0);
    r.w = learned_weight ? MakeParameter(w0) : MakeConstant(w0);
    r.out = fused ? WeightedNeighborSum(r.x, kSrc, kDst, r.w, kRows)
                  : ScatterAddRows(
                        MulColBroadcast(GatherRows(r.x, kSrc), r.w), kDst,
                        kRows);
    Backward(Add(Sum(Mul(Tanh(r.out), probe)), Sum(Mul(r.x, side))));
    return r;
  };
  const Run fused = run(true);
  const Run unfused = run(false);
  const std::string tag = backend + (learned_weight ? " learned" : " const");
  ExpectBitIdentical(fused.out->value(), unfused.out->value(), tag + " value");
  ExpectBitIdentical(fused.x->grad(), unfused.x->grad(), tag + " dx");
  if (learned_weight) {
    ExpectBitIdentical(fused.w->grad(), unfused.w->grad(), tag + " dw");
  } else {
    EXPECT_TRUE(fused.w->grad().empty()) << tag;
  }
}

TEST(AutogradTest, WeightedNeighborSumBitIdenticalToUnfusedOnEveryBackend) {
  ForEachBackend([](const std::string& backend) {
    CheckNeighborSumMatchesUnfused(/*learned_weight=*/false, backend);
    CheckNeighborSumMatchesUnfused(/*learned_weight=*/true, backend);
  });
}

TEST(AutogradTest, PairDotBitIdenticalToUnfusedOnEveryBackend) {
  ForEachBackend([](const std::string& backend) {
    const size_t kDim = 37;
    const Matrix z0 = Rand(5, kDim, 60);
    const Var side = MakeConstant(Rand(5, kDim, 61));
    const Var labels = MakeConstant(
        Matrix::ColumnVector({1, 0, 1, 1, 0, 0, 1, 0, 1}));
    auto run = [&](bool fused, Var* z) {
      *z = MakeParameter(z0);
      Var logits = fused ? PairDot(*z, kSrc, kDst)
                         : RowsDot(GatherRows(*z, kSrc),
                                   GatherRows(*z, kDst));
      // The side term's gradient lands in z before the decoder's two, so
      // z's gradient is (side + v side) + u side: order-sensitive.
      Backward(Add(BceWithLogits(logits, labels), Sum(Mul(*z, side))));
      return logits;
    };
    Var z_fused;
    Var z_unfused;
    const Var fused = run(true, &z_fused);
    const Var unfused = run(false, &z_unfused);
    ExpectBitIdentical(fused->value(), unfused->value(), backend + " value");
    ExpectBitIdentical(z_fused->grad(), z_unfused->grad(), backend + " dz");
  });
}

TEST(AutogradTest, SegmentSoftmaxValuesSumToOnePerSegment) {
  Var scores = MakeParameter(Rand(6, 1, 34));
  Var out = SegmentSoftmax(scores, {0, 0, 1, 1, 1, 2});
  double seg0 = out->value()(0, 0) + out->value()(1, 0);
  double seg1 = out->value()(2, 0) + out->value()(3, 0) + out->value()(4, 0);
  double seg2 = out->value()(5, 0);
  EXPECT_NEAR(seg0, 1.0, 1e-12);
  EXPECT_NEAR(seg1, 1.0, 1e-12);
  EXPECT_NEAR(seg2, 1.0, 1e-12);
}

TEST(AutogradTest, SegmentSoftmaxGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) {
        Var alpha = SegmentSoftmax(p[0], {0, 0, 1, 1, 1});
        // Weighted sum so the gradient is non-trivial per entry.
        Var weights = MakeConstant(Matrix::ColumnVector({1, 2, 3, 4, 5}));
        return Sum(Mul(alpha, weights));
      },
      {Rand(5, 1, 35)});
}

TEST(AutogradTest, BceWithLogitsMatchesManual) {
  Matrix logits = Matrix::ColumnVector({2.0, -1.0, 0.0});
  Matrix targets = Matrix::ColumnVector({1.0, 0.0, 1.0});
  Var loss = BceWithLogits(MakeParameter(logits), MakeConstant(targets));
  double expected = 0.0;
  expected += -std::log(1.0 / (1.0 + std::exp(-2.0)));
  expected += -std::log(1.0 - 1.0 / (1.0 + std::exp(1.0)));
  expected += -std::log(0.5);
  EXPECT_NEAR(loss->value()(0, 0), expected / 3.0, 1e-10);
}

TEST(AutogradTest, BceWithLogitsGradient) {
  Matrix targets = Matrix::ColumnVector({1.0, 0.0, 1.0, 0.0});
  CheckGradient(
      [targets](const std::vector<Var>& p) {
        return BceWithLogits(p[0], MakeConstant(targets));
      },
      {Rand(4, 1, 36)});
}

TEST(AutogradTest, MseLossGradient) {
  CheckGradient(
      [](const std::vector<Var>& p) { return MseLoss(p[0], p[1]); },
      {Rand(3, 2, 37), Rand(3, 2, 38)});
}

TEST(AutogradTest, L2PenaltyGradient) {
  CheckGradient([](const std::vector<Var>& p) { return L2Penalty(p[0]); },
                {Rand(3, 3, 39)});
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  // f(x) = sum(x) + sum(x) -> grad = 2 everywhere.
  Var x = MakeParameter(Matrix(2, 2, 1.0));
  Var loss = Add(Sum(x), Sum(x));
  Backward(loss);
  EXPECT_DOUBLE_EQ(x->grad()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(x->grad()(1, 1), 2.0);
}

TEST(AutogradTest, ConstantsReceiveNoGradient) {
  Var c = MakeConstant(Matrix(2, 2, 1.0));
  Var x = MakeParameter(Matrix(2, 2, 1.0));
  Var loss = Sum(Mul(c, x));
  Backward(loss);
  EXPECT_TRUE(c->grad().empty());
  EXPECT_FALSE(x->grad().empty());
}

TEST(AutogradTest, ZeroGradResets) {
  Var x = MakeParameter(Matrix(1, 1, 2.0));
  Var loss = Sum(Mul(x, x));
  Backward(loss);
  EXPECT_NEAR(x->grad()(0, 0), 4.0, 1e-12);
  x->ZeroGrad();
  EXPECT_TRUE(x->grad().empty());
}

TEST(AutogradTest, DiamondDependencyGradient) {
  // y = a*b + a*c shares `a` along two paths.
  CheckGradient(
      [](const std::vector<Var>& p) {
        return Sum(Add(Mul(p[0], p[1]), Mul(p[0], p[2])));
      },
      {Rand(2, 2, 40), Rand(2, 2, 41), Rand(2, 2, 42)});
}

}  // namespace
}  // namespace tg::autograd
