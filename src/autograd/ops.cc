#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "numeric/kernels.h"
#include "util/check.h"

namespace tg::autograd {
namespace {

bool NeedsGrad(const Var& v) {
  return v->requires_grad() || v->has_backward();
}

// Wires up a result node: value, parents, and the backward closure (only when
// some parent participates in differentiation).
Var MakeOp(Matrix value, std::vector<Var> parents,
           std::function<void(const Matrix&)> backward) {
  bool any = false;
  for (const Var& p : parents) any = any || NeedsGrad(p);
  Var node = std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
  if (any) {
    node->set_parents(std::move(parents));
    node->set_backward(std::move(backward));
  }
  return node;
}

// For i in order: out[to[i]] += rows[from[i]] * scale[i], each product
// rounded before its add (kernels::ScatterScaledAdd, bit-identical on every
// backend), so this equals gathering, scaling and scatter-adding whole
// (edges x dim) matrices bit for bit. (kernels::Axpy into a non-zero row
// would contract to FMA on vector backends and break that.)
void ScaledScatterAdd(const Matrix& rows, const std::vector<size_t>& from,
                      const std::vector<size_t>& to, const double* scale,
                      Matrix* out) {
  TG_CHECK_EQ(rows.cols(), out->cols());
  kernels::ScatterScaledAdd(rows.data(), rows.cols(), from.data(), to.data(),
                            scale, from.size(), out->data());
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  TG_CHECK(a->value().SameShape(b->value()));
  return MakeOp(a->value() + b->value(), {a, b},
                [a, b](const Matrix& g) {
                  a->AccumulateGrad(g);
                  b->AccumulateGrad(g);
                });
}

Var Sub(const Var& a, const Var& b) {
  TG_CHECK(a->value().SameShape(b->value()));
  return MakeOp(a->value() - b->value(), {a, b},
                [a, b](const Matrix& g) {
                  a->AccumulateGrad(g);
                  b->AccumulateGrad(g * -1.0);
                });
}

Var Mul(const Var& a, const Var& b) {
  TG_CHECK(a->value().SameShape(b->value()));
  return MakeOp(a->value().Hadamard(b->value()), {a, b},
                [a, b](const Matrix& g) {
                  // Fused grad += g (*) other -- skips the two Hadamard
                  // temporaries the unfused form allocated per backward.
                  a->AccumulateGradMulAdd(g, b->value());
                  b->AccumulateGradMulAdd(g, a->value());
                });
}

Var Scale(const Var& a, double s) {
  return MakeOp(a->value() * s, {a},
                [a, s](const Matrix& g) { a->AccumulateGrad(g * s); });
}

Var MatMul(const Var& a, const Var& b) {
  return MakeOp(a->value().MatMul(b->value()), {a, b},
                [a, b](const Matrix& g) {
                  // dL/dA = G B^T ; dL/dB = A^T G. A constant operand (the
                  // GNN input features) gets no product at all.
                  if (NeedsGrad(a)) {
                    a->AccumulateGrad(g.MatMulTransposed(b->value()));
                  }
                  if (NeedsGrad(b)) {
                    b->AccumulateGrad(a->value().TransposedMatMul(g));
                  }
                });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  TG_CHECK_EQ(bias->value().rows(), 1u);
  TG_CHECK_EQ(bias->value().cols(), a->value().cols());
  return MakeOp(a->value().AddRowBroadcast(bias->value()), {a, bias},
                [a, bias](const Matrix& g) {
                  a->AccumulateGrad(g);
                  bias->AccumulateGrad(g.ColSum());
                });
}

Var MulColBroadcast(const Var& a, const Var& col) {
  TG_CHECK_EQ(col->value().cols(), 1u);
  TG_CHECK_EQ(col->value().rows(), a->value().rows());
  Matrix out = a->value();
  for (size_t r = 0; r < out.rows(); ++r) {
    kernels::Scale(out.RowPtr(r), col->value()(r, 0), out.cols());
  }
  return MakeOp(std::move(out), {a, col},
                [a, col](const Matrix& g) {
                  if (NeedsGrad(a)) {
                    Matrix ga = g;
                    for (size_t r = 0; r < g.rows(); ++r) {
                      kernels::Scale(ga.RowPtr(r), col->value()(r, 0),
                                     g.cols());
                    }
                    a->AccumulateGrad(ga);
                  }
                  if (NeedsGrad(col)) {
                    Matrix gcol(g.rows(), 1);
                    for (size_t r = 0; r < g.rows(); ++r) {
                      gcol(r, 0) = kernels::Dot(
                          g.RowPtr(r), a->value().RowPtr(r), g.cols());
                    }
                    col->AccumulateGrad(gcol);
                  }
                });
}

Var RowsDot(const Var& a, const Var& b) {
  TG_CHECK(a->value().SameShape(b->value()));
  Matrix out(a->value().rows(), 1);
  for (size_t r = 0; r < out.rows(); ++r) {
    out(r, 0) = kernels::Dot(a->value().RowPtr(r), b->value().RowPtr(r),
                             a->value().cols());
  }
  return MakeOp(std::move(out), {a, b},
                [a, b](const Matrix& g) {
                  Matrix ga(a->value().rows(), a->value().cols());
                  Matrix gb = ga;
                  for (size_t r = 0; r < g.rows(); ++r) {
                    const double s = g(r, 0);
                    kernels::Axpy(s, b->value().RowPtr(r), ga.RowPtr(r),
                                  ga.cols());
                    kernels::Axpy(s, a->value().RowPtr(r), gb.RowPtr(r),
                                  gb.cols());
                  }
                  a->AccumulateGrad(ga);
                  b->AccumulateGrad(gb);
                });
}

Var ConcatCols(const Var& a, const Var& b) {
  TG_CHECK_EQ(a->value().rows(), b->value().rows());
  const size_t ca = a->value().cols();
  const size_t cb = b->value().cols();
  Matrix out(a->value().rows(), ca + cb);
  for (size_t r = 0; r < out.rows(); ++r) {
    double* dst = out.RowPtr(r);
    const double* ar = a->value().RowPtr(r);
    const double* br = b->value().RowPtr(r);
    std::copy(ar, ar + ca, dst);
    std::copy(br, br + cb, dst + ca);
  }
  return MakeOp(std::move(out), {a, b},
                [a, b, ca, cb](const Matrix& g) {
                  Matrix ga(g.rows(), ca);
                  Matrix gb(g.rows(), cb);
                  for (size_t r = 0; r < g.rows(); ++r) {
                    const double* gr = g.RowPtr(r);
                    std::copy(gr, gr + ca, ga.RowPtr(r));
                    std::copy(gr + ca, gr + ca + cb, gb.RowPtr(r));
                  }
                  a->AccumulateGrad(ga);
                  b->AccumulateGrad(gb);
                });
}

namespace {

// Helper for f(x) ops whose derivative is a function of (x, f(x)). The
// functors are template parameters, so both passes inline them.
template <typename Forward, typename Derivative>
Var ElementwiseOp(const Var& a, Forward fwd, Derivative dfdx) {
  Matrix out = a->value();
  double* od = out.data();
  for (size_t i = 0; i < out.size(); ++i) od[i] = fwd(od[i]);
  Matrix saved = out;  // captured by value in the closure
  return MakeOp(std::move(out), {a},
                [a, saved, dfdx](const Matrix& g) {
                  // Fill the derivative flat, then one elementwise-multiply
                  // kernel pass by g: the same single IEEE multiply per
                  // element as a g * dfdx loop (Mul is bit-identical across
                  // every backend), and the multiply vectorizes.
                  Matrix ga(g.rows(), g.cols());
                  const size_t n = g.size();
                  const double* av = a->value().data();
                  const double* sv = saved.data();
                  double* gd = ga.data();
                  for (size_t i = 0; i < n; ++i) gd[i] = dfdx(av[i], sv[i]);
                  kernels::Mul(gd, g.data(), n);
                  a->AccumulateGrad(ga);
                });
}

}  // namespace

Var Relu(const Var& a) {
  return ElementwiseOp(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Var LeakyRelu(const Var& a, double negative_slope) {
  return ElementwiseOp(
      a,
      [negative_slope](double x) { return x > 0.0 ? x : negative_slope * x; },
      [negative_slope](double x, double) {
        return x > 0.0 ? 1.0 : negative_slope;
      });
}

Var Sigmoid(const Var& a) {
  return ElementwiseOp(
      a,
      [](double x) {
        if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
        const double e = std::exp(x);
        return e / (1.0 + e);
      },
      [](double, double y) { return y * (1.0 - y); });
}

Var Tanh(const Var& a) {
  return ElementwiseOp(a, [](double x) { return std::tanh(x); },
                       [](double, double y) { return 1.0 - y * y; });
}

Var Exp(const Var& a) {
  return ElementwiseOp(a, [](double x) { return std::exp(x); },
                       [](double, double y) { return y; });
}

Var Log(const Var& a, double eps) {
  return ElementwiseOp(
      a, [eps](double x) { return std::log(std::max(x, eps)); },
      [eps](double x, double) { return 1.0 / std::max(x, eps); });
}

Var Elu(const Var& a) {
  return ElementwiseOp(
      a, [](double x) { return x > 0.0 ? x : std::expm1(x); },
      [](double x, double y) { return x > 0.0 ? 1.0 : y + 1.0; });
}

Var Sum(const Var& a) {
  Matrix out(1, 1, a->value().Sum());
  return MakeOp(std::move(out), {a},
                [a](const Matrix& g) {
                  a->AccumulateGrad(
                      Matrix(a->value().rows(), a->value().cols(), g(0, 0)));
                });
}

Var Mean(const Var& a) {
  const double n = static_cast<double>(a->value().size());
  TG_CHECK_GT(n, 0.0);
  Matrix out(1, 1, a->value().Sum() / n);
  return MakeOp(std::move(out), {a},
                [a, n](const Matrix& g) {
                  a->AccumulateGrad(Matrix(a->value().rows(),
                                           a->value().cols(), g(0, 0) / n));
                });
}

Var GatherRows(const Var& a, std::vector<size_t> indices) {
  Matrix out(indices.size(), a->value().cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    TG_CHECK_LT(indices[i], a->value().rows());
    const double* src = a->value().RowPtr(indices[i]);
    std::copy(src, src + out.cols(), out.RowPtr(i));
  }
  return MakeOp(std::move(out), {a},
                [a, indices = std::move(indices)](const Matrix& g) {
                  Matrix ga(a->value().rows(), a->value().cols());
                  for (size_t i = 0; i < indices.size(); ++i) {
                    kernels::Add(ga.RowPtr(indices[i]), g.RowPtr(i),
                                 g.cols());
                  }
                  a->AccumulateGrad(ga);
                });
}

Var WeightedNeighborSum(const Var& x, std::vector<size_t> src,
                        std::vector<size_t> dst, const Var& weight,
                        size_t num_rows) {
  TG_CHECK_EQ(src.size(), dst.size());
  TG_CHECK_EQ(weight->value().rows(), src.size());
  TG_CHECK_EQ(weight->value().cols(), 1u);
  for (size_t i = 0; i < src.size(); ++i) {
    TG_CHECK_LT(src[i], x->value().rows());
    TG_CHECK_LT(dst[i], num_rows);
  }
  Matrix out(num_rows, x->value().cols());
  ScaledScatterAdd(x->value(), src, dst, weight->value().data(), &out);
  return MakeOp(std::move(out), {x, weight},
                [x, weight, src = std::move(src),
                 dst = std::move(dst)](const Matrix& g) {
                  if (NeedsGrad(x)) {
                    Matrix gx(x->value().rows(), x->value().cols());
                    ScaledScatterAdd(g, dst, src, weight->value().data(), &gx);
                    x->AccumulateGrad(gx);
                  }
                  if (NeedsGrad(weight)) {
                    Matrix gw(src.size(), 1);
                    for (size_t i = 0; i < src.size(); ++i) {
                      gw(i, 0) = kernels::Dot(g.RowPtr(dst[i]),
                                              x->value().RowPtr(src[i]),
                                              g.cols());
                    }
                    weight->AccumulateGrad(gw);
                  }
                });
}

Var PairDot(const Var& z, std::vector<size_t> u, std::vector<size_t> v) {
  TG_CHECK_EQ(u.size(), v.size());
  const Matrix& zv = z->value();
  Matrix out(u.size(), 1);
  for (size_t i = 0; i < u.size(); ++i) {
    TG_CHECK_LT(u[i], zv.rows());
    TG_CHECK_LT(v[i], zv.rows());
    out(i, 0) = kernels::Dot(zv.RowPtr(u[i]), zv.RowPtr(v[i]), zv.cols());
  }
  return MakeOp(std::move(out), {z},
                [z, u = std::move(u), v = std::move(v)](const Matrix& g) {
                  // Two accumulations, v side first, so z's gradient rounds
                  // as (grad + v side) + u side: the order in which backward
                  // reaches the two gathers of RowsDot(GatherRows(z, u),
                  // GatherRows(z, v)), which this op must match.
                  const Matrix& zv = z->value();
                  Matrix gz(zv.rows(), zv.cols());
                  ScaledScatterAdd(zv, u, v, g.data(), &gz);
                  z->AccumulateGrad(gz);
                  std::fill(gz.data(), gz.data() + gz.size(), 0.0);
                  ScaledScatterAdd(zv, v, u, g.data(), &gz);
                  z->AccumulateGrad(gz);
                });
}

Var SegmentSoftmax(const Var& scores, std::vector<size_t> segments) {
  TG_CHECK_EQ(scores->value().cols(), 1u);
  TG_CHECK_EQ(segments.size(), scores->value().rows());
  const size_t n = segments.size();
  size_t num_segments = 0;
  for (size_t s : segments) num_segments = std::max(num_segments, s + 1);

  // Stable softmax within each segment: subtract the segment max.
  std::vector<double> seg_max(num_segments,
                              -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < n; ++i) {
    seg_max[segments[i]] =
        std::max(seg_max[segments[i]], scores->value()(i, 0));
  }
  std::vector<double> seg_sum(num_segments, 0.0);
  Matrix out(n, 1);
  for (size_t i = 0; i < n; ++i) {
    out(i, 0) = std::exp(scores->value()(i, 0) - seg_max[segments[i]]);
    seg_sum[segments[i]] += out(i, 0);
  }
  for (size_t i = 0; i < n; ++i) out(i, 0) /= seg_sum[segments[i]];

  Matrix saved = out;
  return MakeOp(std::move(out), {scores},
                [scores, saved, segments = std::move(segments),
                 num_segments](const Matrix& g) {
                  // d softmax: y_i * (g_i - sum_j in segment y_j g_j).
                  std::vector<double> seg_dot(num_segments, 0.0);
                  for (size_t i = 0; i < g.rows(); ++i) {
                    seg_dot[segments[i]] += saved(i, 0) * g(i, 0);
                  }
                  Matrix gs(g.rows(), 1);
                  for (size_t i = 0; i < g.rows(); ++i) {
                    gs(i, 0) = saved(i, 0) * (g(i, 0) - seg_dot[segments[i]]);
                  }
                  scores->AccumulateGrad(gs);
                });
}

Var BceWithLogits(const Var& logits, const Var& targets) {
  TG_CHECK(logits->value().SameShape(targets->value()));
  const size_t n = logits->value().size();
  TG_CHECK_GT(n, 0u);
  // loss_i = max(x,0) - x t + log(1 + exp(-|x|)); mean over all entries.
  double total = 0.0;
  for (size_t r = 0; r < logits->value().rows(); ++r) {
    for (size_t c = 0; c < logits->value().cols(); ++c) {
      const double x = logits->value()(r, c);
      const double t = targets->value()(r, c);
      total += std::max(x, 0.0) - x * t + std::log1p(std::exp(-std::fabs(x)));
    }
  }
  Matrix out(1, 1, total / static_cast<double>(n));
  return MakeOp(std::move(out), {logits, targets},
                [logits, targets, n](const Matrix& g) {
                  // d/dx = sigmoid(x) - t, scaled by upstream/n.
                  const double scale = g(0, 0) / static_cast<double>(n);
                  // (sigmoid(x) - t) filled flat, then one Scale kernel
                  // pass: the same multiply the old scale * (sig - t) loop
                  // performed per element, so gradients are bit-identical.
                  Matrix gl(logits->value().rows(), logits->value().cols());
                  const double* xs = logits->value().data();
                  const double* ts = targets->value().data();
                  double* gd = gl.data();
                  for (size_t i = 0; i < n; ++i) {
                    const double x = xs[i];
                    double sig;
                    if (x >= 0.0) {
                      sig = 1.0 / (1.0 + std::exp(-x));
                    } else {
                      const double e = std::exp(x);
                      sig = e / (1.0 + e);
                    }
                    gd[i] = sig - ts[i];
                  }
                  kernels::Scale(gd, scale, n);
                  logits->AccumulateGrad(gl);
                });
}

Var MseLoss(const Var& pred, const Var& target) {
  TG_CHECK(pred->value().SameShape(target->value()));
  const size_t n = pred->value().size();
  TG_CHECK_GT(n, 0u);
  Matrix diff = pred->value() - target->value();
  const double total = kernels::Dot(diff.data(), diff.data(), diff.size());
  Matrix out(1, 1, total / static_cast<double>(n));
  return MakeOp(std::move(out), {pred, target},
                [pred, target, n](const Matrix& g) {
                  const double scale = 2.0 * g(0, 0) / static_cast<double>(n);
                  Matrix diff = pred->value() - target->value();
                  pred->AccumulateGrad(diff * scale);
                  target->AccumulateGrad(diff * -scale);
                });
}

Var L2Penalty(const Var& a) {
  const double total = kernels::Dot(a->value().data(), a->value().data(),
                                    a->value().size());
  Matrix out(1, 1, 0.5 * total);
  return MakeOp(std::move(out), {a},
                [a](const Matrix& g) {
                  a->AccumulateGrad(a->value() * g(0, 0));
                });
}

}  // namespace tg::autograd
