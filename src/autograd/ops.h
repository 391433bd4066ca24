// Differentiable operations over autograd Vars.
//
// Shape conventions follow the rest of the library: matrices are row-major,
// a batch of node embeddings is (num_nodes x dim). Graph message passing
// (WeightedNeighborSum, PairDot) reads node rows through index lists and
// never materializes a (num_edges x dim) matrix, forward or backward.
#ifndef TG_AUTOGRAD_OPS_H_
#define TG_AUTOGRAD_OPS_H_

#include <cstddef>
#include <vector>

#include "autograd/tape.h"

namespace tg::autograd {

// --- Elementwise arithmetic (shapes must match) ---
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);  // Hadamard
Var Scale(const Var& a, double s);

// --- Linear algebra ---
Var MatMul(const Var& a, const Var& b);
// Adds a (1 x cols) bias row to every row of a.
Var AddRowBroadcast(const Var& a, const Var& bias);
// Multiplies row i of `a` by scalar col(i, 0); col is (rows x 1).
Var MulColBroadcast(const Var& a, const Var& col);
// Row-wise dot products of two same-shape matrices -> (rows x 1).
Var RowsDot(const Var& a, const Var& b);
// Horizontal concatenation [a | b].
Var ConcatCols(const Var& a, const Var& b);

// --- Activations ---
Var Relu(const Var& a);
Var LeakyRelu(const Var& a, double negative_slope = 0.2);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Exp(const Var& a);
// Natural log of max(a, eps) for numerical safety.
Var Log(const Var& a, double eps = 1e-12);
// Elu with alpha = 1 (GAT's output nonlinearity).
Var Elu(const Var& a);

// --- Reductions ---
Var Sum(const Var& a);   // -> 1x1
Var Mean(const Var& a);  // -> 1x1

// --- Row indexing (graph message passing) ---
// out[i] = a[indices[i]].
Var GatherRows(const Var& a, std::vector<size_t> indices);
// out has `num_rows` rows; for i in order, out[dst[i]] += x[src[i]] * w[i].
// `weight` is (edges x 1): a constant edge weighting or a learned one (GAT
// attention); its gradient is computed only when it takes part in
// differentiation. Bit-identical on every backend to
// ScatterAdd(MulColBroadcast(GatherRows(x, src), weight), dst) -- each
// product is rounded before it is added.
Var WeightedNeighborSum(const Var& x, std::vector<size_t> src,
                        std::vector<size_t> dst, const Var& weight,
                        size_t num_rows);
// out[i] = <z[u[i]], z[v[i]]> -> (pairs x 1), the link-prediction decoder.
// Bit-identical to RowsDot(GatherRows(z, u), GatherRows(z, v)), including
// the order in which the backward pass adds the two sides into z's gradient.
Var PairDot(const Var& z, std::vector<size_t> u, std::vector<size_t> v);

// Softmax over groups of rows: scores is (n x 1); rows sharing a segment id
// are normalized together (GAT attention over each node's incident edges).
Var SegmentSoftmax(const Var& scores, std::vector<size_t> segments);

// --- Losses (mean-reduced scalars) ---
// Numerically stable binary cross entropy on raw logits; targets in {0,1}.
Var BceWithLogits(const Var& logits, const Var& targets);
Var MseLoss(const Var& pred, const Var& target);
// 0.5 * ||a||_F^2, for weight decay.
Var L2Penalty(const Var& a);

}  // namespace tg::autograd

#endif  // TG_AUTOGRAD_OPS_H_
