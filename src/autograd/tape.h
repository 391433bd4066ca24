// Reverse-mode automatic differentiation over dense matrices.
//
// The engine is a dynamically built computation DAG: every operation in
// autograd/ops.h allocates a Node holding its value, its parents, and a
// closure that distributes the upstream gradient to the parents. Backward()
// topologically sorts the DAG and runs the closures in reverse order.
//
// This is the substrate for the GNN graph learners (GraphSAGE, GAT): their
// gradients are obtained automatically and validated against numerical
// differentiation in tests, instead of hand-deriving attention backprop.
#ifndef TG_AUTOGRAD_TAPE_H_
#define TG_AUTOGRAD_TAPE_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "numeric/matrix.h"

namespace tg::autograd {

class Node;
// A handle to a DAG node. Ops return fresh Vars; parameters are long-lived
// Vars whose values are updated in place by the optimizer.
using Var = std::shared_ptr<Node>;

class Node {
 public:
  Node(Matrix value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  const Matrix& value() const { return value_; }
  Matrix& mutable_value() { return value_; }

  bool requires_grad() const { return requires_grad_; }

  // Gradient of the scalar loss w.r.t. this node; zeros until Backward runs.
  const Matrix& grad() const { return grad_; }

  // Adds `delta` into the gradient accumulator (lazily sized).
  void AccumulateGrad(const Matrix& delta);

  // Fused grad += g (*) scale through the kernels::MulAdd backend -- no
  // Hadamard temporary. The scalar backend performs the same mul-then-add
  // rounding sequence as AccumulateGrad(g.Hadamard(scale)), so TG_ISA=scalar
  // stays bit-identical to the unfused form; vector backends may contract to
  // FMA within the documented ulp envelope.
  void AccumulateGradMulAdd(const Matrix& g, const Matrix& scale);

  // Empties the gradient. Its storage is kept for the next accumulation,
  // which zeroes it again: a training loop then reuses its parameters'
  // gradient blocks instead of freeing and faulting them in every step.
  void ZeroGrad() {
    if (!grad_.empty()) spare_grad_ = std::exchange(grad_, Matrix());
  }

  // --- Graph-construction internals (used by ops.cc) ---
  void set_parents(std::vector<Var> parents) { parents_ = std::move(parents); }
  void set_backward(std::function<void(const Matrix&)> fn) {
    backward_ = std::move(fn);
  }
  const std::vector<Var>& parents() const { return parents_; }
  bool has_backward() const { return static_cast<bool>(backward_); }
  void RunBackward() {
    if (backward_ && !grad_.empty()) backward_(grad_);
  }

 private:
  // Sizes an empty grad_ to zeros, in spare_grad_'s storage if it fits.
  void EnsureGrad();

  Matrix value_;
  Matrix grad_;
  Matrix spare_grad_;  // grad_'s storage between ZeroGrad and the next step
  bool requires_grad_;
  std::vector<Var> parents_;
  std::function<void(const Matrix&)> backward_;
};

// Creates a trainable leaf (gradient accumulated).
Var MakeParameter(Matrix value);

// Creates a constant leaf (no gradient).
Var MakeConstant(Matrix value);

// Runs reverse-mode differentiation from `root`, which must hold a 1x1
// scalar. Gradients accumulate into every reachable node that requires them;
// call ZeroGradAll (or the optimizer's ZeroGrad) between steps.
void Backward(const Var& root);

}  // namespace tg::autograd

#endif  // TG_AUTOGRAD_TAPE_H_
