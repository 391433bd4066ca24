#include "autograd/tape.h"

#include <algorithm>
#include <unordered_set>

#include "numeric/kernels.h"
#include "util/check.h"

namespace tg::autograd {

void Node::EnsureGrad() {
  if (!grad_.empty()) return;
  if (spare_grad_.SameShape(value_)) {
    grad_ = std::exchange(spare_grad_, Matrix());
    std::fill(grad_.data(), grad_.data() + grad_.size(), 0.0);
  } else {
    grad_ = Matrix(value_.rows(), value_.cols());
  }
}

void Node::AccumulateGrad(const Matrix& delta) {
  if (!requires_grad_ && !has_backward()) return;
  EnsureGrad();
  TG_CHECK(grad_.SameShape(delta));
  grad_ += delta;
}

void Node::AccumulateGradMulAdd(const Matrix& g, const Matrix& scale) {
  if (!requires_grad_ && !has_backward()) return;
  EnsureGrad();
  TG_CHECK(grad_.SameShape(g));
  TG_CHECK(grad_.SameShape(scale));
  kernels::MulAdd(grad_.data(), g.data(), scale.data(), grad_.size());
}

Var MakeParameter(Matrix value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/true);
}

Var MakeConstant(Matrix value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
}

namespace {

// Iterative post-order DFS (the DAG can be deep for multi-layer models).
void TopologicalOrder(const Var& root, std::vector<Node*>* order) {
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  // Keep shared_ptrs alive through the traversal via the parents chains;
  // raw pointers below are safe because `root` holds the whole DAG.
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents().size()) {
      Node* parent = node->parents()[next_child].get();
      ++next_child;
      if (visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& root) {
  TG_CHECK(root != nullptr);
  TG_CHECK_MSG(root->value().rows() == 1 && root->value().cols() == 1,
               "Backward root must be a 1x1 scalar");
  std::vector<Node*> order;
  TopologicalOrder(root, &order);

  root->AccumulateGrad(Matrix(1, 1, 1.0));
  // Post-order puts parents before children; iterate in reverse so each
  // node's gradient is complete before it is propagated.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    (*it)->RunBackward();
  }
}

}  // namespace tg::autograd
