#include "nn/optimizer.h"

#include <cmath>

#include "numeric/kernels.h"

namespace tg::nn {

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p->ZeroGrad();
}

void Sgd::Step() {
  for (auto& p : params_) {
    if (p->grad().empty()) continue;
    // p -= lr * (g + wd * p), kernelized without temporaries: fold the decay
    // into the parameter scale, then apply the gradient step.
    double* value = p->mutable_value().data();
    const size_t n = p->value().size();
    if (weight_decay_ > 0.0) {
      kernels::Scale(value, 1.0 - lr_ * weight_decay_, n);
    }
    kernels::Axpy(-lr_, p->grad().data(), value, n);
  }
}

Adam::Adam(std::vector<autograd::Var> params, double lr, double beta1,
           double beta2, double eps, double weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p->value().rows(), p->value().cols());
    v_.emplace_back(p->value().rows(), p->value().cols());
  }
}

void Adam::Step() {
  ++step_count_;
  const kernels::AdamCoefficients c = {
      beta1_,
      1.0 - beta1_,
      beta2_,
      1.0 - beta2_,
      1.0 - std::pow(beta1_, static_cast<double>(step_count_)),
      1.0 - std::pow(beta2_, static_cast<double>(step_count_)),
      lr_,
      eps_,
      weight_decay_};
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (p->grad().empty()) continue;
    kernels::AdamStep(p->mutable_value().data(), p->grad().data(),
                      m_[i].data(), v_[i].data(), p->value().size(), c);
  }
}

}  // namespace tg::nn
