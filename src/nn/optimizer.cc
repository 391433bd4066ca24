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
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (p->grad().empty()) continue;
    const size_t n = p->value().size();
    const double* gd = p->grad().data();
    if (weight_decay_ > 0.0) {
      // g + wd * value with the product rounded before the add, built in a
      // buffer reused across steps and parameters.
      decayed_.assign(p->value().data(), p->value().data() + n);
      kernels::Scale(decayed_.data(), weight_decay_, n);
      kernels::Add(decayed_.data(), gd, n);
      gd = decayed_.data();
    }
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    kernels::ScaleAdd(m.data(), beta1_, 1.0 - beta1_, gd, n);
    double* vd = v.data();
    double* value = p->mutable_value().data();
    const double* md = m.data();
    const double beta2 = beta2_;
    const double one_minus_beta2 = 1.0 - beta2_;
    for (size_t j = 0; j < n; ++j) {
      vd[j] = beta2 * vd[j] + one_minus_beta2 * gd[j] * gd[j];
      const double m_hat = md[j] / bc1;
      const double v_hat = vd[j] / bc2;
      value[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace tg::nn
