// First-order optimizers updating autograd parameters in place.
#ifndef TG_NN_OPTIMIZER_H_
#define TG_NN_OPTIMIZER_H_

#include <vector>

#include "autograd/tape.h"
#include "numeric/matrix.h"

namespace tg::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<autograd::Var> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  // Applies one update using the accumulated gradients.
  virtual void Step() = 0;

  void ZeroGrad();

 protected:
  std::vector<autograd::Var> params_;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<autograd::Var> params, double lr, double weight_decay = 0.0)
      : Optimizer(std::move(params)), lr_(lr), weight_decay_(weight_decay) {}

  void Step() override;

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  double lr_;
  double weight_decay_;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<autograd::Var> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

  void Step() override;

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  long step_count_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  std::vector<double> decayed_;  // weight-decayed gradient scratch
};

}  // namespace tg::nn

#endif  // TG_NN_OPTIMIZER_H_
