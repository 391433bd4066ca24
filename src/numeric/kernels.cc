// Public kernel entry points. The sigmoid table lives here; the dense
// kernels dispatch through the runtime-selected backend table
// (kernel_backend.h -- scalar/avx2/avx512/neon, one TU each). The fixed-order
// bodies are in kernels_generic.h, where kernels_scalar.cc instantiates them
// under the base architecture flags as the `scalar` backend.
#include "numeric/kernels.h"

#include <cmath>

#include "numeric/kernel_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tg::kernels {
namespace {

// Midpoint-sampled sigmoid table over [-kSigmoidClip, kSigmoidClip]. Bucket
// width 2 * clip / size; with clip 8 and 4096 entries the midpoint error is
// bounded by (width / 2) * max|sigmoid'| = (1/256) / 2 / 4 < 5e-4, and the
// 0/1 clamp outside contributes sigmoid(-8) < 3.4e-4.
struct SigmoidTable {
  double values[kSigmoidTableSize];
  SigmoidTable() {
    const double width = 2.0 * kSigmoidClip / static_cast<double>(kSigmoidTableSize);
    for (size_t i = 0; i < kSigmoidTableSize; ++i) {
      const double x =
          -kSigmoidClip + (static_cast<double>(i) + 0.5) * width;
      values[i] = ExactSigmoid(x);
    }
  }
};

const SigmoidTable& Table() {
  static const SigmoidTable table;
  return table;
}

// Per-kernel invocation counters for the ISSUE-level kernels, resolved once
// per site and gated on MetricsEnabled so disabled runs pay one predictable
// branch per call.
#define TG_COUNT_KERNEL(event)                                        \
  do {                                                                \
    if (obs::MetricsEnabled()) {                                      \
      static obs::Counter& tg_counter =                               \
          obs::MetricsRegistry::Instance().GetCounter(                \
              "numeric.kernel." event ".calls");                      \
      tg_counter.Increment();                                         \
    }                                                                 \
  } while (false)

}  // namespace

double ExactSigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

double TabulatedSigmoid(double x) {
  if (x >= kSigmoidClip) return 1.0;
  if (x < -kSigmoidClip) return 0.0;
  // NaN fails both clip tests; converting it to an index is undefined.
  if (std::isnan(x)) return x;
  const double scale =
      static_cast<double>(kSigmoidTableSize) / (2.0 * kSigmoidClip);
  size_t index = static_cast<size_t>((x + kSigmoidClip) * scale);
  if (index >= kSigmoidTableSize) index = kSigmoidTableSize - 1;
  return Table().values[index];
}

// --- Reductions --------------------------------------------------------------

double Dot(const double* a, const double* b, size_t n) {
  TG_COUNT_KERNEL("dot");
  return ActiveBackend().dot(a, b, n);
}

double Sum(const double* a, size_t n) {
  TG_COUNT_KERNEL("sum");
  return ActiveBackend().sum(a, n);
}

// --- Elementwise -------------------------------------------------------------

void Add(double* y, const double* x, size_t n) { ActiveBackend().add(y, x, n); }

void Sub(double* y, const double* x, size_t n) { ActiveBackend().sub(y, x, n); }

void Mul(double* y, const double* x, size_t n) { ActiveBackend().mul(y, x, n); }

void Scale(double* y, double s, size_t n) { ActiveBackend().scale(y, s, n); }

void Axpy(double alpha, const double* x, double* y, size_t n) {
  TG_COUNT_KERNEL("axpy");
  ActiveBackend().axpy(alpha, x, y, n);
}

void ScaleAdd(double* y, double alpha, double beta, const double* x,
              size_t n) {
  TG_COUNT_KERNEL("scale_add");
  ActiveBackend().scale_add(y, alpha, beta, x, n);
}

void MulAdd(double* z, const double* x, const double* y, size_t n) {
  TG_COUNT_KERNEL("mul_add");
  ActiveBackend().mul_add(z, x, y, n);
}

// --- Fused skip-gram pair update --------------------------------------------

double FusedDotSigmoidUpdate(const double* w, double* c, double* center_grad,
                             size_t n, double label, double lr) {
  TG_COUNT_KERNEL("fused_update");
  return ActiveBackend().fused_dot_sigmoid_update(w, c, center_grad, n, label,
                                                  lr);
}

// --- Replica averaging -------------------------------------------------------

void ReplicatedMean(double* y, size_t count, double inv, size_t n) {
  ActiveBackend().replicated_mean(y, count, inv, n);
}

}  // namespace tg::kernels
