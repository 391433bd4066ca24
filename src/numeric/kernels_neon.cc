// The `neon` kernel backend: 128-bit float64x2 intrinsics for aarch64, where
// Advanced SIMD is part of the base ISA (no per-file flags or runtime probe
// needed -- the dispatcher registers this table whenever it is compiled in).
//
// Same numerics policy as the x86 vector backends: two-lane accumulator
// reductions and vfmaq contraction sit inside the documented ulp envelope vs
// the scalar backend; Add/Sub/Mul/Scale and ReplicatedMean are bit-identical
// across backends.
#include "numeric/kernel_backend.h"
#include "numeric/kernels.h"

#if defined(__aarch64__)
#include <arm_neon.h>

namespace tg::kernels::internal {
namespace {

double DotNeon(const double* a, const double* b, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
  }
  double total = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double SumNeon(const double* a, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_f64(acc0, vld1q_f64(a + i));
    acc1 = vaddq_f64(acc1, vld1q_f64(a + i + 2));
  }
  double total = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) total += a[i];
  return total;
}

void AddNeon(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubNeon(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vsubq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void MulNeon(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vmulq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void ScaleNeon(double* y, double s, size_t n) {
  const float64x2_t vs = vdupq_n_f64(s);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vmulq_f64(vld1q_f64(y + i), vs));
  }
  for (; i < n; ++i) y[i] *= s;
}

void AxpyNeon(double alpha, const double* x, double* y, size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vfmaq_f64(vld1q_f64(y + i), va, vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAddNeon(double* y, double alpha, double beta, const double* x,
                  size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  const float64x2_t vb = vdupq_n_f64(beta);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t ay = vmulq_f64(va, vld1q_f64(y + i));
    vst1q_f64(y + i, vfmaq_f64(ay, vb, vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] = alpha * y[i] + beta * x[i];
}

void MulAddNeon(double* z, const double* x, const double* y, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(z + i,
              vfmaq_f64(vld1q_f64(z + i), vld1q_f64(x + i), vld1q_f64(y + i)));
  }
  for (; i < n; ++i) z[i] += x[i] * y[i];
}

double FusedDotSigmoidUpdateNeon(const double* w, double* c,
                                 double* center_grad, size_t n, double label,
                                 double lr) {
  const double g = (label - TabulatedSigmoid(DotNeon(w, c, n))) * lr;
  const float64x2_t vg = vdupq_n_f64(g);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t vc = vld1q_f64(c + i);
    const float64x2_t vw = vld1q_f64(w + i);
    vst1q_f64(center_grad + i,
              vfmaq_f64(vld1q_f64(center_grad + i), vg, vc));
    vst1q_f64(c + i, vfmaq_f64(vc, vg, vw));
  }
  for (; i < n; ++i) {
    const double ci = c[i];
    center_grad[i] += g * ci;
    c[i] = ci + g * w[i];
  }
  return g;
}

void ReplicatedMeanNeon(double* y, size_t count, double inv, size_t n) {
  const float64x2_t vinv = vdupq_n_f64(inv);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x = vld1q_f64(y + i);
    float64x2_t acc = x;
    for (size_t s = 1; s < count; ++s) acc = vaddq_f64(acc, x);
    vst1q_f64(y + i, vmulq_f64(acc, vinv));
  }
  for (; i < n; ++i) {
    const double x = y[i];
    double acc = x;
    for (size_t s = 1; s < count; ++s) acc += x;
    y[i] = acc * inv;
  }
}

const KernelBackend kNeonBackend = {
    "neon",
    DotNeon,
    SumNeon,
    AddNeon,
    SubNeon,
    MulNeon,
    ScaleNeon,
    AxpyNeon,
    ScaleAddNeon,
    MulAddNeon,
    FusedDotSigmoidUpdateNeon,
    ReplicatedMeanNeon,
};

}  // namespace

const KernelBackend* NeonBackendTable() { return &kNeonBackend; }

}  // namespace tg::kernels::internal

#endif  // __aarch64__
