// The `neon` kernel backend: 128-bit float64x2 intrinsics for aarch64, where
// Advanced SIMD is part of the base ISA (no per-file flags or runtime probe
// needed -- the dispatcher registers this table whenever it is compiled in).
//
// Same numerics policy as the x86 vector backends: two-lane accumulator
// reductions and vfmaq contraction sit inside the documented ulp envelope vs
// the scalar backend; Add/Sub/Mul/Scale, ScatterScaledAdd and ReplicatedMean
// are bit-identical across backends.
#include "numeric/adam_step_chunks.h"
#include "numeric/gemm_row_blocks.h"
#include "numeric/kernel_backend.h"
#include "numeric/kernels.h"

#if defined(__aarch64__)
#include <arm_neon.h>

#include <cmath>

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

// Axpy's operation on R distinct rows y[r] += alpha[r] * x, one load of x
// per vector for all R rows: the `axpy` entry (R = 1) and the Gemm row
// block.
struct NeonRows {
  template <size_t R>
  static void AxpyRows(const double* alpha, const double* x, double* const* y,
                       size_t n) {
    float64x2_t va[R];
    for (size_t r = 0; r < R; ++r) va[r] = vdupq_n_f64(alpha[r]);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const float64x2_t vx = vld1q_f64(x + i);
      for (size_t r = 0; r < R; ++r) {
        vst1q_f64(y[r] + i, vfmaq_f64(vld1q_f64(y[r] + i), va[r], vx));
      }
    }
    for (; i < n; ++i) {
      for (size_t r = 0; r < R; ++r) y[r][i] += alpha[r] * x[i];
    }
  }
};

void AxpyNeon(double alpha, const double* x, double* y, size_t n) {
  NeonRows::AxpyRows<1>(&alpha, x, &y, n);
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

// Pairs whose dots FusedContextUpdateNeon computes before their updates.
constexpr size_t kContextBlock = 8;

void FusedContextUpdateNeon(const double* w, double* const* rows,
                            const double* labels, size_t k,
                            double* center_grad, size_t n, double lr) {
  for (size_t j0 = 0; j0 < k; j0 += kContextBlock) {
    const size_t kb = k - j0 < kContextBlock ? k - j0 : kContextBlock;
    double* const* block = rows + j0;
    double g[kContextBlock];
    float64x2_t vg[kContextBlock];
    for (size_t j = 0; j < kb; ++j) {
      g[j] = (labels[j0 + j] - TabulatedSigmoid(DotNeon(w, block[j], n))) * lr;
      vg[j] = vdupq_n_f64(g[j]);
    }
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const float64x2_t vw = vld1q_f64(w + i);
      float64x2_t vcg = vld1q_f64(center_grad + i);
      for (size_t j = 0; j < kb; ++j) {
        const float64x2_t vc = vld1q_f64(block[j] + i);
        vcg = vfmaq_f64(vcg, vg[j], vc);
        vst1q_f64(block[j] + i, vfmaq_f64(vc, vg[j], vw));
      }
      vst1q_f64(center_grad + i, vcg);
    }
    for (; i < n; ++i) {
      for (size_t j = 0; j < kb; ++j) {
        const double ci = block[j][i];
        center_grad[i] += g[j] * ci;
        block[j][i] = ci + g[j] * w[i];
      }
    }
  }
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

void MatMulTransposedNeon(size_t m, size_t p, size_t n, const double* a,
                          const double* b, double* out) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < p; ++j) {
      out[i * p + j] = DotNeon(a + i * n, b + j * n, n);
    }
  }
}

// The scatter's products rounded before their adds, as ScaleNeon and
// AddNeon compute them: GCC may contract vmulq/vaddq pairs into FMAs, so
// contraction is off for this one.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

void ScatterScaledAddNeon(const double* rows, size_t d, const size_t* from,
                          const size_t* to, const double* scale, size_t e,
                          double* out) {
  for (size_t edge = 0; edge < e; ++edge) {
    const double* src = rows + from[edge] * d;
    double* dst = out + to[edge] * d;
    const double s = scale[edge];
    const float64x2_t vs = vdupq_n_f64(s);
    size_t i = 0;
    for (; i + 2 <= d; i += 2) {
      const float64x2_t term = vmulq_f64(vld1q_f64(src + i), vs);
      vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), term));
    }
    for (; i < d; ++i) {
      const double term = src[i] * s;
      dst[i] += term;
    }
  }
}

#pragma GCC pop_options

// The C++ loop of the base TU under the same (aarch64 base) flags, so this
// update keeps whatever contraction the compiler applied there.
void AdamUpdateNeon(double* value, const double* m, double* v,
                    const double* g, size_t n, const AdamCoefficients& c) {
  const double beta2 = c.beta2, one_minus_beta2 = c.one_minus_beta2;
  const double bc1 = c.bias_correction1, bc2 = c.bias_correction2;
  const double lr = c.lr, eps = c.eps;
  for (size_t j = 0; j < n; ++j) {
    v[j] = beta2 * v[j] + one_minus_beta2 * g[j] * g[j];
    const double m_hat = m[j] / bc1;
    const double v_hat = v[j] / bc2;
    value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
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
    ScatterScaledAddNeon,
    FusedContextUpdateNeon,
    ReplicatedMeanNeon,
    GemmRowBlocks<NeonRows>,
    MatMulTransposedNeon,
    AdamStepChunks<ScaleNeon, AddNeon, ScaleAddNeon, AdamUpdateNeon>,
};

}  // namespace

const KernelBackend* NeonBackendTable() { return &kNeonBackend; }

}  // namespace tg::kernels::internal

#endif  // __aarch64__
