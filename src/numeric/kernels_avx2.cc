// The `avx2` kernel backend: 256-bit AVX2+FMA intrinsics. This TU (alone) is
// compiled with -mavx2 -mfma (see src/CMakeLists.txt); kernel_dispatch.cc
// only selects the table after __builtin_cpu_supports confirms the host, so
// the rest of the binary stays runnable on any x86-64.
//
// Numerics (the documented ulp envelope vs the scalar backend):
//   * Dot / Sum reduce four 256-bit lanes-of-accumulators, so the summation
//     order differs from the scalar kernel order, and FMA contracts the
//     multiply-adds.
//   * Axpy / ScaleAdd / the fused update use FMA per element (one rounding
//     instead of two).
//   * Add / Sub / Mul / Scale perform the same single IEEE operation per
//     element as every other backend: bit-identical by construction.
//   * ReplicatedMean keeps the per-element accumulate-count-times-then-scale
//     sequence (vectorized across elements, never across the count loop) and
//     uses no FMA, so it too is bit-identical to the scalar backend.
//   * Gemm adds each term with Axpy's FMA and MatMulTransposed is one
//     DotAvx2 per element, so both match row loops over this backend's
//     Axpy and Dot bit for bit.
//   * ScatterScaledAdd and AdamStep's v and value updates round every
//     operation on its own (contraction off), so they are bit-identical to
//     the scalar backend; AdamStep's m update is ScaleAddAvx2's, tail
//     included.
#include "numeric/adam_step_chunks.h"
#include "numeric/gemm_row_blocks.h"
#include "numeric/kernel_backend.h"
#include "numeric/kernels.h"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>

namespace tg::kernels::internal {
namespace {

inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double total = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double SumAvx2(const double* a, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(a + i + 4));
    acc2 = _mm256_add_pd(acc2, _mm256_loadu_pd(a + i + 8));
    acc3 = _mm256_add_pd(acc3, _mm256_loadu_pd(a + i + 12));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
  }
  double total = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += a[i];
  return total;
}

void AddAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void MulAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void ScaleAvx2(double* y, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), vs));
  }
  for (; i < n; ++i) y[i] *= s;
}

// Axpy's operation on R distinct rows y[r] += alpha[r] * x, one load of x
// per vector for all R rows: the `axpy` entry (R = 1) and the Gemm row
// block. The scalar tail contracts to FMA like the vector body.
struct Avx2Rows {
  template <size_t R>
  static void AxpyRows(const double* alpha, const double* x, double* const* y,
                       size_t n) {
    __m256d va[R];
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) va[r] = _mm256_set1_pd(alpha[r]);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vx = _mm256_loadu_pd(x + i);
#pragma GCC unroll 4
      for (size_t r = 0; r < R; ++r) {
        _mm256_storeu_pd(y[r] + i, _mm256_fmadd_pd(va[r], vx,
                                                   _mm256_loadu_pd(y[r] + i)));
      }
    }
    for (; i < n; ++i) {
      for (size_t r = 0; r < R; ++r) y[r][i] += alpha[r] * x[i];
    }
  }
};

void AxpyAvx2(double alpha, const double* x, double* y, size_t n) {
  Avx2Rows::AxpyRows<1>(&alpha, x, &y, n);
}

void ScaleAddAvx2(double* y, double alpha, double beta, const double* x,
                  size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vb = _mm256_set1_pd(beta);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ay = _mm256_mul_pd(va, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(vb, _mm256_loadu_pd(x + i), ay));
  }
  for (; i < n; ++i) y[i] = alpha * y[i] + beta * x[i];
}

void MulAddAvx2(double* z, const double* x, const double* y, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(z + i, _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(y + i),
                                            _mm256_loadu_pd(z + i)));
  }
  for (; i < n; ++i) z[i] += x[i] * y[i];
}

// Pairs whose dots FusedContextUpdateAvx2 computes before their updates.
constexpr size_t kContextBlock = 8;

void FusedContextUpdateAvx2(const double* w, double* const* rows,
                            const double* labels, size_t k,
                            double* center_grad, size_t n, double lr) {
  for (size_t j0 = 0; j0 < k; j0 += kContextBlock) {
    const size_t kb = k - j0 < kContextBlock ? k - j0 : kContextBlock;
    double* const* block = rows + j0;
    double g[kContextBlock];
    __m256d vg[kContextBlock];
    for (size_t j = 0; j < kb; ++j) {
      g[j] = (labels[j0 + j] - TabulatedSigmoid(DotAvx2(w, block[j], n))) * lr;
      vg[j] = _mm256_set1_pd(g[j]);
    }
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vw = _mm256_loadu_pd(w + i);
      __m256d vcg = _mm256_loadu_pd(center_grad + i);
      for (size_t j = 0; j < kb; ++j) {
        const __m256d vc = _mm256_loadu_pd(block[j] + i);
        vcg = _mm256_fmadd_pd(vg[j], vc, vcg);
        _mm256_storeu_pd(block[j] + i, _mm256_fmadd_pd(vg[j], vw, vc));
      }
      _mm256_storeu_pd(center_grad + i, vcg);
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

void ReplicatedMeanAvx2(double* y, size_t count, double inv, size_t n) {
  const __m256d vinv = _mm256_set1_pd(inv);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(y + i);
    __m256d acc = x;
    for (size_t s = 1; s < count; ++s) acc = _mm256_add_pd(acc, x);
    _mm256_storeu_pd(y + i, _mm256_mul_pd(acc, vinv));
  }
  for (; i < n; ++i) {
    const double x = y[i];
    double acc = x;
    for (size_t s = 1; s < count; ++s) acc += x;
    y[i] = acc * inv;
  }
}

void MatMulTransposedAvx2(size_t m, size_t p, size_t n, const double* a,
                          const double* b, double* out) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < p; ++j) {
      out[i * p + j] = DotAvx2(a + i * n, b + j * n, n);
    }
  }
}

// The scatter's products and Adam's update with each operation rounded on
// its own, as the base TU computes them: GCC contracts intrinsic
// mul-then-add pairs into FMAs under its default -ffp-contract=fast, so
// contraction is off for these.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

// ScaleAvx2's multiply, then AddAvx2's add, per element of each edge.
void ScatterScaledAddAvx2(const double* rows, size_t d, const size_t* from,
                          const size_t* to, const double* scale, size_t e,
                          double* out) {
  for (size_t edge = 0; edge < e; ++edge) {
    const double* src = rows + from[edge] * d;
    double* dst = out + to[edge] * d;
    const double s = scale[edge];
    const __m256d vs = _mm256_set1_pd(s);
    size_t i = 0;
    for (; i + 4 <= d; i += 4) {
      const __m256d term = _mm256_mul_pd(_mm256_loadu_pd(src + i), vs);
      _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), term));
    }
    for (; i < d; ++i) {
      const double term = src[i] * s;
      dst[i] += term;
    }
  }
}

inline void AdamLanes(const AdamCoefficients& c, __m256d m, __m256d g,
                      __m256d* v, __m256d* value) {
  *v = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(c.beta2), *v),
                     _mm256_mul_pd(
                         _mm256_mul_pd(_mm256_set1_pd(c.one_minus_beta2), g),
                         g));
  const __m256d m_hat = _mm256_div_pd(m, _mm256_set1_pd(c.bias_correction1));
  const __m256d v_hat = _mm256_div_pd(*v, _mm256_set1_pd(c.bias_correction2));
  *value = _mm256_sub_pd(
      *value, _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(c.lr), m_hat),
                            _mm256_add_pd(_mm256_sqrt_pd(v_hat),
                                          _mm256_set1_pd(c.eps))));
}

void AdamUpdateAvx2(double* value, const double* m, double* v,
                    const double* g, size_t n, const AdamCoefficients& c) {
  const AdamCoefficients k = c;  // no reloads after the stores below
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vv = _mm256_loadu_pd(v + i);
    __m256d vvalue = _mm256_loadu_pd(value + i);
    AdamLanes(k, _mm256_loadu_pd(m + i), _mm256_loadu_pd(g + i), &vv, &vvalue);
    _mm256_storeu_pd(v + i, vv);
    _mm256_storeu_pd(value + i, vvalue);
  }
  if (i < n) {
    // Lanes at or past n load as zero and are not stored.
    const size_t left = n - i;
    const __m256i mask = _mm256_set_epi64x(0, left > 2 ? -1 : 0,
                                           left > 1 ? -1 : 0, -1);
    __m256d vv = _mm256_maskload_pd(v + i, mask);
    __m256d vvalue = _mm256_maskload_pd(value + i, mask);
    AdamLanes(k, _mm256_maskload_pd(m + i, mask),
              _mm256_maskload_pd(g + i, mask), &vv, &vvalue);
    _mm256_maskstore_pd(v + i, mask, vv);
    _mm256_maskstore_pd(value + i, mask, vvalue);
  }
}

#pragma GCC pop_options

const KernelBackend kAvx2Backend = {
    "avx2",
    DotAvx2,
    SumAvx2,
    AddAvx2,
    SubAvx2,
    MulAvx2,
    ScaleAvx2,
    AxpyAvx2,
    ScaleAddAvx2,
    MulAddAvx2,
    ScatterScaledAddAvx2,
    FusedContextUpdateAvx2,
    ReplicatedMeanAvx2,
    GemmRowBlocks<Avx2Rows>,
    MatMulTransposedAvx2,
    AdamStepChunks<ScaleAvx2, AddAvx2, ScaleAddAvx2, AdamUpdateAvx2>,
};

}  // namespace

const KernelBackend* Avx2BackendTable() { return &kAvx2Backend; }

}  // namespace tg::kernels::internal

#endif  // x86
