// The `avx512` kernel backend: 512-bit AVX-512F intrinsics. Compiled only
// when the toolchain accepts -mavx512f (see src/CMakeLists.txt) and selected
// only after __builtin_cpu_supports("avx512f") confirms the host.
//
// Same numerics policy as kernels_avx2.cc: reductions and FMA-bearing
// kernels sit inside the documented ulp envelope vs the scalar backend;
// Add/Sub/Mul/Scale and ReplicatedMean are bit-identical across backends.
// Tails under 8 elements use masked loads/stores rather than scalar loops so
// the whole kernel stays in one code shape.
#include "numeric/kernel_backend.h"
#include "numeric/kernels.h"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>

namespace tg::kernels::internal {
namespace {

inline __mmask8 TailMask(size_t remaining) {
  return static_cast<__mmask8>((1u << remaining) - 1u);
}

// The reduction tree of _mm512_reduce_add_pd: upper + lower 256-bit half,
// then upper + lower 128-bit half, then the two lanes. Full-mask extracts
// keep GCC's undefined-value placeholder, which draws -Wuninitialized, out
// of the build.
inline double HorizontalSum(__m512d v) {
  const __m256d quad = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xFF, v, 1),
                                     _mm512_maskz_extractf64x4_pd(0xFF, v, 0));
  const __m128d pair = _mm_add_pd(_mm256_extractf128_pd(quad, 1),
                                  _mm256_castpd256_pd128(quad));
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double DotAvx512(const double* a, const double* b, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
  }
  double total = HorizontalSum(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double SumAvx512(const double* a, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(a + i));
    acc1 = _mm512_add_pd(acc1, _mm512_loadu_pd(a + i + 8));
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(a + i));
  }
  double total = HorizontalSum(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) total += a[i];
  return total;
}

void AddAvx512(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_add_pd(vy, vx));
  }
}

void SubAvx512(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_sub_pd(_mm512_loadu_pd(y + i), _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_sub_pd(vy, vx));
  }
}

void MulAvx512(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_mul_pd(_mm512_loadu_pd(y + i), _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_mul_pd(vy, vx));
  }
}

void ScaleAvx512(double* y, double s, size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(y + i, _mm512_mul_pd(_mm512_loadu_pd(y + i), vs));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_mul_pd(vy, vs));
  }
}

void AxpyAvx512(double alpha, const double* x, double* y, size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i,
        _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_fmadd_pd(va, vx, vy));
  }
}

void ScaleAddAvx512(double* y, double alpha, double beta, const double* x,
                    size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  const __m512d vb = _mm512_set1_pd(beta);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d ay = _mm512_mul_pd(va, _mm512_loadu_pd(y + i));
    _mm512_storeu_pd(y + i, _mm512_fmadd_pd(vb, _mm512_loadu_pd(x + i), ay));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m,
                          _mm512_fmadd_pd(vb, vx, _mm512_mul_pd(va, vy)));
  }
}

void MulAddAvx512(double* z, const double* x, const double* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(z + i, _mm512_fmadd_pd(_mm512_loadu_pd(x + i),
                                            _mm512_loadu_pd(y + i),
                                            _mm512_loadu_pd(z + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vz = _mm512_maskz_loadu_pd(m, z + i);
    _mm512_mask_storeu_pd(z + i, m, _mm512_fmadd_pd(vx, vy, vz));
  }
}

// K pairs of FusedContextUpdate. Each dot is DotAvx512's chain (two
// accumulators over 16-element steps, one 8-element step, HorizontalSum,
// scalar tail), run for all K rows in the same loop so the chains overlap.
// The update then makes one pass over center_grad, applying pair j's two
// FMAs per element in pair order, as K one-row calls would. The pair loops
// must unroll so the accumulators stay in registers; -O2 alone keeps them in
// memory.
template <size_t K>
void ContextBlockAvx512(const double* w, double* const* rows,
                        const double* labels, double* center_grad, size_t n,
                        double lr) {
  __m512d acc0[K];
  __m512d acc1[K];
#pragma GCC unroll 8
  for (size_t j = 0; j < K; ++j) {
    acc0[j] = _mm512_setzero_pd();
    acc1[j] = _mm512_setzero_pd();
  }
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d w0 = _mm512_loadu_pd(w + i);
    const __m512d w1 = _mm512_loadu_pd(w + i + 8);
#pragma GCC unroll 8
    for (size_t j = 0; j < K; ++j) {
      acc0[j] = _mm512_fmadd_pd(w0, _mm512_loadu_pd(rows[j] + i), acc0[j]);
      acc1[j] = _mm512_fmadd_pd(w1, _mm512_loadu_pd(rows[j] + i + 8), acc1[j]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d w0 = _mm512_loadu_pd(w + i);
#pragma GCC unroll 8
    for (size_t j = 0; j < K; ++j) {
      acc0[j] = _mm512_fmadd_pd(w0, _mm512_loadu_pd(rows[j] + i), acc0[j]);
    }
  }
  __m512d vg[K];
#pragma GCC unroll 8
  for (size_t j = 0; j < K; ++j) {
    double dot = HorizontalSum(_mm512_add_pd(acc0[j], acc1[j]));
    for (size_t t = i; t < n; ++t) dot += w[t] * rows[j][t];
    vg[j] = _mm512_set1_pd((labels[j] - TabulatedSigmoid(dot)) * lr);
  }

  for (i = 0; i + 8 <= n; i += 8) {
    const __m512d vw = _mm512_loadu_pd(w + i);
    __m512d vcg = _mm512_loadu_pd(center_grad + i);
#pragma GCC unroll 8
    for (size_t j = 0; j < K; ++j) {
      const __m512d vc = _mm512_loadu_pd(rows[j] + i);
      vcg = _mm512_fmadd_pd(vg[j], vc, vcg);
      _mm512_storeu_pd(rows[j] + i, _mm512_fmadd_pd(vg[j], vw, vc));
    }
    _mm512_storeu_pd(center_grad + i, vcg);
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vw = _mm512_maskz_loadu_pd(m, w + i);
    __m512d vcg = _mm512_maskz_loadu_pd(m, center_grad + i);
#pragma GCC unroll 8
    for (size_t j = 0; j < K; ++j) {
      const __m512d vc = _mm512_maskz_loadu_pd(m, rows[j] + i);
      vcg = _mm512_fmadd_pd(vg[j], vc, vcg);
      _mm512_mask_storeu_pd(rows[j] + i, m, _mm512_fmadd_pd(vg[j], vw, vc));
    }
    _mm512_mask_storeu_pd(center_grad + i, m, vcg);
  }
}

// Runs k <= K pairs as one block.
template <size_t K>
void ContextTailAvx512(const double* w, double* const* rows,
                       const double* labels, size_t k, double* center_grad,
                       size_t n, double lr) {
  if constexpr (K > 1) {
    if (k < K) {
      ContextTailAvx512<K - 1>(w, rows, labels, k, center_grad, n, lr);
      return;
    }
  }
  ContextBlockAvx512<K>(w, rows, labels, center_grad, n, lr);
}

// Blocks of eight pairs (16 dot accumulators), so a context of the
// default five negatives is one block.
void FusedContextUpdateAvx512(const double* w, double* const* rows,
                              const double* labels, size_t k,
                              double* center_grad, size_t n, double lr) {
  size_t j = 0;
  for (; j + 8 <= k; j += 8) {
    ContextBlockAvx512<8>(w, rows + j, labels + j, center_grad, n, lr);
  }
  if (j < k) {
    ContextTailAvx512<7>(w, rows + j, labels + j, k - j, center_grad, n, lr);
  }
}

void ReplicatedMeanAvx512(double* y, size_t count, double inv, size_t n) {
  const __m512d vinv = _mm512_set1_pd(inv);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_loadu_pd(y + i);
    __m512d acc = x;
    for (size_t s = 1; s < count; ++s) acc = _mm512_add_pd(acc, x);
    _mm512_storeu_pd(y + i, _mm512_mul_pd(acc, vinv));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d x = _mm512_maskz_loadu_pd(m, y + i);
    __m512d acc = x;
    for (size_t s = 1; s < count; ++s) acc = _mm512_add_pd(acc, x);
    _mm512_mask_storeu_pd(y + i, m, _mm512_mul_pd(acc, vinv));
  }
}

const KernelBackend kAvx512Backend = {
    "avx512",
    DotAvx512,
    SumAvx512,
    AddAvx512,
    SubAvx512,
    MulAvx512,
    ScaleAvx512,
    AxpyAvx512,
    ScaleAddAvx512,
    MulAddAvx512,
    FusedContextUpdateAvx512,
    ReplicatedMeanAvx512,
};

}  // namespace

const KernelBackend* Avx512BackendTable() { return &kAvx512Backend; }

}  // namespace tg::kernels::internal

#endif  // x86
