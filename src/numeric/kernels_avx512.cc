// The `avx512` kernel backend: 512-bit AVX-512F intrinsics. Compiled only
// when the toolchain accepts -mavx512f (see src/CMakeLists.txt) and selected
// only after __builtin_cpu_supports("avx512f") confirms the host.
//
// Same numerics policy as kernels_avx2.cc: reductions and FMA-bearing
// kernels sit inside the documented ulp envelope vs the scalar backend;
// Add/Sub/Mul/Scale, ScatterScaledAdd, ReplicatedMean and AdamStep's v and
// value updates are bit-identical across backends. Tails under 8 elements
// use masked loads/stores rather than scalar loops so the whole kernel stays
// in one code shape.
#include "numeric/adam_step_chunks.h"
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

// K dots of a against rows[0 .. K), each DotAvx512's chain (two
// accumulators over 16-element steps, one 8-element step, HorizontalSum,
// scalar tail), run in one pass over a so the K chains overlap. The loops
// must unroll so the accumulators stay in registers; -O2 alone keeps them in
// memory.
template <size_t K>
inline void DotsAvx512(const double* a, const double* const* rows, size_t n,
                       double* dots) {
  __m512d acc0[K];
  __m512d acc1[K];
#pragma GCC unroll 8
  for (size_t j = 0; j < K; ++j) {
    acc0[j] = _mm512_setzero_pd();
    acc1[j] = _mm512_setzero_pd();
  }
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d a0 = _mm512_loadu_pd(a + i);
    const __m512d a1 = _mm512_loadu_pd(a + i + 8);
#pragma GCC unroll 8
    for (size_t j = 0; j < K; ++j) {
      acc0[j] = _mm512_fmadd_pd(a0, _mm512_loadu_pd(rows[j] + i), acc0[j]);
      acc1[j] = _mm512_fmadd_pd(a1, _mm512_loadu_pd(rows[j] + i + 8), acc1[j]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d a0 = _mm512_loadu_pd(a + i);
#pragma GCC unroll 8
    for (size_t j = 0; j < K; ++j) {
      acc0[j] = _mm512_fmadd_pd(a0, _mm512_loadu_pd(rows[j] + i), acc0[j]);
    }
  }
#pragma GCC unroll 8
  for (size_t j = 0; j < K; ++j) {
    double dot = HorizontalSum(_mm512_add_pd(acc0[j], acc1[j]));
    for (size_t t = i; t < n; ++t) dot += a[t] * rows[j][t];
    dots[j] = dot;
  }
}

// K pairs of FusedContextUpdate: the K dots as overlapping chains, then one
// pass over center_grad applying pair j's two FMAs per element in pair
// order, as K one-row calls would.
template <size_t K>
void ContextBlockAvx512(const double* w, double* const* rows,
                        const double* labels, double* center_grad, size_t n,
                        double lr) {
  double dots[K];
  DotsAvx512<K>(w, rows, n, dots);
  __m512d vg[K];
#pragma GCC unroll 8
  for (size_t j = 0; j < K; ++j) {
    vg[j] = _mm512_set1_pd((labels[j] - TabulatedSigmoid(dots[j])) * lr);
  }

  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
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

// Kernels::Gemm on register tiles of kTileRows output rows by 16 columns.
// A tile's accumulators stay in registers across a window of up to
// kTileWindow values of p, and each row of b is loaded once per tile. Every
// term is AxpyAvx512's FMA, masked off for the rows whose coefficient is
// zero, so each output element sees the same FMAs in the same (ascending p)
// order as one AxpyAvx512 per non-zero coefficient. A p that no row of the
// tile uses is dropped from the window before the FMAs run.
constexpr size_t kTileRows = 8;
constexpr size_t kTileWindow = 128;

// The p of one window that some row of the tile uses, in ascending order,
// with each row's coefficient and FMA mask (all lanes, or none for a zero).
struct TileWindow {
  size_t live = 0;
  size_t p[kTileWindow];
  double alpha[kTileWindow][kTileRows];
  __mmask8 use[kTileWindow][kTileRows];
};

// out rows [0, rows) of the tile, columns [j, j + 16) clipped to n, += the
// window's terms.
void GemmTileAvx512(const TileWindow& window, const double* b, size_t n,
                    size_t j, double* out, size_t rows) {
  const size_t width = n - j;
  const __mmask8 cols0 = width >= 8 ? 0xFF : TailMask(width);
  const __mmask8 cols1 =
      width >= 16 ? 0xFF : (width > 8 ? TailMask(width - 8) : 0);
  double* row[kTileRows];
  __mmask8 store0[kTileRows];
  __mmask8 store1[kTileRows];
  __m512d acc0[kTileRows];
  __m512d acc1[kTileRows];
#pragma GCC unroll 8
  for (size_t r = 0; r < kTileRows; ++r) {
    // Rows past the end alias row 0 under an empty mask: no load or store.
    row[r] = out + (r < rows ? r : 0) * n + j;
    store0[r] = r < rows ? cols0 : 0;
    store1[r] = r < rows ? cols1 : 0;
    acc0[r] = _mm512_maskz_loadu_pd(store0[r], row[r]);
    acc1[r] = _mm512_maskz_loadu_pd(store1[r], row[r] + 8);
  }
  for (size_t q = 0; q < window.live; ++q) {
    const double* x = b + window.p[q] * n + j;
    const __m512d x0 = _mm512_maskz_loadu_pd(cols0, x);
    const __m512d x1 = _mm512_maskz_loadu_pd(cols1, x + 8);
#pragma GCC unroll 8
    for (size_t r = 0; r < kTileRows; ++r) {
      const __m512d va = _mm512_set1_pd(window.alpha[q][r]);
      acc0[r] = _mm512_mask3_fmadd_pd(va, x0, acc0[r], window.use[q][r]);
      acc1[r] = _mm512_mask3_fmadd_pd(va, x1, acc1[r], window.use[q][r]);
    }
  }
#pragma GCC unroll 8
  for (size_t r = 0; r < kTileRows; ++r) {
    _mm512_mask_storeu_pd(row[r], store0[r], acc0[r]);
    _mm512_mask_storeu_pd(row[r] + 8, store1[r], acc1[r]);
  }
}

void GemmAvx512(size_t m, size_t n, size_t k, const double* a,
                size_t a_row_stride, size_t a_k_stride, const double* b,
                double* out) {
  TileWindow window;
  for (size_t i0 = 0; i0 < m; i0 += kTileRows) {
    const size_t rows = m - i0 < kTileRows ? m - i0 : kTileRows;
    const double* a_tile = a + i0 * a_row_stride;
    for (size_t p0 = 0; p0 < k; p0 += kTileWindow) {
      const size_t p_end = k - p0 < kTileWindow ? k : p0 + kTileWindow;
      window.live = 0;
      for (size_t p = p0; p < p_end; ++p) {
        bool used = false;
        for (size_t r = 0; r < kTileRows; ++r) {
          const double coefficient =
              r < rows ? a_tile[r * a_row_stride + p * a_k_stride] : 0.0;
          window.alpha[window.live][r] = coefficient;
          window.use[window.live][r] = coefficient != 0.0 ? 0xFF : 0;
          used = used || coefficient != 0.0;
        }
        window.p[window.live] = p;
        window.live += used ? 1 : 0;
      }
      if (window.live == 0) continue;
      for (size_t j = 0; j < n; j += 16) {
        GemmTileAvx512(window, b, n, j, out + i0 * n, rows);
      }
    }
  }
}

// Four of an output row's dots at a time, as overlapping DotAvx512 chains.
void MatMulTransposedAvx512(size_t m, size_t p, size_t n, const double* a,
                            const double* b, double* out) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * n;
    double* out_row = out + i * p;
    size_t j = 0;
    for (; j + 4 <= p; j += 4) {
      const double* rows[4] = {b + j * n, b + (j + 1) * n, b + (j + 2) * n,
                               b + (j + 3) * n};
      DotsAvx512<4>(a_row, rows, n, out_row + j);
    }
    for (; j < p; ++j) out_row[j] = DotAvx512(a_row, b + j * n, n);
  }
}

// The scatter's products and Adam's update with each operation rounded on
// its own, as the base TU computes them: GCC contracts intrinsic
// mul-then-add pairs into FMAs under its default -ffp-contract=fast, so
// contraction is off for these. The full-mask sqrt keeps _mm512_sqrt_pd's
// undefined-value placeholder, which draws -Wmaybe-uninitialized, out of
// the build.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

// ScaleAvx512's multiply, then AddAvx512's add, per element of each edge.
void ScatterScaledAddAvx512(const double* rows, size_t d, const size_t* from,
                            const size_t* to, const double* scale, size_t e,
                            double* out) {
  const __mmask8 tail = TailMask(d % 8);
  const size_t main = d - d % 8;
  for (size_t edge = 0; edge < e; ++edge) {
    const double* src = rows + from[edge] * d;
    double* dst = out + to[edge] * d;
    const __m512d vs = _mm512_set1_pd(scale[edge]);
    for (size_t i = 0; i < main; i += 8) {
      const __m512d term = _mm512_mul_pd(_mm512_loadu_pd(src + i), vs);
      _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i), term));
    }
    if (main < d) {
      const __m512d term =
          _mm512_mul_pd(_mm512_maskz_loadu_pd(tail, src + main), vs);
      _mm512_mask_storeu_pd(
          dst + main, tail,
          _mm512_add_pd(_mm512_maskz_loadu_pd(tail, dst + main), term));
    }
  }
}

inline void AdamLanes(const AdamCoefficients& c, __m512d m, __m512d g,
                      __m512d* v, __m512d* value) {
  *v = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(c.beta2), *v),
                     _mm512_mul_pd(
                         _mm512_mul_pd(_mm512_set1_pd(c.one_minus_beta2), g),
                         g));
  const __m512d m_hat = _mm512_div_pd(m, _mm512_set1_pd(c.bias_correction1));
  const __m512d v_hat = _mm512_div_pd(*v, _mm512_set1_pd(c.bias_correction2));
  *value = _mm512_sub_pd(
      *value, _mm512_div_pd(_mm512_mul_pd(_mm512_set1_pd(c.lr), m_hat),
                            _mm512_add_pd(_mm512_maskz_sqrt_pd(0xFF, v_hat),
                                          _mm512_set1_pd(c.eps))));
}

void AdamUpdateAvx512(double* value, const double* m, double* v,
                      const double* g, size_t n, const AdamCoefficients& c) {
  const AdamCoefficients k = c;  // no reloads after the stores below
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d vv = _mm512_loadu_pd(v + i);
    __m512d vvalue = _mm512_loadu_pd(value + i);
    AdamLanes(k, _mm512_loadu_pd(m + i), _mm512_loadu_pd(g + i), &vv, &vvalue);
    _mm512_storeu_pd(v + i, vv);
    _mm512_storeu_pd(value + i, vvalue);
  }
  if (i < n) {
    const __mmask8 mask = TailMask(n - i);
    __m512d vv = _mm512_maskz_loadu_pd(mask, v + i);
    __m512d vvalue = _mm512_maskz_loadu_pd(mask, value + i);
    AdamLanes(k, _mm512_maskz_loadu_pd(mask, m + i),
              _mm512_maskz_loadu_pd(mask, g + i), &vv, &vvalue);
    _mm512_mask_storeu_pd(v + i, mask, vv);
    _mm512_mask_storeu_pd(value + i, mask, vvalue);
  }
}

#pragma GCC pop_options

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
    ScatterScaledAddAvx512,
    FusedContextUpdateAvx512,
    ReplicatedMeanAvx512,
    GemmAvx512,
    MatMulTransposedAvx512,
    AdamStepChunks<ScaleAvx512, AddAvx512, ScaleAddAvx512, AdamUpdateAvx512>,
};

}  // namespace

const KernelBackend* Avx512BackendTable() { return &kAvx512Backend; }

}  // namespace tg::kernels::internal

#endif  // x86
