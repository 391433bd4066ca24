// The fixed-order unrolled scalar kernel bodies. kernels_scalar.cc includes
// this under the base architecture flags -- that instantiation is the
// `scalar` backend and is bit-identical to the pre-dispatch kernel layer
// (same source, same flags; GCC/Clang cannot contract mul+add to FMA there
// because the base x86-64 ISA has no FMA). The vector backends
// (kernels_avx2.cc, ...) carry their own bodies and do not include it.
//
// Kernel order for reductions (see kernels.h): four interleaved partial
// accumulators over the largest multiple-of-4 prefix, combined as
// (acc0 + acc1) + (acc2 + acc3), then the tail sequentially.
#ifndef TG_NUMERIC_KERNELS_GENERIC_H_
#define TG_NUMERIC_KERNELS_GENERIC_H_

#include <cmath>
#include <cstddef>

#include "numeric/kernels.h"  // TabulatedSigmoid, AdamCoefficients

namespace tg::kernels::generic {

inline double Dot(const double* a, const double* b, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  for (size_t i = 0; i < main; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double acc = (acc0 + acc1) + (acc2 + acc3);
  for (size_t i = main; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

inline double Sum(const double* a, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  for (size_t i = 0; i < main; i += 4) {
    acc0 += a[i];
    acc1 += a[i + 1];
    acc2 += a[i + 2];
    acc3 += a[i + 3];
  }
  double acc = (acc0 + acc1) + (acc2 + acc3);
  for (size_t i = main; i < n; ++i) acc += a[i];
  return acc;
}

inline void Add(double* y, const double* x, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    y[i] += x[i];
    y[i + 1] += x[i + 1];
    y[i + 2] += x[i + 2];
    y[i + 3] += x[i + 3];
  }
  for (size_t i = main; i < n; ++i) y[i] += x[i];
}

inline void Sub(double* y, const double* x, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    y[i] -= x[i];
    y[i + 1] -= x[i + 1];
    y[i + 2] -= x[i + 2];
    y[i + 3] -= x[i + 3];
  }
  for (size_t i = main; i < n; ++i) y[i] -= x[i];
}

inline void Mul(double* y, const double* x, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    y[i] *= x[i];
    y[i + 1] *= x[i + 1];
    y[i + 2] *= x[i + 2];
    y[i + 3] *= x[i + 3];
  }
  for (size_t i = main; i < n; ++i) y[i] *= x[i];
}

inline void Scale(double* y, double s, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    y[i] *= s;
    y[i + 1] *= s;
    y[i + 2] *= s;
    y[i + 3] *= s;
  }
  for (size_t i = main; i < n; ++i) y[i] *= s;
}

inline void Axpy(double alpha, const double* x, double* y, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (size_t i = main; i < n; ++i) y[i] += alpha * x[i];
}

inline void ScaleAdd(double* y, double alpha, double beta, const double* x,
                     size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    y[i] = alpha * y[i] + beta * x[i];
    y[i + 1] = alpha * y[i + 1] + beta * x[i + 1];
    y[i + 2] = alpha * y[i + 2] + beta * x[i + 2];
    y[i + 3] = alpha * y[i + 3] + beta * x[i + 3];
  }
  for (size_t i = main; i < n; ++i) y[i] = alpha * y[i] + beta * x[i];
}

inline void MulAdd(double* __restrict z, const double* __restrict x,
                   const double* __restrict y, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    z[i] += x[i] * y[i];
    z[i + 1] += x[i + 1] * y[i + 1];
    z[i + 2] += x[i + 2] * y[i + 2];
    z[i + 3] += x[i + 3] * y[i + 3];
  }
  for (size_t i = main; i < n; ++i) z[i] += x[i] * y[i];
}

// Each product rounds before its add. The base x86-64 ISA has no FMA, but
// aarch64's does, so contraction is off here as in the vector TUs.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

inline void ScatterScaledAdd(const double* rows, size_t d, const size_t* from,
                             const size_t* to, const double* scale, size_t e,
                             double* out) {
  for (size_t i = 0; i < e; ++i) {
    const double* src = rows + from[i] * d;
    double* dst = out + to[i] * d;
    const double s = scale[i];
    for (size_t j = 0; j < d; ++j) {
      const double term = src[j] * s;
      dst[j] += term;
    }
  }
}

#pragma GCC pop_options

// Pairs whose dots FusedContextUpdate computes before their updates; a
// longer context runs as consecutive blocks, which the distinct-rows
// contract makes equal to one pass.
inline constexpr size_t kContextBlock = 8;

inline void FusedContextUpdate(const double* __restrict w,
                               double* const* rows, const double* labels,
                               size_t k, double* __restrict center_grad,
                               size_t n, double lr) {
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t j0 = 0; j0 < k; j0 += kContextBlock) {
    const size_t kb = k - j0 < kContextBlock ? k - j0 : kContextBlock;
    double* const* block = rows + j0;
    double g[kContextBlock];
    for (size_t j = 0; j < kb; ++j) {
      g[j] = (labels[j0 + j] - TabulatedSigmoid(Dot(w, block[j], n))) * lr;
    }
    for (size_t i = 0; i < main; i += 4) {
      for (size_t j = 0; j < kb; ++j) {
        double* c = block[j];
        const double c0 = c[i], c1 = c[i + 1], c2 = c[i + 2], c3 = c[i + 3];
        center_grad[i] += g[j] * c0;
        center_grad[i + 1] += g[j] * c1;
        center_grad[i + 2] += g[j] * c2;
        center_grad[i + 3] += g[j] * c3;
        c[i] = c0 + g[j] * w[i];
        c[i + 1] = c1 + g[j] * w[i + 1];
        c[i + 2] = c2 + g[j] * w[i + 2];
        c[i + 3] = c3 + g[j] * w[i + 3];
      }
    }
    for (size_t i = main; i < n; ++i) {
      for (size_t j = 0; j < kb; ++j) {
        const double ci = block[j][i];
        center_grad[i] += g[j] * ci;
        block[j][i] = ci + g[j] * w[i];
      }
    }
  }
}

// y[r][i] += alpha[r] * x[i] for the R distinct rows y[r]: Axpy's
// operation, one pass over x for all R rows (the Gemm row block).
template <size_t R>
inline void AxpyRows(const double* alpha, const double* x, double* const* y,
                     size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    for (size_t r = 0; r < R; ++r) y[r][i] += alpha[r] * xi;
  }
}

inline void MatMulTransposed(size_t m, size_t p, size_t n, const double* a,
                             const double* b, double* out) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < p; ++j) out[i * p + j] = Dot(a + i * n, b + j * n, n);
  }
}

// The Adam loop as the base TU (nn/optimizer.cc) has always compiled it.
inline void AdamUpdate(double* value, const double* m, double* v,
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

inline void ReplicatedMean(double* y, size_t count, double inv, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double x = y[i];
    double acc = x;
    for (size_t s = 1; s < count; ++s) acc += x;
    y[i] = acc * inv;
  }
}

}  // namespace tg::kernels::generic

#endif  // TG_NUMERIC_KERNELS_GENERIC_H_
