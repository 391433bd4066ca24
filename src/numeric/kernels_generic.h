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

#include <cstddef>

#include "numeric/kernels.h"  // TabulatedSigmoid for the fused update

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

inline double FusedDotSigmoidUpdate(const double* __restrict w,
                                    double* __restrict c,
                                    double* __restrict center_grad, size_t n,
                                    double label, double lr) {
  const double g = (label - TabulatedSigmoid(Dot(w, c, n))) * lr;
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    const double c0 = c[i], c1 = c[i + 1], c2 = c[i + 2], c3 = c[i + 3];
    center_grad[i] += g * c0;
    center_grad[i + 1] += g * c1;
    center_grad[i + 2] += g * c2;
    center_grad[i + 3] += g * c3;
    c[i] = c0 + g * w[i];
    c[i + 1] = c1 + g * w[i + 1];
    c[i + 2] = c2 + g * w[i + 2];
    c[i + 3] = c3 + g * w[i + 3];
  }
  for (size_t i = main; i < n; ++i) {
    const double ci = c[i];
    center_grad[i] += g * ci;
    c[i] = ci + g * w[i];
  }
  return g;
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
