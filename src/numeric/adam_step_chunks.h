// The AdamStep loop of every backend, each instantiating it with its own
// Scale, Add, ScaleAdd and Adam update bodies. The vector backends pass
// functions from an unnamed namespace, so their instantiations have internal
// linkage: no two TUs share a copy compiled under different ISA flags.
#ifndef TG_NUMERIC_ADAM_STEP_CHUNKS_H_
#define TG_NUMERIC_ADAM_STEP_CHUNKS_H_

#include <algorithm>
#include <cstddef>

#include "numeric/kernels.h"  // AdamCoefficients

namespace tg::kernels::internal {

// Elements per chunk: a multiple of 8, so each backend's split of a whole
// parameter into full vectors and a tail (8, 4 or 2 lanes, or the scalar
// backend's 4-wide unroll) falls on the same elements as its split of the
// chunks; and small enough that a chunk's five arrays (value, grad, m, v and
// the decayed gradient, 20 KB) stay in L1 between the four calls.
inline constexpr size_t kAdamStepChunk = 512;

// Kernels::AdamStep: per chunk, the weight-decayed gradient (a copy of value
// scaled by weight_decay, plus grad), the first moment by ScaleAdd, then the
// second moment and parameter update. Each element sees exactly the
// operations of the four calls over the whole parameter.
template <void (*Scale)(double*, double, size_t),
          void (*Add)(double*, const double*, size_t),
          void (*ScaleAdd)(double*, double, double, const double*, size_t),
          void (*Update)(double*, const double*, double*, const double*,
                         size_t, const AdamCoefficients&)>
void AdamStepChunks(double* value, const double* grad, double* m, double* v,
                    size_t n, const AdamCoefficients& c) {
  double decayed[kAdamStepChunk];
  for (size_t i0 = 0; i0 < n; i0 += kAdamStepChunk) {
    const size_t len = std::min(kAdamStepChunk, n - i0);
    const double* g = grad + i0;
    if (c.weight_decay > 0.0) {
      std::copy(value + i0, value + i0 + len, decayed);
      Scale(decayed, c.weight_decay, len);
      Add(decayed, g, len);
      g = decayed;
    }
    ScaleAdd(m + i0, c.beta1, c.one_minus_beta1, g, len);
    Update(value + i0, m + i0, v + i0, g, len, c);
  }
}

}  // namespace tg::kernels::internal

#endif  // TG_NUMERIC_ADAM_STEP_CHUNKS_H_
