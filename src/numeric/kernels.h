// Math-kernel layer: the dense inner loops shared by the skip-gram trainer,
// the GNN/autograd score and gradient passes, and the Matrix/linalg row
// operations. Each entry point dispatches through a runtime-selected
// KernelBackend table (kernel_backend.h): `scalar` (the fixed-order unrolled
// reference), `avx2`, `avx512`, `neon` -- resolved once per process from the
// TG_ISA env knob ({auto,scalar,avx2,avx512,neon}; auto picks the widest
// backend this binary + CPU supports).
//
// Determinism contract: every backend is a pure function of its inputs, so
// for any FIXED backend a result never depends on the caller or the thread
// count. The `scalar` backend additionally fixes the floating-point
// summation order (the "kernel order" below); tests/kernels_test.cc pins a
// hash of every scalar entry on adversarial lengths (0, 1, dim +/- 1,
// unaligned tails). Vector backends reassociate reductions and contract to
// FMA, staying within the ulp envelope documented in docs/performance.md;
// Add/Sub/Mul/Scale, ScatterScaledAdd and ReplicatedMean are bit-identical
// across ALL backends (one IEEE operation per element / per step).
//
// Kernel order for reductions over n elements: four interleaved partial
// accumulators acc[j] (j = i mod 4) over the largest multiple-of-4 prefix,
// combined as (acc0 + acc1) + (acc2 + acc3), then the remaining tail elements
// added sequentially. Elementwise kernels (Add, Axpy, ScaleAdd, ...) touch
// each element independently, so their unrolling is order-irrelevant.
//
// Sigmoid: training uses a word2vec-style tabulated sigmoid (midpoint lookup
// table over [-kSigmoidClip, kSigmoidClip], exact 0/1 clamp outside; max abs
// error < 1e-3 vs ExactSigmoid, asserted in tests). It is a pure function of
// its input, so results stay bit-identical across thread counts. See
// docs/performance.md.
#ifndef TG_NUMERIC_KERNELS_H_
#define TG_NUMERIC_KERNELS_H_

#include <cmath>
#include <cstddef>

namespace tg::kernels {

// --- Sigmoid -----------------------------------------------------------------

// Inputs clamp to [-kSigmoidClip, kSigmoidClip] in the tabulated form.
inline constexpr double kSigmoidClip = 8.0;
inline constexpr size_t kSigmoidTableSize = 4096;

// Overflow-safe exact logistic function (table construction, scoring).
double ExactSigmoid(double x);

namespace internal {
// ExactSigmoid at the bucket midpoints, filled once by kernels.cc's static
// initialiser (no kernel runs before main).
struct SigmoidTable {
  SigmoidTable();
  double values[kSigmoidTableSize];
};
extern const SigmoidTable kSigmoidTable;
}  // namespace internal

// Table lookup (bucket midpoints); exactly 0 / 1 outside the clip range,
// NaN for NaN. The form training uses. Internal linkage: the vector backend
// TUs include this header under their own ISA flags, so a shared out-of-line
// copy could hand their instructions to a base-ISA caller.
static inline double TabulatedSigmoid(double x) {
  if (x >= kSigmoidClip) return 1.0;
  if (x < -kSigmoidClip) return 0.0;
  // NaN fails both clip tests; converting it to an index is undefined.
  if (std::isnan(x)) return x;
  const double scale =
      static_cast<double>(kSigmoidTableSize) / (2.0 * kSigmoidClip);
  size_t index = static_cast<size_t>((x + kSigmoidClip) * scale);
  if (index >= kSigmoidTableSize) index = kSigmoidTableSize - 1;
  return internal::kSigmoidTable.values[index];
}

// --- Reductions (kernel order) -----------------------------------------------

double Dot(const double* a, const double* b, size_t n);
double Sum(const double* a, size_t n);

// --- Elementwise -------------------------------------------------------------

// y[i] += x[i]
void Add(double* y, const double* x, size_t n);
// y[i] -= x[i]
void Sub(double* y, const double* x, size_t n);
// y[i] *= x[i]
void Mul(double* y, const double* x, size_t n);
// y[i] *= s
void Scale(double* y, double s, size_t n);
// y[i] += alpha * x[i]
void Axpy(double alpha, const double* x, double* y, size_t n);
// y[i] = alpha * y[i] + beta * x[i]  (axpby; e.g. Adam moment updates)
void ScaleAdd(double* y, double alpha, double beta, const double* x, size_t n);
// z[i] += x[i] * y[i]  (autograd gradient-accumulate fusion). Vector backends
// may contract the mul+add to FMA (ulp envelope, like Axpy); the scalar
// backend performs the two-rounding mul-then-add sequence. None of the three
// arrays may alias.
void MulAdd(double* z, const double* x, const double* y, size_t n);

// --- Message passing -------------------------------------------------------

// For i = 0, 1, ..., e - 1 in order: out row to[i] += rows row from[i] *
// scale[i], over d-element rows of the row-major rows and out. Each product
// is rounded before it is added (no FMA in any backend), and no scale is
// skipped -- an inf or NaN row behind a zero scale still reaches out -- so
// the result is bit-identical on every backend to copying the source row,
// Scale-ing it and Add-ing it, edge by edge. Destinations may repeat; out
// must not overlap rows.
void ScatterScaledAdd(const double* rows, size_t d, const size_t* from,
                      const size_t* to, const double* scale, size_t e,
                      double* out);

// --- Fused skip-gram context update -----------------------------------------

// One skip-gram context step of SGD: k pairs of center row `w` (read-only
// here) against the context rows rows[0 .. k) with labels labels[0 .. k).
// Pair j is the word2vec pair update
//   g_j = (labels[j] - TabulatedSigmoid(Dot(w, rows[j]))) * lr
//   center_grad[i] += g_j * rows[j][i]   (pre-update row)
//   rows[j][i]     += g_j * w[i]
// and each element takes the pairs in order j = 0, 1, ..., so one call is
// bit-identical to k calls with k = 1. Since `w` does not change and the
// rows are distinct, no dot depends on an earlier pair's update: backends
// run the k dots as independent accumulator chains before any update. The
// rows must therefore be distinct -- a row that repeats within a context
// starts a new call, so its dot sees the earlier update -- and no row may
// alias `w` or `center_grad`.
void FusedContextUpdate(const double* w, double* const* rows,
                        const double* labels, size_t k, double* center_grad,
                        size_t n, double lr);

// --- Matrix products -------------------------------------------------------

// out += A * B for the m x k matrix A(i, p) = a[i * a_row_stride +
// p * a_k_stride], the k x n row-major b and the m x n row-major out; the
// strides let MatMul (k, 1) and TransposedMatMul (1, m) share the entry.
// Each output row takes its terms with p ascending, skips every p with
// A(i, p) == 0 -- so an inf or NaN in row p of b reaches only the rows that
// use it -- and adds each term with Axpy's per-element operation. One call
// is therefore bit-identical, within a backend, to Axpy(A(i, p), b row p,
// out row i) over the non-zero A(i, p), row by row. out must not overlap a
// or b.
void Gemm(size_t m, size_t n, size_t k, const double* a, size_t a_row_stride,
          size_t a_k_stride, const double* b, double* out);

// out[i * p + j] = Dot(a row i, b row j, n) for the m x n row-major a, the
// p x n row-major b and the m x p row-major out: this backend's Dot, bit
// for bit.
void MatMulTransposed(size_t m, size_t p, size_t n, const double* a,
                      const double* b, double* out);

// --- Adam ------------------------------------------------------------------

// The step-constant scalars of one Adam step.
struct AdamCoefficients {
  double beta1;
  double one_minus_beta1;
  double beta2;
  double one_minus_beta2;
  double bias_correction1;  // 1 - beta1^t
  double bias_correction2;  // 1 - beta2^t
  double lr;
  double eps;
  double weight_decay;  // folded into the gradient when > 0
};

// One Adam step of one parameter, per element i in this order, each
// operation rounded on its own:
//   g = grad[i]                               (weight_decay <= 0)
//   g = value[i] * weight_decay + grad[i]     (weight_decay > 0)
//   m[i] = beta1 * m[i] + one_minus_beta1 * g (the backend's ScaleAdd)
//   v[i] = beta2 * v[i] + one_minus_beta2 * g * g
//   value[i] -= lr * (m[i] / bias_correction1)
//               / (sqrt(v[i] / bias_correction2) + eps)
// Backends walk the parameter once, in chunks whose length is a multiple
// of 8, calling their own Scale/Add/ScaleAdd bodies and the update on each
// chunk; so every element, tails included, is bit-identical to those four
// calls over the whole array. The m update is ScaleAdd's own (which may
// contract to FMA in a vector backend); the v and value updates round each
// operation in every backend (the vector TUs compile them with contraction
// off), so on x86 they match across backends.
void AdamStep(double* value, const double* grad, double* m, double* v,
              size_t n, const AdamCoefficients& c);

// --- Replica averaging (sharded skip-gram merge) ----------------------------

// In-place mean of `count` bit-identical copies of y: for each element,
// accumulates y[i] into itself count times sequentially and scales by `inv`
// (the caller's precomputed 1.0 / count). Bit-identical to summing the same
// value from `count` replicas in shard order, which is what makes the
// dirty-row merge's untouched rows equal a cross-replica average (see
// docs/performance.md).
void ReplicatedMean(double* y, size_t count, double inv, size_t n);

}  // namespace tg::kernels

#endif  // TG_NUMERIC_KERNELS_H_
