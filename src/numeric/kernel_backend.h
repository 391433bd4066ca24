// Runtime-dispatched kernel backends: one function-pointer table per
// instruction set, resolved once per process into the table the public
// tg::kernels entry points call through.
//
// Backends:
//   * scalar  -- the fixed-order unrolled C++ kernels (kernels_scalar.cc),
//                compiled with the base architecture flags. Bit-identical to
//                the pre-dispatch kernel layer on every host, with a hash of
//                every entry pinned in tests/kernels_test.cc. This is the
//                determinism oracle.
//   * avx2    -- 256-bit AVX2+FMA intrinsics (kernels_avx2.cc, compiled with
//                per-file -mavx2 -mfma so the rest of the binary stays
//                runnable on any x86-64).
//   * avx512  -- 512-bit AVX-512F intrinsics (kernels_avx512.cc), built only
//                when the toolchain accepts -mavx512f.
//   * neon    -- 128-bit NEON intrinsics (kernels_neon.cc), aarch64 builds.
//
// Selection: the first ActiveBackend() call reads TG_ISA
// ({auto, scalar, avx2, avx512, neon}; unset/empty means auto) and probes
// the CPU (__builtin_cpu_supports on x86). `auto` picks the widest backend
// both compiled in and supported by the host; forcing an unavailable
// backend is a hard error (a forced knob that silently fell back would
// invalidate whatever the caller was trying to measure or reproduce).
//
// Numerics policy (docs/performance.md): every backend is a pure function
// of its inputs, so any *fixed* backend keeps the bit-identical-across-
// thread-counts contract. Vectorized backends reassociate reductions and
// contract mul+add to FMA, so they differ from `scalar` by bounded ulps --
// exact mode (TG_ISA=scalar) for reproducing seed outputs and golden tests,
// fast mode (auto) for production. tests/kernels_test.cc pins the envelope
// per backend against the entries of ScalarBackend(). The entries that
// round one operation at a time -- add/sub/mul/scale, scatter_scaled_add
// and replicated_mean -- are bit-identical across every backend.
#ifndef TG_NUMERIC_KERNEL_BACKEND_H_
#define TG_NUMERIC_KERNEL_BACKEND_H_

#include <cstddef>
#include <string>
#include <vector>

#include "numeric/kernels.h"

namespace tg::kernels {

// Per-backend implementations of the dense kernels in kernels.h. Semantics
// (including the determinism notes per entry) match the public functions.
struct KernelBackend {
  const char* name;

  double (*dot)(const double* a, const double* b, size_t n);
  double (*sum)(const double* a, size_t n);

  // Elementwise kernels touch each element with the same single IEEE
  // operation in every backend, so these four are bit-identical across
  // backends by construction.
  void (*add)(double* y, const double* x, size_t n);
  void (*sub)(double* y, const double* x, size_t n);
  void (*mul)(double* y, const double* x, size_t n);
  void (*scale)(double* y, double s, size_t n);

  void (*axpy)(double alpha, const double* x, double* y, size_t n);
  void (*scale_add)(double* y, double alpha, double beta, const double* x,
                    size_t n);
  // z[i] += x[i] * y[i] -- the autograd gradient-accumulate fusion. Vector
  // backends may contract to FMA (ulp envelope, like axpy); the scalar
  // backend performs the two-rounding mul-then-add sequence.
  void (*mul_add)(double* z, const double* x, const double* y, size_t n);
  // Kernels::ScatterScaledAdd. Each product rounds before its add: the avx
  // and neon TUs compile this entry with contraction turned off, so like
  // the four elementwise kernels it is bit-identical across backends.
  void (*scatter_scaled_add)(const double* rows, size_t d, const size_t* from,
                             const size_t* to, const double* scale, size_t e,
                             double* out);
  // The k dots first, as independent chains each in this backend's `dot`
  // lane order; then, per element in pair order, the same update operations
  // as k one-row calls. Bit-identical to those calls within the backend.
  void (*fused_context_update)(const double* w, double* const* rows,
                               const double* labels, size_t k,
                               double* center_grad, size_t n, double lr);
  // Must reproduce the exact per-element accumulate-count-times-then-scale
  // sequence in every backend (the dirty-row merge equivalence relies on
  // it); vectorizing across elements is fine, across the count loop is not.
  void (*replicated_mean)(double* y, size_t count, double inv, size_t n);

  // Kernels::Gemm. Several output rows share each load of a row of b: four
  // in the scalar, avx2 and neon backends (numeric/gemm_row_blocks.h), and
  // 8 x 16 register tiles with per-row FMA masks in avx512. Per element the
  // terms still arrive with k ascending, zero coefficients skipped, each
  // through this backend's `axpy` operation, so the bits equal row-by-row
  // `axpy` calls.
  void (*gemm)(size_t m, size_t n, size_t k, const double* a,
               size_t a_row_stride, size_t a_k_stride, const double* b,
               double* out);
  // Kernels::MatMulTransposed: the (i, j) loop runs inside the backend TU,
  // each element one call of this backend's `dot`.
  void (*matmul_transposed)(size_t m, size_t p, size_t n, const double* a,
                            const double* b, double* out);
  // Kernels::AdamStep: AdamStepChunks (numeric/adam_step_chunks.h) over
  // this TU's own Scale, Add and ScaleAdd and its Adam update. The update
  // rounds each operation on its own: the base x86 ISA has no FMA, and the
  // avx TUs, where GCC would contract intrinsic mul-then-add pairs too,
  // compile it with contraction turned off. So on x86 the v and value
  // updates are bit-identical across backends; on aarch64 every backend
  // runs the same C++ update loop as the base TU.
  void (*adam_step)(double* value, const double* grad, double* m, double* v,
                    size_t n, const AdamCoefficients& c);
};

// The fixed-order scalar table; always compiled, always supported.
const KernelBackend& ScalarBackend();

// The table every kernels.h entry point currently dispatches through.
// First call resolves TG_ISA + CPU support and emits the
// `numeric.backend.<name>` metrics counter.
const KernelBackend& ActiveBackend();
const char* ActiveBackendName();

// Forces a backend at runtime (tests; mirrors the TG_ISA values including
// "auto"). Returns false -- without changing the active table -- when the
// name is unknown, not compiled in, or unsupported by this CPU. Must not be
// called while kernel-calling work is in flight on other threads.
bool SetActiveBackend(const std::string& name);

// Names of the backends this binary could run on this host ("scalar" plus
// whatever ISA-specific tables are compiled in and CPU-supported), widest
// last. AvailableBackendNames().back() is what `auto` resolves to.
std::vector<std::string> AvailableBackendNames();

namespace internal {
// One accessor per backend TU. Only kernels_scalar.cc is always compiled;
// kernel_dispatch.cc references the others solely under the matching
// TG_HAVE_KERNELS_* compile definition, so the unconditional declarations
// here never create undefined references.
const KernelBackend* ScalarBackendTable();
const KernelBackend* Avx2BackendTable();
const KernelBackend* Avx512BackendTable();
const KernelBackend* NeonBackendTable();
}  // namespace internal

}  // namespace tg::kernels

#endif  // TG_NUMERIC_KERNEL_BACKEND_H_
