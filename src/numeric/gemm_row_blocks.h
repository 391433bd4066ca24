// The row-blocked Gemm loop of the scalar, avx2 and neon backends, each
// instantiating it with its own AxpyRows (avx512 runs register tiles
// instead). Each backend TU compiles it under that TU's ISA flags, and each
// instantiation takes a backend type from an unnamed namespace, so it has
// internal linkage: no two TUs share a copy.
#ifndef TG_NUMERIC_GEMM_ROW_BLOCKS_H_
#define TG_NUMERIC_GEMM_ROW_BLOCKS_H_

#include <cstddef>

namespace tg::kernels::internal {

// Output rows that share each pass over a row of b.
inline constexpr size_t kGemmBlockRows = 4;

// out (m x n) += A * B with A(i, p) = a[i * a_row_stride + p * a_k_stride]
// and b k x n, in blocks of kGemmBlockRows output rows. For each p, the rows
// of the block with A(i, p) != 0 are gathered and
//   Rows::AxpyRows<R>(alpha, x, y, n):  y[r][j] += alpha[r] * x[j], r < R
// applies row p of b to them in one pass, with the backend's `axpy`
// operation per element. Every output element therefore sees the same
// operations, in the same order, as one `axpy` per non-zero A(i, p).
// A p that no row of the block uses costs only the coefficient loads, which
// matters for the GNN's sparse feature rows (docs/performance.md, "GNN epoch
// in the kernel table").
template <typename Rows>
void GemmRowBlocks(size_t m, size_t n, size_t k, const double* a,
                   size_t a_row_stride, size_t a_k_stride, const double* b,
                   double* out) {
  for (size_t i0 = 0; i0 < m; i0 += kGemmBlockRows) {
    const size_t rows = m - i0 < kGemmBlockRows ? m - i0 : kGemmBlockRows;
    const double* a_block = a + i0 * a_row_stride;
    double* out_block = out + i0 * n;
    for (size_t p = 0; p < k; ++p) {
      double alpha[kGemmBlockRows];
      double* y[kGemmBlockRows];
      size_t live = 0;
      for (size_t r = 0; r < rows; ++r) {
        const double coefficient = a_block[r * a_row_stride + p * a_k_stride];
        if (coefficient == 0.0) continue;
        alpha[live] = coefficient;
        y[live] = out_block + r * n;
        ++live;
      }
      const double* x = b + p * n;
      switch (live) {
        case 4:
          Rows::template AxpyRows<4>(alpha, x, y, n);
          break;
        case 3:
          Rows::template AxpyRows<3>(alpha, x, y, n);
          break;
        case 2:
          Rows::template AxpyRows<2>(alpha, x, y, n);
          break;
        case 1:
          Rows::template AxpyRows<1>(alpha, x, y, n);
          break;
        default:
          break;
      }
    }
  }
}

}  // namespace tg::kernels::internal

#endif  // TG_NUMERIC_GEMM_ROW_BLOCKS_H_
