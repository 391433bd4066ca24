// Dense row-major double-precision matrix, the numeric workhorse for the
// autograd engine, GNN layers, transferability estimators and the synthetic
// model zoo. Deliberately simple: contiguous storage, bounds-checked element
// access in debug via TG_CHECK, no expression templates.
#ifndef TG_NUMERIC_MATRIX_H_
#define TG_NUMERIC_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/aligned.h"
#include "util/check.h"

namespace tg {

class Rng;

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Builds from nested initializer data (row major), e.g. {{1,2},{3,4}}.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);
  static Matrix Identity(size_t n);
  // Entries i.i.d. N(mean, stddev).
  static Matrix Gaussian(size_t rows, size_t cols, Rng* rng,
                         double mean = 0.0, double stddev = 1.0);
  // Entries i.i.d. uniform in [lo, hi).
  static Matrix Uniform(size_t rows, size_t cols, Rng* rng,
                        double lo, double hi);
  // Column vector from values.
  static Matrix ColumnVector(const std::vector<double>& values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    TG_CHECK_LT(r, rows_);
    TG_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    TG_CHECK_LT(r, rows_);
    TG_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  std::vector<double> Row(size_t r) const;
  std::vector<double> Col(size_t c) const;
  void SetRow(size_t r, const std::vector<double>& values);

  // --- Arithmetic. Shapes must match exactly (no broadcasting except the
  // explicitly named *RowBroadcast variants). ---
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend Matrix operator*(Matrix lhs, double scalar) {
    lhs *= scalar;
    return lhs;
  }
  friend Matrix operator*(double scalar, Matrix rhs) {
    rhs *= scalar;
    return rhs;
  }

  // Matrix product (this: m x k, other: k x n).
  Matrix MatMul(const Matrix& other) const;
  // this^T * other without materializing the transpose.
  Matrix TransposedMatMul(const Matrix& other) const;
  // this * other^T without materializing the transpose.
  Matrix MatMulTransposed(const Matrix& other) const;

  Matrix Transpose() const;
  Matrix Hadamard(const Matrix& other) const;

  // Adds a 1 x cols row vector to every row.
  Matrix AddRowBroadcast(const Matrix& row) const;

  double Sum() const;
  double FrobeniusNorm() const;
  double MaxAbs() const;

  // Per-row mean: returns rows x 1.
  Matrix RowMean() const;
  // Column sums: returns 1 x cols.
  Matrix ColSum() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  size_t rows_;
  size_t cols_;
  // Cache-line aligned so row 0 starts on a 64B boundary; rows whose dim is
  // a multiple of 8 doubles then never straddle an extra line.
  std::vector<double, AlignedAllocator<double, 64>> data_;
};

}  // namespace tg

#endif  // TG_NUMERIC_MATRIX_H_
