#include "numeric/matrix.h"

#include <cmath>

#include "numeric/kernels.h"
#include "util/rng.h"

namespace tg {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix out(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    TG_CHECK_EQ(rows[r].size(), out.cols_);
    for (size_t c = 0; c < out.cols_; ++c) out(r, c) = rows[r][c];
  }
  return out;
}

Matrix Matrix::Identity(size_t n) {
  Matrix out(n, n);
  for (size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, Rng* rng, double mean,
                        double stddev) {
  Matrix out(rows, cols);
  for (double& v : out.data_) v = rng->NextGaussian(mean, stddev);
  return out;
}

Matrix Matrix::Uniform(size_t rows, size_t cols, Rng* rng, double lo,
                       double hi) {
  Matrix out(rows, cols);
  for (double& v : out.data_) v = rng->NextUniform(lo, hi);
  return out;
}

Matrix Matrix::ColumnVector(const std::vector<double>& values) {
  Matrix out(values.size(), 1);
  for (size_t i = 0; i < values.size(); ++i) out(i, 0) = values[i];
  return out;
}

std::vector<double> Matrix::Row(size_t r) const {
  TG_CHECK_LT(r, rows_);
  return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
}

std::vector<double> Matrix::Col(size_t c) const {
  TG_CHECK_LT(c, cols_);
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::SetRow(size_t r, const std::vector<double>& values) {
  TG_CHECK_LT(r, rows_);
  TG_CHECK_EQ(values.size(), cols_);
  for (size_t c = 0; c < cols_; ++c) (*this)(r, c) = values[c];
}

Matrix& Matrix::operator+=(const Matrix& other) {
  TG_CHECK(SameShape(other));
  kernels::Add(data_.data(), other.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  TG_CHECK(SameShape(other));
  kernels::Sub(data_.data(), other.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  kernels::Scale(data_.data(), scalar, data_.size());
  return *this;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  TG_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  kernels::Gemm(rows_, other.cols_, cols_, data(), /*a_row_stride=*/cols_,
                /*a_k_stride=*/1, other.data(), out.data());
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  TG_CHECK_EQ(rows_, other.rows_);
  Matrix out(cols_, other.cols_);
  kernels::Gemm(cols_, other.cols_, rows_, data(), /*a_row_stride=*/1,
                /*a_k_stride=*/cols_, other.data(), out.data());
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  TG_CHECK_EQ(cols_, other.cols_);
  Matrix out(rows_, other.rows_);
  kernels::MatMulTransposed(rows_, other.rows_, cols_, data(), other.data(),
                            out.data());
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  TG_CHECK(SameShape(other));
  Matrix out = *this;
  kernels::Mul(out.data_.data(), other.data_.data(), out.data_.size());
  return out;
}

Matrix Matrix::AddRowBroadcast(const Matrix& row) const {
  TG_CHECK_EQ(row.rows(), 1u);
  TG_CHECK_EQ(row.cols(), cols_);
  Matrix out = *this;
  for (size_t r = 0; r < rows_; ++r) {
    kernels::Add(out.RowPtr(r), row.RowPtr(0), cols_);
  }
  return out;
}

double Matrix::Sum() const {
  return kernels::Sum(data_.data(), data_.size());
}

double Matrix::FrobeniusNorm() const {
  return std::sqrt(kernels::Dot(data_.data(), data_.data(), data_.size()));
}

double Matrix::MaxAbs() const {
  double acc = 0.0;
  for (double v : data_) acc = std::max(acc, std::fabs(v));
  return acc;
}

Matrix Matrix::RowMean() const {
  Matrix out(rows_, 1);
  if (cols_ == 0) return out;
  for (size_t r = 0; r < rows_; ++r) {
    out(r, 0) = kernels::Sum(RowPtr(r), cols_) / static_cast<double>(cols_);
  }
  return out;
}

Matrix Matrix::ColSum() const {
  Matrix out(1, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    kernels::Add(out.RowPtr(0), RowPtr(r), cols_);
  }
  return out;
}

std::string Matrix::ShapeString() const {
  return "[" + std::to_string(rows_) + " x " + std::to_string(cols_) + "]";
}

}  // namespace tg
