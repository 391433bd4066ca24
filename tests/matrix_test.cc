#include <cmath>

#include <gtest/gtest.h>

#include "numeric/matrix.h"
#include "util/rng.h"

namespace tg {
namespace {

Matrix Small() { return Matrix::FromRows({{1, 2}, {3, 4}}); }

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(3, 4, 1.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_DOUBLE_EQ(m(2, 3), 1.5);
  EXPECT_EQ(m.ShapeString(), "[3 x 4]");
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, FromRowsAndAccess) {
  Matrix m = Small();
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3.0);
}

TEST(MatrixTest, RowAndColExtraction) {
  Matrix m = Small();
  EXPECT_EQ(m.Row(1), (std::vector<double>{3, 4}));
  EXPECT_EQ(m.Col(0), (std::vector<double>{1, 3}));
}

TEST(MatrixTest, SetRow) {
  Matrix m(2, 2);
  m.SetRow(0, {5, 6});
  EXPECT_DOUBLE_EQ(m(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 6.0);
}

TEST(MatrixTest, AdditionSubtraction) {
  Matrix a = Small();
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 11.0);
  Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 36.0);
}

TEST(MatrixTest, ScalarMultiplication) {
  Matrix m = Small() * 2.0;
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
  Matrix n = 0.5 * Small();
  EXPECT_DOUBLE_EQ(n(0, 0), 0.5);
}

TEST(MatrixTest, MatMul) {
  Matrix a = Small();                            // [[1,2],[3,4]]
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatMulRectangular) {
  Matrix a = Matrix::FromRows({{1, 2, 3}});      // 1x3
  Matrix b = Matrix::FromRows({{1}, {2}, {3}});  // 3x1
  Matrix c = a.MatMul(b);
  ASSERT_EQ(c.rows(), 1u);
  ASSERT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(0, 0), 14.0);
}

TEST(MatrixTest, TransposedMatMulMatchesExplicit) {
  Rng rng(3);
  Matrix a = Matrix::Gaussian(5, 3, &rng);
  Matrix b = Matrix::Gaussian(5, 4, &rng);
  Matrix fast = a.TransposedMatMul(b);
  Matrix slow = a.Transpose().MatMul(b);
  EXPECT_LT((fast - slow).MaxAbs(), 1e-12);
}

TEST(MatrixTest, MatMulTransposedMatchesExplicit) {
  Rng rng(5);
  Matrix a = Matrix::Gaussian(4, 6, &rng);
  Matrix b = Matrix::Gaussian(3, 6, &rng);
  Matrix fast = a.MatMulTransposed(b);
  Matrix slow = a.MatMul(b.Transpose());
  EXPECT_LT((fast - slow).MaxAbs(), 1e-12);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(7);
  Matrix a = Matrix::Gaussian(4, 7, &rng);
  EXPECT_LT((a.Transpose().Transpose() - a).MaxAbs(), 1e-15);
}

TEST(MatrixTest, Hadamard) {
  Matrix a = Small();
  Matrix h = a.Hadamard(a);
  EXPECT_DOUBLE_EQ(h(1, 0), 9.0);
}

TEST(MatrixTest, AddRowBroadcast) {
  Matrix a = Small();
  Matrix bias = Matrix::FromRows({{10, 100}});
  Matrix out = a.AddRowBroadcast(bias);
  EXPECT_DOUBLE_EQ(out(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(out(1, 1), 104.0);
}

TEST(MatrixTest, SumNorms) {
  Matrix a = Small();
  EXPECT_DOUBLE_EQ(a.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
}

TEST(MatrixTest, RowMeanColSum) {
  Matrix a = Small();
  Matrix rm = a.RowMean();
  EXPECT_DOUBLE_EQ(rm(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(rm(1, 0), 3.5);
  Matrix cs = a.ColSum();
  EXPECT_DOUBLE_EQ(cs(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(cs(0, 1), 6.0);
}

TEST(MatrixTest, GaussianMatrixMoments) {
  Rng rng(11);
  Matrix g = Matrix::Gaussian(200, 200, &rng, 2.0, 3.0);
  double mean = g.Sum() / static_cast<double>(g.size());
  EXPECT_NEAR(mean, 2.0, 0.1);
}

TEST(MatrixTest, UniformMatrixRange) {
  Rng rng(13);
  Matrix u = Matrix::Uniform(50, 50, &rng, -1.0, 1.0);
  EXPECT_LE(u.MaxAbs(), 1.0);
}

TEST(MatrixTest, ColumnVector) {
  Matrix v = Matrix::ColumnVector({1, 2, 3});
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 1u);
  EXPECT_DOUBLE_EQ(v(2, 0), 3.0);
}

}  // namespace
}  // namespace tg
