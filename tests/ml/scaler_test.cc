#include "ml/scaler.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace vup {
namespace {

TEST(StandardScalerTest, ZeroMeanUnitVariance) {
  Matrix x = Matrix::FromRows({{1, 10}, {2, 20}, {3, 30}});
  StandardScaler s;
  Matrix t = s.FitTransform(x).value();
  for (size_t c = 0; c < 2; ++c) {
    double mean = 0, var = 0;
    for (size_t r = 0; r < 3; ++r) mean += t(r, c);
    mean /= 3;
    for (size_t r = 0; r < 3; ++r) var += (t(r, c) - mean) * (t(r, c) - mean);
    var /= 3;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(StandardScalerTest, ConstantColumnNotDividedByZero) {
  Matrix x = Matrix::FromRows({{5, 1}, {5, 2}, {5, 3}});
  StandardScaler s;
  Matrix t = s.FitTransform(x).value();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(t(r, 0), 0.0);  // Centered, scale 1.
  }
  EXPECT_DOUBLE_EQ(s.scales()[0], 1.0);
}

TEST(StandardScalerTest, TransformRowMatchesMatrixPath) {
  Matrix x = Matrix::FromRows({{1, 4}, {3, 8}});
  StandardScaler s;
  Matrix t = s.FitTransform(x).value();
  std::vector<double> row = s.TransformRow(std::vector<double>{1, 4}).value();
  EXPECT_DOUBLE_EQ(row[0], t(0, 0));
  EXPECT_DOUBLE_EQ(row[1], t(0, 1));
}

TEST(StandardScalerTest, NewDataUsesTrainingStatistics) {
  Matrix train = Matrix::FromRows({{0.0}, {10.0}});
  StandardScaler s;
  ASSERT_TRUE(s.Fit(train).ok());
  std::vector<double> out = s.TransformRow(std::vector<double>{20.0}).value();
  // mean 5, stddev 5 -> (20-5)/5 = 3.
  EXPECT_DOUBLE_EQ(out[0], 3.0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(StandardScalerTest, StatisticsMatchColumnOrderReference) {
  // Fit accumulates row by row with one running sum per column; each
  // column must still get the bits of a per-column loop over its rows.
  Rng rng(41);
  const size_t n = 140;
  const size_t d = 89;
  Matrix x(n, d);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) x(r, c) = rng.Normal();
    x(r, 3) = 2.5;                                 // Constant column.
    x(r, 7) = 1e15 + 1e3 * rng.Normal();           // Large offset.
    x(r, 11) = 1e150 * rng.Normal();               // Large magnitude.
    x(r, 13) = 1e-150 * rng.Normal();              // Tiny magnitude.
  }
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(x).ok());
  Matrix t = scaler.Transform(x).value();
  for (size_t c = 0; c < d; ++c) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) sum += x(r, c);
    const double mean = sum / static_cast<double>(n);
    double ss = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double dlt = x(r, c) - mean;
      ss += dlt * dlt;
    }
    const double sd = std::sqrt(ss / static_cast<double>(n));
    const double scale = sd > 0.0 ? sd : 1.0;
    EXPECT_TRUE(SameBits(scaler.means()[c], mean)) << "column " << c;
    EXPECT_TRUE(SameBits(scaler.scales()[c], scale)) << "column " << c;
    for (size_t r = 0; r < n; ++r) {
      EXPECT_TRUE(SameBits(t(r, c), (x(r, c) - mean) / scale))
          << "row " << r << " column " << c;
    }
  }
  EXPECT_EQ(scaler.scales()[3], 1.0);
}

TEST(StandardScalerTest, Errors) {
  StandardScaler s;
  EXPECT_TRUE(s.Fit(Matrix()).IsInvalidArgument());
  EXPECT_TRUE(s.Transform(Matrix(1, 1)).status().IsFailedPrecondition());
  Matrix x(2, 2);
  ASSERT_TRUE(s.Fit(x).ok());
  EXPECT_TRUE(s.Transform(Matrix(2, 3)).status().IsInvalidArgument());
  EXPECT_TRUE(
      s.TransformRow(std::vector<double>{1.0}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace vup
