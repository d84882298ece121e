#include "ml/scaler.h"

#include <cmath>

namespace vup {

Status StandardScaler::Fit(const Matrix& x) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("cannot fit scaler on empty matrix");
  }
  const size_t n = x.rows();
  const size_t d = x.cols();
  // Row-major passes with one running sum per column: each column's sum
  // still adds its rows in order, the same chain as a per-column loop, and
  // the inner loop over columns streams the matrix once per pass.
  means_.assign(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.Row(r).data();
    for (size_t c = 0; c < d; ++c) means_[c] += row[c];
  }
  for (size_t c = 0; c < d; ++c) means_[c] /= static_cast<double>(n);
  scales_.assign(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.Row(r).data();
    for (size_t c = 0; c < d; ++c) {
      const double dlt = row[c] - means_[c];
      scales_[c] += dlt * dlt;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    // Population stddev, like sklearn's StandardScaler.
    const double sd = std::sqrt(scales_[c] / static_cast<double>(n));
    scales_[c] = sd > 0.0 ? sd : 1.0;
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> StandardScaler::Transform(Matrix x) const {
  if (!fitted_) return Status::FailedPrecondition("scaler not fitted");
  if (x.cols() != means_.size()) {
    return Status::InvalidArgument("column count differs from fit");
  }
  for (size_t r = 0; r < x.rows(); ++r) {
    double* row = x.MutableRow(r).data();
    for (size_t c = 0; c < x.cols(); ++c) {
      row[c] = (row[c] - means_[c]) / scales_[c];
    }
  }
  return x;
}

StatusOr<std::vector<double>> StandardScaler::TransformRow(
    std::span<const double> row) const {
  if (!fitted_) return Status::FailedPrecondition("scaler not fitted");
  if (row.size() != means_.size()) {
    return Status::InvalidArgument("feature count differs from fit");
  }
  std::vector<double> out(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    out[c] = (row[c] - means_[c]) / scales_[c];
  }
  return out;
}

StatusOr<Matrix> StandardScaler::FitTransform(Matrix x) {
  VUP_RETURN_IF_ERROR(Fit(x));
  return Transform(std::move(x));
}

}  // namespace vup
