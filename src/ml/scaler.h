#ifndef VUPRED_ML_SCALER_H_
#define VUPRED_ML_SCALER_H_

#include <span>
#include <vector>

#include "common/statusor.h"
#include "linalg/matrix.h"

namespace vup {

/// Column-wise standardization of a design matrix to zero mean and unit
/// variance. Constant columns are left centered (scale 1), not divided by
/// zero. Kernel methods (SVR) depend on this for sane distances.
class StandardScaler {
 public:
  /// Learns per-column mean and standard deviation.
  /// InvalidArgument on an empty matrix.
  Status Fit(const Matrix& x);

  bool fitted() const { return fitted_; }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& scales() const { return scales_; }

  /// (x - mean) / scale per column, computed in x's own storage (pass an
  /// rvalue to skip the copy). FailedPrecondition when not fitted,
  /// InvalidArgument on column-count mismatch.
  StatusOr<Matrix> Transform(Matrix x) const;
  StatusOr<std::vector<double>> TransformRow(
      std::span<const double> row) const;

  /// Fit followed by Transform.
  StatusOr<Matrix> FitTransform(Matrix x);

  /// Reconstructs a fitted scaler from decoded state (ml/compact.h).
  static StandardScaler FromState(std::vector<double> means,
                                  std::vector<double> scales) {
    StandardScaler s;
    s.means_ = std::move(means);
    s.scales_ = std::move(scales);
    s.fitted_ = !s.means_.empty();
    return s;
  }

 private:
  bool fitted_ = false;
  std::vector<double> means_;
  std::vector<double> scales_;
};

}  // namespace vup

#endif  // VUPRED_ML_SCALER_H_
