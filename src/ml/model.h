#ifndef VUPRED_ML_MODEL_H_
#define VUPRED_ML_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "linalg/matrix.h"

namespace vup {

/// Interface of every trainable regressor in the library (the scikit-learn
/// fit/predict contract). Implementations are deterministic given their
/// options (stochastic ones take an explicit seed in their options struct).
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on design matrix `x` (rows = samples) and targets `y`.
  /// Refitting an already-fitted model restarts from scratch.
  /// InvalidArgument on shape mismatch or empty input.
  virtual Status Fit(const Matrix& x, std::span<const double> y) = 0;

  /// Predicts one sample. FailedPrecondition when not fitted;
  /// InvalidArgument when the feature count differs from training.
  virtual StatusOr<double> PredictOne(std::span<const double> features) const = 0;

  /// Batch prediction; default implementation loops PredictOne.
  virtual StatusOr<std::vector<double>> Predict(const Matrix& x) const {
    std::vector<double> out;
    out.reserve(x.rows());
    for (size_t r = 0; r < x.rows(); ++r) {
      VUP_ASSIGN_OR_RETURN(double v, PredictOne(x.Row(r)));
      out.push_back(v);
    }
    return out;
  }

  /// Short algorithm name for reports ("LR", "Lasso", "SVR", "GB").
  virtual std::string name() const = 0;

  /// Approximate heap bytes a fitted model keeps resident (weights,
  /// support vectors, tree nodes), for byte-budgeted caches. Models that
  /// score in place over a bundle they keep alive (compact bundles) charge
  /// that whole bundle.
  virtual size_t ResidentBytes() const { return 0; }

  /// Fresh unfitted copy with identical hyper-parameters.
  virtual std::unique_ptr<Regressor> Clone() const = 0;

  /// Deep copy including the fitted state, independent of this model (a
  /// later Fit of either leaves the other untouched). Models scoring over
  /// externally owned bytes share that owner instead of copying it.
  virtual std::unique_ptr<Regressor> CloneFitted() const = 0;

  virtual bool fitted() const = 0;
};

}  // namespace vup

#endif  // VUPRED_ML_MODEL_H_
