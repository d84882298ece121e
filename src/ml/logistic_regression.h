#ifndef VUPRED_ML_LOGISTIC_REGRESSION_H_
#define VUPRED_ML_LOGISTIC_REGRESSION_H_

#include <span>
#include <vector>

#include "common/statusor.h"
#include "linalg/matrix.h"

namespace vup {

/// L2-regularized binary logistic regression fitted with iteratively
/// reweighted least squares (Newton's method on the log-likelihood).
///
/// Supports the paper's future-work direction ("the use of classification
/// models to predict discrete usage levels", Section 5): the two-stage
/// forecaster uses it to predict whether the vehicle works at all on the
/// target day, and the usage-level classifier builds one-vs-rest stacks of
/// it.
class LogisticRegression {
 public:
  struct Options {
    /// L2 penalty on the coefficients (not the intercept). Also keeps the
    /// IRLS Hessian positive definite under separable data.
    double l2 = 1e-2;
    size_t max_iter = 50;
    /// Convergence threshold on the max absolute coefficient update.
    double tol = 1e-8;
    bool fit_intercept = true;
  };

  LogisticRegression() = default;
  explicit LogisticRegression(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// Trains on labels y in {0, 1}. InvalidArgument on shape mismatch,
  /// labels outside {0,1}, or single-class data (use the prior instead).
  Status Fit(const Matrix& x, std::span<const int> y);

  /// P(y == 1 | features).
  StatusOr<double> PredictProbability(std::span<const double> features) const;

  /// Hard decision at `threshold` on the probability.
  StatusOr<int> PredictClass(std::span<const double> features,
                             double threshold = 0.5) const;

  bool fitted() const { return fitted_; }
  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  size_t iterations_run() const { return iterations_run_; }

 private:
  Options options_;
  bool fitted_ = false;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  size_t iterations_run_ = 0;
};

/// Numerically-stable logistic sigmoid. Its exp is the library's own
/// (ml/lanes.h), so fits and probabilities are the same on every host.
double Sigmoid(double z);

}  // namespace vup

#endif  // VUPRED_ML_LOGISTIC_REGRESSION_H_
