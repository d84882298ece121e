#ifndef VUPRED_ML_LASSO_H_
#define VUPRED_ML_LASSO_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace vup {

/// L1-regularized least squares (Lasso) via cyclic coordinate descent with
/// soft thresholding, minimizing the scikit-learn objective
///   (1 / (2n)) * ||y - Xw - b||^2 + alpha * ||w||_1.
/// The paper's configuration is alpha = 0.1.
class Lasso : public Regressor {
 public:
  struct Options {
    double alpha = 0.1;
    size_t max_iter = 1000;
    /// Convergence: max absolute coefficient change per sweep.
    double tol = 1e-6;
    bool fit_intercept = true;
  };

  Lasso() = default;
  explicit Lasso(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  Status Fit(const Matrix& x, std::span<const double> y) override;
  StatusOr<double> PredictOne(std::span<const double> features) const override;
  std::string name() const override { return "Lasso"; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<Lasso>(options_);
  }
  std::unique_ptr<Regressor> CloneFitted() const override {
    return std::make_unique<Lasso>(*this);
  }
  bool fitted() const override { return fitted_; }
  size_t ResidentBytes() const override {
    return sizeof(*this) + coef_.capacity() * sizeof(double);
  }

  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  /// Coordinate-descent sweeps run in the last Fit.
  size_t iterations_run() const { return iterations_run_; }

 private:
  Options options_;
  bool fitted_ = false;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  size_t iterations_run_ = 0;
};

}  // namespace vup

#endif  // VUPRED_ML_LASSO_H_
