#ifndef VUPRED_ML_LINEAR_REGRESSION_H_
#define VUPRED_ML_LINEAR_REGRESSION_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace vup {

/// Ordinary least squares fitted via rank-revealing Householder QR,
/// well-defined even on collinear windowed features (dependent columns get
/// zero coefficients). With ridge > 0, solves the Tikhonov-stabilized
/// normal equations instead: on wide windowed designs (more features than
/// records) plain OLS interpolates and extrapolates wildly, so pipeline
/// users pass a small ridge; ridge == 0 keeps exact OLS.
class LinearRegression : public Regressor {
 public:
  struct Options {
    bool fit_intercept = true;
    double ridge = 0.0;  // L2 penalty on coefficients (not the intercept).
  };

  LinearRegression() = default;
  explicit LinearRegression(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  Status Fit(const Matrix& x, std::span<const double> y) override;
  StatusOr<double> PredictOne(std::span<const double> features) const override;
  std::string name() const override { return "LR"; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<LinearRegression>(options_);
  }
  std::unique_ptr<Regressor> CloneFitted() const override {
    return std::make_unique<LinearRegression>(*this);
  }
  bool fitted() const override { return fitted_; }
  size_t ResidentBytes() const override {
    return sizeof(*this) + coef_.capacity() * sizeof(double);
  }

  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

 private:
  Options options_;
  bool fitted_ = false;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

}  // namespace vup

#endif  // VUPRED_ML_LINEAR_REGRESSION_H_
