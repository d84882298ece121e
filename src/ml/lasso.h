#ifndef VUPRED_ML_LASSO_H_
#define VUPRED_ML_LASSO_H_

#include <memory>
#include <optional>
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

  /// Reconstructs a fitted model from serialized state (ml/serialize.h).
  static Lasso FromState(Options options, std::vector<double> coefficients,
                         double intercept) {
    Lasso m(options);
    m.coef_ = std::move(coefficients);
    m.intercept_ = intercept;
    m.fitted_ = true;
    return m;
  }

  const Options& options() const { return options_; }

  /// Arms the next Fit to start coordinate descent from `coefficients`
  /// (the previous adjacent window's solution) instead of zero: the
  /// residual is recomputed against the new data, the nonzero (active)
  /// coordinates are swept to convergence first, and full verification
  /// sweeps over every coordinate follow until one of them makes no
  /// tol-sized move -- the cold path's exact convergence criterion, so
  /// warm and cold fits share the same fixed points. Consumed by the next
  /// Fit whatever its outcome; silently ignored (cold fit) when the
  /// column count differs.
  void WarmStart(std::vector<double> coefficients);

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
    return sizeof(*this) + coef_.capacity() * sizeof(double) +
           (warm_coef_ ? warm_coef_->capacity() * sizeof(double) : 0);
  }

  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  /// Sweeps run in the last Fit (active-set and full sweeps both count).
  size_t iterations_run() const { return iterations_run_; }
  /// True when the last Fit consumed a WarmStart payload.
  bool last_fit_warm_started() const { return last_fit_warm_started_; }

 private:
  Options options_;
  bool fitted_ = false;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  size_t iterations_run_ = 0;
  bool last_fit_warm_started_ = false;
  std::optional<std::vector<double>> warm_coef_;
};

}  // namespace vup

#endif  // VUPRED_ML_LASSO_H_
