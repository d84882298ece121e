#ifndef VUPRED_ML_SVR_H_
#define VUPRED_ML_SVR_H_

#include <memory>
#include <optional>
#include <vector>

#include "ml/kernel.h"
#include "ml/model.h"

namespace vup {

/// Epsilon-insensitive Support Vector Regression.
///
/// Solves the standard dual in the collapsed variables beta_i = alpha_i -
/// alpha_i^* in [-C, C]:
///
///   min_beta  1/2 beta^T K beta - y^T beta + epsilon * ||beta||_1
///   s.t.      sum_i beta_i = 0
///
/// with SMO: each step moves a pair (beta_i += delta, beta_j -= delta),
/// keeping the equality constraint satisfied; the optimal delta of the
/// piecewise-quadratic one-dimensional subproblem is found analytically
/// over its sign regions. The pair is chosen with second-order
/// information (Fan, Chen & Lin, JMLR 2005), and the solver stops when the
/// maximal-violating-pair KKT gap falls to `tol` -- libsvm's rule, so a
/// fit is converged, not budget-bound. Cold and warm fits run the same
/// loop; they differ only in the starting point and in where kernel rows
/// come from.
///
/// The paper's configuration is kernel=rbf, C=10, epsilon=0.1. For gamma,
/// see KernelParams: gamma <= 0 resolves to 1/num_features at fit time.
class Svr : public Regressor {
 public:
  /// Fit rejects a non-finite or non-positive c, a non-finite or negative
  /// epsilon, a non-finite kernel.gamma and a NaN or negative tol.
  struct Options {
    double c = 10.0;
    double epsilon = 0.1;
    KernelParams kernel;
    /// Stop when the KKT gap -(min_i up(i) + min_j down(j)) falls to tol,
    /// where up/down are the one-sided dual derivatives of raising and
    /// lowering one coefficient (libsvm's rule and default).
    double tol = 1e-3;
    /// Safety cap: at most max_sweeps * n pair steps per fit.
    size_t max_sweeps = 300;
  };

  /// Diagnostics of the last Fit (cold or warm).
  struct FitStats {
    bool warm_started = false;
    /// Pair steps taken.
    size_t iterations = 0;
    /// ceil(iterations / n): pair steps in units of the row count.
    size_t sweeps = 0;
    /// Final KKT gap -(m_up + m_down), clamped at 0; <= tol unless the
    /// step cap or rounding stopped the fit first.
    double gap = 0.0;
    KernelRowCache::Stats kernel_cache;  // Zero for the cold (full-Gram) path.
  };

  Svr() = default;
  explicit Svr(Options options) : options_(options) {}

  /// Reconstructs a fitted model from serialized state (ml/serialize.h).
  /// `options.kernel.gamma` must be the resolved (positive) value.
  static Svr FromState(Options options, Matrix support_vectors,
                       std::vector<double> beta, double bias,
                       size_t num_features) {
    Svr m(options);
    m.support_ = std::move(support_vectors);
    m.beta_ = std::move(beta);
    m.bias_ = bias;
    m.num_features_ = num_features;
    m.fitted_ = true;
    return m;
  }

  const Options& options() const { return options_; }
  const Matrix& support_vectors() const { return support_; }
  const std::vector<double>& dual_coefficients() const { return beta_; }
  size_t num_features() const { return num_features_; }

  /// Arms the next Fit to resume SMO from `beta0` (one dual coefficient
  /// per training row of the upcoming design matrix) instead of zero,
  /// reading kernel rows through a `kernel_cache_rows`-row LRU cache
  /// instead of the precomputed full Gram matrix.
  ///
  /// Consumed by the next Fit whatever its outcome; silently ignored
  /// (cold fit) when beta0's length does not match the row count. The
  /// starting point is clamped to the box and repaired to sum(beta) = 0,
  /// so any beta0 is safe -- a good one (the previous adjacent window's
  /// solution through ShiftSvrBetaForward) just starts closer.
  ///
  /// The warm fit runs the cold fit's loop and stops on the same KKT gap,
  /// so both end at tol-converged optima (see DESIGN.md section 14).
  /// `max_sweeps` overrides the step cap for this fit (0 means inherit
  /// options_.max_sweeps).
  void WarmStart(std::vector<double> beta0, size_t kernel_cache_rows,
                 size_t max_sweeps = 0);

  Status Fit(const Matrix& x, std::span<const double> y) override;
  StatusOr<double> PredictOne(std::span<const double> features) const override;
  std::string name() const override { return "SVR"; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<Svr>(options_);
  }
  std::unique_ptr<Regressor> CloneFitted() const override {
    return std::make_unique<Svr>(*this);
  }
  bool fitted() const override { return fitted_; }
  size_t ResidentBytes() const override {
    return sizeof(*this) +
           (support_.rows() * support_.cols() + beta_.capacity() +
            full_beta_.capacity()) *
               sizeof(double);
  }

  /// Number of support vectors (beta != 0) after fitting.
  size_t num_support_vectors() const { return support_.rows(); }
  double bias() const { return bias_; }
  const FitStats& last_fit_stats() const { return fit_stats_; }

  /// The full-length dual vector of the last Fit (one beta per training
  /// row, zeros included) -- the payload a warm start resumes from.
  const std::vector<double>& last_full_beta() const { return full_beta_; }

  /// Dual objective value 1/2 b^T K b - y^T b + eps*||b||_1 at the last
  /// Fit's solution; the scalar the equivalence harness compares between
  /// cold and warm fits.
  double last_dual_objective() const { return dual_objective_; }

 private:
  struct WarmRequest {
    std::vector<double> beta0;
    size_t kernel_cache_rows = 0;
    size_t max_sweeps = 0;  // 0 = inherit options_.max_sweeps.
  };

  /// Fit tail: bias from free-SV KKT conditions, support-vector
  /// compaction, dual objective, resolved-kernel capture.
  void FinishFit(const Matrix& x, std::span<const double> y,
                 std::span<const double> beta, std::span<const double> f,
                 const KernelParams& kernel);

  Options options_;
  bool fitted_ = false;
  size_t num_features_ = 0;
  Matrix support_;                 // Support vectors, one per row.
  std::vector<double> beta_;       // Dual coefficient per support vector.
  std::vector<double> full_beta_;  // Dual coefficient per training row.
  double bias_ = 0.0;
  double dual_objective_ = 0.0;
  FitStats fit_stats_;
  std::optional<WarmRequest> warm_request_;
};

}  // namespace vup

#endif  // VUPRED_ML_SVR_H_
