#ifndef VUPRED_ML_GRADIENT_BOOSTING_H_
#define VUPRED_ML_GRADIENT_BOOSTING_H_

#include <memory>
#include <vector>

#include "ml/model.h"
#include "ml/tree.h"

namespace vup {

/// Loss functions for gradient boosting. The paper uses LAD
/// ("loss = lad" in its scikit-learn configuration).
enum class GbLoss : int {
  kLeastSquares = 0,
  kLeastAbsoluteDeviation = 1,
};

/// Gradient-boosted regression trees (Friedman's algorithm).
///
/// Paper configuration: learning_rate=0.1, n_estimators=100, max_depth=1
/// (stumps), loss=lad. For LAD the trees are grown on the gradient signs
/// and each leaf is relabeled with the median residual of its training
/// rows, matching the scikit-learn implementation.
class GradientBoosting : public Regressor {
 public:
  struct Options {
    double learning_rate = 0.1;
    size_t n_estimators = 100;
    int max_depth = 1;
    size_t min_samples_leaf = 1;
    GbLoss loss = GbLoss::kLeastAbsoluteDeviation;
    /// Row fraction sampled (without replacement) per stage; 1.0 disables
    /// stochastic boosting.
    double subsample = 1.0;
    uint64_t seed = 17;
  };

  GradientBoosting() = default;
  explicit GradientBoosting(Options options) : options_(options) {}

  const Options& options() const { return options_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  size_t num_features() const { return num_features_; }

  Status Fit(const Matrix& x, std::span<const double> y) override;
  StatusOr<double> PredictOne(std::span<const double> features) const override;
  std::string name() const override { return "GB"; }
  std::unique_ptr<Regressor> Clone() const override {
    return std::make_unique<GradientBoosting>(options_);
  }
  std::unique_ptr<Regressor> CloneFitted() const override {
    return std::make_unique<GradientBoosting>(*this);
  }
  bool fitted() const override { return fitted_; }
  size_t ResidentBytes() const override {
    size_t bytes = sizeof(*this) +
                   (trees_.capacity() - trees_.size()) *
                       sizeof(RegressionTree) +
                   stage_losses_.capacity() * sizeof(double);
    for (const RegressionTree& tree : trees_) bytes += tree.ResidentBytes();
    return bytes;
  }

  /// Training loss after each stage (length n_estimators); useful for
  /// verifying monotone decrease and for early-stopping studies.
  const std::vector<double>& training_loss_per_stage() const {
    return stage_losses_;
  }
  size_t num_stages() const { return trees_.size(); }
  double initial_prediction() const { return init_; }

 private:
  Options options_;
  bool fitted_ = false;
  size_t num_features_ = 0;
  double init_ = 0.0;
  std::vector<RegressionTree> trees_;
  std::vector<double> stage_losses_;
};

}  // namespace vup

#endif  // VUPRED_ML_GRADIENT_BOOSTING_H_
