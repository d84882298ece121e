#ifndef VUPRED_ML_GRADIENT_BOOSTING_H_
#define VUPRED_ML_GRADIENT_BOOSTING_H_

#include <memory>
#include <optional>
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

  /// Reconstructs a fitted ensemble from serialized state (ml/serialize.h).
  static GradientBoosting FromState(Options options, double init,
                                    std::vector<RegressionTree> trees,
                                    size_t num_features) {
    GradientBoosting m(options);
    m.init_ = init;
    m.trees_ = std::move(trees);
    m.num_features_ = num_features;
    m.fitted_ = true;
    return m;
  }

  const Options& options() const { return options_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  size_t num_features() const { return num_features_; }

  /// Arms the next Fit to continue boosting from a previous ensemble
  /// instead of stage 0: `trees` and `init` are adopted as-is, the
  /// ensemble prediction is re-evaluated on the new training window, and
  /// `extra_stages` additional stages are appended with the same stage
  /// arithmetic as a cold fit (so a warm fit of an adjacent window
  /// corrects the ensemble where the one shifted record changed the
  /// residuals). Consumed by the next Fit whatever its outcome; silently
  /// ignored (cold fit) when `num_features` differs from the new design
  /// matrix or `trees` is empty. training_loss_per_stage() then covers
  /// only the appended stages.
  void WarmStart(std::vector<RegressionTree> trees, double init,
                 size_t num_features, size_t extra_stages);

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
  /// True when the last Fit consumed a WarmStart payload.
  bool last_fit_warm_started() const { return last_fit_warm_started_; }

 private:
  struct WarmRequest {
    std::vector<RegressionTree> trees;
    double init = 0.0;
    size_t num_features = 0;
    size_t extra_stages = 0;
  };

  Options options_;
  bool fitted_ = false;
  size_t num_features_ = 0;
  double init_ = 0.0;
  std::vector<RegressionTree> trees_;
  std::vector<double> stage_losses_;
  bool last_fit_warm_started_ = false;
  std::optional<WarmRequest> warm_request_;
};

}  // namespace vup

#endif  // VUPRED_ML_GRADIENT_BOOSTING_H_
