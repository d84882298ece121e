#include "ml/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/random.h"
#include "stats/descriptive.h"

namespace vup {

namespace {

double LossValue(GbLoss loss, std::span<const double> y,
                 std::span<const double> f) {
  double sum = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    double r = y[i] - f[i];
    sum += loss == GbLoss::kLeastSquares ? 0.5 * r * r : std::abs(r);
  }
  return sum / static_cast<double>(y.size());
}

}  // namespace

Status GradientBoosting::Fit(const Matrix& x, std::span<const double> y) {
  fitted_ = false;
  trees_.clear();
  stage_losses_.clear();
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("target size does not match design matrix");
  }
  if (options_.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (options_.subsample <= 0.0 || options_.subsample > 1.0) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }

  const size_t n = x.rows();
  num_features_ = x.cols();

  // Initial constant: mean for LS, median for LAD.
  init_ = options_.loss == GbLoss::kLeastSquares ? Mean(y) : Median(y);
  std::vector<double> f(n, init_);     // Current ensemble prediction.
  std::vector<double> gradient(n);     // Negative gradient (pseudo-residual).
  std::vector<double> residual(n);     // y - f, for LAD leaf relabeling.
  Rng rng(options_.seed);

  RegressionTree::Options tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;

  trees_.reserve(options_.n_estimators);
  stage_losses_.reserve(options_.n_estimators);
  for (size_t stage = 0; stage < options_.n_estimators; ++stage) {
    for (size_t i = 0; i < n; ++i) {
      residual[i] = y[i] - f[i];
      gradient[i] = options_.loss == GbLoss::kLeastSquares
                        ? residual[i]
                        : (residual[i] > 0.0   ? 1.0
                           : residual[i] < 0.0 ? -1.0
                                               : 0.0);
    }

    RegressionTree tree(tree_options);
    if (options_.subsample < 1.0) {
      // Stochastic boosting: fit on a row subset, relabel on the subset,
      // update f on all rows.
      std::vector<size_t> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      rng.Shuffle(&perm);
      size_t m = std::max<size_t>(
          2, static_cast<size_t>(options_.subsample * static_cast<double>(n)));
      perm.resize(std::min(m, n));
      Matrix xs = x.SelectRows(perm);
      std::vector<double> gs, rs;
      gs.reserve(perm.size());
      rs.reserve(perm.size());
      for (size_t i : perm) {
        gs.push_back(gradient[i]);
        rs.push_back(residual[i]);
      }
      VUP_RETURN_IF_ERROR(tree.Fit(xs, gs));
      if (options_.loss == GbLoss::kLeastAbsoluteDeviation) {
        VUP_RETURN_IF_ERROR(tree.RelabelLeaves(xs, rs, /*use_median=*/true));
      }
    } else {
      VUP_RETURN_IF_ERROR(tree.Fit(x, gradient));
      if (options_.loss == GbLoss::kLeastAbsoluteDeviation) {
        VUP_RETURN_IF_ERROR(
            tree.RelabelLeaves(x, residual, /*use_median=*/true));
      }
    }

    for (size_t i = 0; i < n; ++i) {
      StatusOr<double> p = tree.PredictOne(x.Row(i));
      VUP_RETURN_IF_ERROR(p.status());
      f[i] += options_.learning_rate * p.value();
    }
    trees_.push_back(std::move(tree));
    stage_losses_.push_back(LossValue(options_.loss, y, f));
  }

  fitted_ = true;
  return Status::OK();
}

StatusOr<double> GradientBoosting::PredictOne(
    std::span<const double> features) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (features.size() != num_features_) {
    return Status::InvalidArgument("feature count differs from training");
  }
  double sum = init_;
  for (const RegressionTree& tree : trees_) {
    VUP_ASSIGN_OR_RETURN(double p, tree.PredictOne(features));
    sum += options_.learning_rate * p;
  }
  return sum;
}

}  // namespace vup
