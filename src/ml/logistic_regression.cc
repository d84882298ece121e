#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "ml/lanes.h"

namespace vup {

double Sigmoid(double z) {
  if (z >= 0.0) {
    double e = Exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = Exp(z);
  return e / (1.0 + e);
}

Status LogisticRegression::Fit(const Matrix& x, std::span<const int> y) {
  fitted_ = false;
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("label size does not match design matrix");
  }
  if (options_.l2 < 0.0) {
    return Status::InvalidArgument("l2 must be non-negative");
  }
  int positives = 0;
  for (int label : y) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument("labels must be 0 or 1");
    }
    positives += label;
  }
  if (positives == 0 || positives == static_cast<int>(y.size())) {
    return Status::InvalidArgument(
        "single-class training data; fit has no information");
  }

  const size_t n = x.rows();
  const size_t d = x.cols();
  // Augmented design with a leading intercept column (unpenalized).
  const size_t da = options_.fit_intercept ? d + 1 : d;
  Matrix xa(n, da);
  for (size_t r = 0; r < n; ++r) {
    size_t c0 = 0;
    if (options_.fit_intercept) {
      xa(r, 0) = 1.0;
      c0 = 1;
    }
    for (size_t c = 0; c < d; ++c) xa(r, c0 + c) = x(r, c);
  }

  std::vector<double> w(da, 0.0);
  std::vector<double> eta(n, 0.0);  // Linear predictor.
  iterations_run_ = 0;
  for (size_t iter = 0; iter < options_.max_iter; ++iter) {
    ++iterations_run_;
    // Gradient and weighted Gram (Newton step on penalized likelihood).
    std::vector<double> grad(da, 0.0);
    Matrix hess(da, da);
    for (size_t r = 0; r < n; ++r) {
      double p = Sigmoid(eta[r]);
      double weight = std::max(p * (1.0 - p), 1e-8);
      double residual = static_cast<double>(y[r]) - p;
      std::span<const double> row = xa.Row(r);
      for (size_t i = 0; i < da; ++i) {
        grad[i] += row[i] * residual;
        for (size_t j = i; j < da; ++j) {
          hess(i, j) += weight * row[i] * row[j];
        }
      }
    }
    for (size_t i = 0; i < da; ++i) {
      for (size_t j = 0; j < i; ++j) hess(i, j) = hess(j, i);
    }
    // Penalty (skip the intercept slot).
    size_t pen_start = options_.fit_intercept ? 1 : 0;
    for (size_t i = pen_start; i < da; ++i) {
      grad[i] -= options_.l2 * w[i];
      hess(i, i) += options_.l2;
    }

    VUP_ASSIGN_OR_RETURN(std::vector<double> step,
                         CholeskySolve(hess, grad));
    double max_step = 0.0;
    for (size_t i = 0; i < da; ++i) {
      w[i] += step[i];
      max_step = std::max(max_step, std::abs(step[i]));
    }
    eta = xa.MultiplyVec(w);
    if (max_step < options_.tol) break;
  }

  if (options_.fit_intercept) {
    intercept_ = w[0];
    coef_.assign(w.begin() + 1, w.end());
  } else {
    intercept_ = 0.0;
    coef_ = w;
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> LogisticRegression::PredictProbability(
    std::span<const double> features) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (features.size() != coef_.size()) {
    return Status::InvalidArgument("feature count differs from training");
  }
  return Sigmoid(intercept_ + Dot(features, coef_));
}

StatusOr<int> LogisticRegression::PredictClass(
    std::span<const double> features, double threshold) const {
  VUP_ASSIGN_OR_RETURN(double p, PredictProbability(features));
  return p >= threshold ? 1 : 0;
}

}  // namespace vup
