#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "stats/descriptive.h"

namespace vup {

namespace {

/// Objective change of moving the pair by delta:
///   dW = 1/2 * eta * delta^2 + (f_i - f_j) * delta
///        + eps * (|bi + delta| - |bi|) + eps * (|bj - delta| - |bj|).
double PairObjectiveDelta(double delta, double eta, double f_diff, double eps,
                          double bi, double bj) {
  return 0.5 * eta * delta * delta + f_diff * delta +
         eps * (std::abs(bi + delta) - std::abs(bi)) +
         eps * (std::abs(bj - delta) - std::abs(bj));
}

/// Analytic minimizer of the pair subproblem over [lo, hi]. Candidates:
/// stationary points per sign region of (bi + delta, bj - delta), plus the
/// kinks and the box ends.
void BestPairStep(double eta, double f_diff, double eps, double bi, double bj,
                  double lo, double hi, double* best_delta,
                  double* best_obj) {
  double candidates[8];
  int num_candidates = 0;
  for (double sa : {-1.0, 1.0}) {
    for (double sb : {-1.0, 1.0}) {
      candidates[num_candidates++] = -(f_diff + eps * (sa - sb)) / eta;
    }
  }
  candidates[num_candidates++] = -bi;  // bi + delta == 0.
  candidates[num_candidates++] = bj;   // bj - delta == 0.
  candidates[num_candidates++] = lo;
  candidates[num_candidates++] = hi;

  *best_delta = 0.0;
  *best_obj = 0.0;
  for (int ci = 0; ci < num_candidates; ++ci) {
    double delta = std::clamp(candidates[ci], lo, hi);
    double obj = PairObjectiveDelta(delta, eta, f_diff, eps, bi, bj);
    if (obj < *best_obj) {
      *best_obj = obj;
      *best_delta = delta;
    }
  }
}

}  // namespace

void Svr::WarmStart(std::vector<double> beta0, size_t kernel_cache_rows,
                    size_t max_sweeps) {
  warm_request_ = WarmRequest{std::move(beta0), kernel_cache_rows, max_sweeps};
}

Status Svr::Fit(const Matrix& x, std::span<const double> y) {
  WarmRequest warm;
  const bool have_warm = warm_request_.has_value();
  if (have_warm) warm = std::move(*warm_request_);
  warm_request_.reset();
  fitted_ = false;
  fit_stats_ = FitStats{};
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("empty design matrix");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("target size does not match design matrix");
  }
  if (options_.c <= 0.0) {
    return Status::InvalidArgument("C must be positive");
  }
  if (options_.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }

  const size_t n = x.rows();
  num_features_ = x.cols();
  const double c = options_.c;
  const double eps = options_.epsilon;

  KernelParams kernel = options_.kernel;
  if (kernel.gamma <= 0.0) {
    kernel.gamma = kernel.EffectiveGamma(num_features_);
  }

  std::vector<double> beta(n, 0.0);
  size_t max_sweeps = options_.max_sweeps;
  if (have_warm && warm.beta0.size() == n) {
    fit_stats_.warm_started = true;
    beta = std::move(warm.beta0);
    if (warm.max_sweeps != 0) max_sweeps = warm.max_sweeps;
    // Sanitize the starting point: clamp to the box, then repair
    // sum(beta) = 0 by taking the imbalance back out, newest rows first.
    double imbalance = 0.0;
    for (double& b : beta) {
      b = std::clamp(b, -c, c);
      imbalance += b;
    }
    for (size_t i = n; i-- > 0 && imbalance != 0.0;) {
      double take = std::clamp(imbalance, beta[i] - c, beta[i] + c);
      beta[i] -= take;
      imbalance -= take;
    }
  }

  // Kernel rows: the full Gram matrix for a cold fit, an LRU row cache for
  // a warm one. Both give the same bits for K(i, j).
  std::optional<Matrix> gram;
  std::optional<KernelRowCache> cache;
  std::vector<double> diag(n);
  if (fit_stats_.warm_started) {
    cache.emplace(kernel, x, warm.kernel_cache_rows);
    for (size_t i = 0; i < n; ++i) {
      diag[i] = KernelFunction(kernel, x.Row(i), x.Row(i));
    }
  } else {
    gram = KernelMatrix(kernel, x);
    for (size_t i = 0; i < n; ++i) diag[i] = (*gram)(i, i);
  }
  auto row = [&](size_t i) { return gram ? gram->Row(i) : cache->Row(i); };

  // f = K beta - y, the gradient of the smooth part; only nonzero
  // coefficients touch a kernel row.
  std::vector<double> f(n);
  for (size_t i = 0; i < n; ++i) f[i] = -y[i];
  for (size_t k = 0; k < n; ++k) {
    if (beta[k] == 0.0) continue;
    std::span<const double> row_k = row(k);
    for (size_t i = 0; i < n; ++i) f[i] += beta[k] * row_k[i];
  }

  // up/down are the one-sided derivatives of the dual for raising/lowering
  // one coefficient; moving the pair (i up, j down) improves the dual iff
  // up(i) + down(j) < 0. The maximal violation -(m_up + m_down) is the KKT
  // gap that libsvm stops on.
  const double upper = c * (1.0 - 1e-9);
  const double lower = -upper;
  auto up_cost = [&](size_t i) {
    return f[i] + (beta[i] < -1e-12 ? -eps : eps);
  };
  auto down_cost = [&](size_t i) {
    return -f[i] + (beta[i] > 1e-12 ? -eps : eps);
  };

  // Second-order working-set selection (Fan, Chen & Lin, JMLR 2005): i is
  // the steepest "up" row, j the "down" row whose exact pair step gains
  // the most, b^2 / a with b = up(i) + down(j) and a the pair curvature.
  const size_t max_iterations = max_sweeps * n;
  size_t iterations = 0;
  double gap = 0.0;
  while (true) {
    size_t i = n;
    double m_up = std::numeric_limits<double>::infinity();
    double m_down = std::numeric_limits<double>::infinity();
    for (size_t t = 0; t < n; ++t) {
      if (beta[t] < upper) {
        const double up = up_cost(t);
        if (up < m_up) {
          m_up = up;
          i = t;
        }
      }
      if (beta[t] > lower) m_down = std::min(m_down, down_cost(t));
    }
    gap = std::max(0.0, -(m_up + m_down));
    if (gap <= options_.tol || iterations >= max_iterations) break;

    std::span<const double> row_i = row(i);
    size_t j = n;
    double best_gain = 0.0;
    for (size_t t = 0; t < n; ++t) {
      if (t == i || !(beta[t] > lower)) continue;
      const double b = m_up + down_cost(t);
      if (b >= 0.0) continue;
      const double a = std::max(diag[i] + diag[t] - 2.0 * row_i[t], 1e-12);
      const double gain = b * b / a;
      if (gain > best_gain) {
        best_gain = gain;
        j = t;
      }
    }
    if (j == n) break;

    std::span<const double> row_j = row(j);
    const double eta = std::max(diag[i] + diag[j] - 2.0 * row_i[j], 1e-12);
    const double bi = beta[i];
    const double bj = beta[j];
    const double lo = std::max(-c - bi, bj - c);
    const double hi = std::min(c - bi, bj + c);
    double delta = 0.0;
    double obj = 0.0;
    BestPairStep(eta, f[i] - f[j], eps, bi, bj, lo, hi, &delta, &obj);
    // A violating pair always has a descent step; none means rounding ate
    // it, and picking the same pair again would not change that.
    if (delta == 0.0) break;

    beta[i] += delta;
    beta[j] -= delta;
    for (size_t t = 0; t < n; ++t) f[t] += delta * (row_i[t] - row_j[t]);
    ++iterations;
  }
  fit_stats_.iterations = iterations;
  fit_stats_.sweeps = (iterations + n - 1) / n;
  fit_stats_.gap = gap;
  if (cache) fit_stats_.kernel_cache = cache->stats();

  FinishFit(x, y, beta, f, kernel);
  return Status::OK();
}

void Svr::FinishFit(const Matrix& x, std::span<const double> y,
                    const std::vector<double>& beta,
                    const std::vector<double>& f,
                    const KernelParams& kernel) {
  const size_t n = x.rows();
  const double c = options_.c;
  const double eps = options_.epsilon;

  // Bias from the KKT conditions of free support vectors:
  // 0 < beta_i < C  ->  b = -f_i - eps;  -C < beta_i < 0  ->  b = -f_i + eps.
  const double bound_slack = c * (1.0 - 1e-9);
  std::vector<double> bias_estimates;
  for (size_t i = 0; i < n; ++i) {
    if (beta[i] > 1e-12 && beta[i] < bound_slack) {
      bias_estimates.push_back(-f[i] - eps);
    } else if (beta[i] < -1e-12 && beta[i] > -bound_slack) {
      bias_estimates.push_back(-f[i] + eps);
    }
  }
  if (!bias_estimates.empty()) {
    bias_ = Mean(bias_estimates);
  } else {
    // No free SVs (all at bounds or beta == 0): fall back to the feasible
    // midpoint over all points, which reduces to mean(y) when beta == 0.
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += -f[i];
    bias_ = sum / static_cast<double>(n);
  }

  // Dual objective via f = K beta - y:
  //   W = 1/2 b^T f - 1/2 b^T y + eps * ||b||_1.
  dual_objective_ = 0.0;
  for (size_t i = 0; i < n; ++i) {
    dual_objective_ += 0.5 * beta[i] * f[i] - 0.5 * beta[i] * y[i] +
                       eps * std::abs(beta[i]);
  }

  // Keep only support vectors for prediction; the full-length vector
  // stays available as the next warm start's payload.
  std::vector<size_t> sv_rows;
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(beta[i]) > 1e-12) sv_rows.push_back(i);
  }
  support_ = x.SelectRows(sv_rows);
  beta_.clear();
  beta_.reserve(sv_rows.size());
  for (size_t i : sv_rows) beta_.push_back(beta[i]);
  full_beta_ = beta;

  // Remember the resolved kernel (gamma fixed at fit time).
  options_.kernel = kernel;
  fitted_ = true;
}

StatusOr<double> Svr::PredictOne(std::span<const double> features) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  if (features.size() != num_features_) {
    return Status::InvalidArgument("feature count differs from training");
  }
  double sum = bias_;
  for (size_t s = 0; s < beta_.size(); ++s) {
    sum += beta_[s] * KernelFunction(options_.kernel, support_.Row(s),
                                     features);
  }
  return sum;
}

}  // namespace vup
