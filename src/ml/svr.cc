#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "ml/lanes.h"
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

/// The steepest "up" row and the smallest "down" cost of one scan.
struct UpDownScan {
  double m_up;
  size_t i;  // Row of m_up; the row count when no row can move up.
  double m_down;
};

/// The SMO scans run kStripes independent lane vectors per block of
/// kBlock rows, so their loop-carried compare-and-select chains overlap.
constexpr size_t kStripes = 2;
constexpr size_t kBlock = kStripes * kLaneWidth;

/// One pass over the padded rows [0, padded): first the previous step's
/// gradient update f[t] += delta * (ri[t] - rj[t]) (skipped when `ri` is
/// null), then the scan of the updated f. up(t) = f[t] + (beta[t] < -1e-12
/// ? -eps : eps) for rows with beta[t] < upper; down(t) = -f[t] +
/// (beta[t] > 1e-12 ? -eps : eps) for rows with beta[t] > -upper, written
/// to `down` (+inf for rows that cannot move down) for the partner scan.
/// Padded rows hold beta = NaN, which fails both box tests.
///
/// Row t runs in lane t % kBlock. Each lane keeps its first strict minimum
/// of up; across lanes the smallest value wins and the lowest row breaks a
/// tie. That is the row the sequential `<` scan picks -- the first row
/// whose up compares equal to the minimum -- and it carries that row's
/// bits.
VUP_LANE_CLONES
UpDownScan UpdateAndScan(size_t n, size_t padded, double delta,
                         const double* ri, const double* rj,
                         const double* beta, double upper, double eps,
                         double* f, double* down) {
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t none = static_cast<int64_t>(n);
  Lanes best_up[kStripes], best_down[kStripes];
  LaneMask best_i[kStripes], row[kStripes];
  for (size_t h = 0; h < kStripes; ++h) {
    best_up[h] = Lanes{inf, inf, inf, inf};
    best_down[h] = best_up[h];
    best_i[h] = LaneMask{none, none, none, none};
    const int64_t r0 = static_cast<int64_t>(h * kLaneWidth);
    row[h] = LaneMask{r0, r0 + 1, r0 + 2, r0 + 3};
  }
  for (size_t t0 = 0; t0 < padded; t0 += kBlock) {
    for (size_t h = 0; h < kStripes; ++h) {
      const size_t t = t0 + h * kLaneWidth;
      Lanes ft = LanesAt(f + t);
      if (ri != nullptr) {
        ft += delta * (LanesAt(ri + t) - LanesAt(rj + t));
        LanesAt(f + t) = ft;
      }
      const Lanes bt = LanesAt(beta + t);
      const Lanes up = ft + (bt < -1e-12 ? -eps : eps);
      const LaneMask wins = (bt < upper) & (up < best_up[h]);
      best_up[h] = wins ? up : best_up[h];
      best_i[h] = wins ? row[h] : best_i[h];
      Lanes dn = -ft + (bt > 1e-12 ? -eps : eps);
      dn = bt > -upper ? dn : inf;
      LanesAt(down + t) = dn;
      best_down[h] = dn < best_down[h] ? dn : best_down[h];
      row[h] += kBlock;
    }
  }
  UpDownScan scan{inf, n, inf};
  for (size_t h = 0; h < kStripes; ++h) {
    for (size_t l = 0; l < kLaneWidth; ++l) {
      const size_t i = static_cast<size_t>(best_i[h][l]);
      const double up = best_up[h][l];
      if (up < scan.m_up || (up == scan.m_up && i < scan.i)) {
        scan.m_up = up;
        scan.i = i;
      }
      scan.m_down = std::min(scan.m_down, best_down[h][l]);
    }
  }
  return scan;
}

/// The partner row j maximizing gain = b^2 / a over rows with b = m_up +
/// down[t] < 0, where a = max(diag_i + diag[t] - 2 ri[t], 1e-12); the row
/// count when no row gains. Rows that cannot move down, the row i itself
/// and padded rows carry down = +inf, so b < 0 fails for them. Ties go to
/// the lowest row, as in the sequential `>` scan (see UpdateAndScan).
VUP_LANE_CLONES
size_t SelectPartner(size_t n, size_t padded, double m_up, double diag_i,
                     const double* diag, const double* ri,
                     const double* down) {
  const int64_t none = static_cast<int64_t>(n);
  Lanes best_gain[kStripes];
  LaneMask best_j[kStripes], row[kStripes];
  for (size_t h = 0; h < kStripes; ++h) {
    best_gain[h] = Lanes{};
    best_j[h] = LaneMask{none, none, none, none};
    const int64_t r0 = static_cast<int64_t>(h * kLaneWidth);
    row[h] = LaneMask{r0, r0 + 1, r0 + 2, r0 + 3};
  }
  for (size_t t0 = 0; t0 < padded; t0 += kBlock) {
    for (size_t h = 0; h < kStripes; ++h) {
      const size_t t = t0 + h * kLaneWidth;
      const Lanes b = m_up + LanesAt(down + t);
      Lanes a = diag_i + LanesAt(diag + t) - 2.0 * LanesAt(ri + t);
      a = a < 1e-12 ? 1e-12 : a;
      const Lanes gain = b * b / a;
      const LaneMask wins = (b < 0.0) & (gain > best_gain[h]);
      best_gain[h] = wins ? gain : best_gain[h];
      best_j[h] = wins ? row[h] : best_j[h];
      row[h] += kBlock;
    }
  }
  double gain = 0.0;
  size_t j = n;
  for (size_t h = 0; h < kStripes; ++h) {
    for (size_t l = 0; l < kLaneWidth; ++l) {
      const size_t t = static_cast<size_t>(best_j[h][l]);
      if (best_gain[h][l] > gain || (best_gain[h][l] == gain && t < j)) {
        gain = best_gain[h][l];
        j = t;
      }
    }
  }
  return j;
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
  // Written so that NaN fails each test: a NaN tol would never stop the
  // solver, and a NaN gamma would silently mean "auto".
  if (!(std::isfinite(options_.c) && options_.c > 0.0)) {
    return Status::InvalidArgument("C must be positive and finite");
  }
  if (!(std::isfinite(options_.epsilon) && options_.epsilon >= 0.0)) {
    return Status::InvalidArgument("epsilon must be non-negative and finite");
  }
  if (!std::isfinite(options_.kernel.gamma)) {
    return Status::InvalidArgument("gamma must be finite");
  }
  if (!(options_.tol >= 0.0)) {
    return Status::InvalidArgument("tol must be non-negative");
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
  // The solver's vectors are padded to whole blocks of lanes: beta = NaN
  // (no box test passes), f = diag = 0 and zero kernel-row tails.
  const size_t padded = (n + kBlock - 1) / kBlock * kBlock;
  std::vector<double> diag(padded, 0.0);
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
  std::vector<double> f(padded, 0.0);
  for (size_t i = 0; i < n; ++i) f[i] = -y[i];
  for (size_t k = 0; k < n; ++k) {
    if (beta[k] == 0.0) continue;
    std::span<const double> row_k = row(k);
    for (size_t i = 0; i < n; ++i) f[i] += beta[k] * row_k[i];
  }
  beta.resize(padded, std::numeric_limits<double>::quiet_NaN());

  // The pair's kernel rows K(i, .) and K(j, .), copied out of the Gram
  // matrix or the cache into one padded buffer, and the last scan's down
  // costs for the partner scan.
  std::vector<double> pair_rows(2 * padded, 0.0);
  double* const row_i = pair_rows.data();
  double* const row_j = pair_rows.data() + padded;
  std::vector<double> down(padded);

  // up/down are the one-sided derivatives of the dual for raising/lowering
  // one coefficient; moving the pair (i up, j down) improves the dual iff
  // up(i) + down(j) < 0. The maximal violation -(m_up + m_down) is the KKT
  // gap that libsvm stops on.
  const double upper = c * (1.0 - 1e-9);

  // Second-order working-set selection (Fan, Chen & Lin, JMLR 2005): i is
  // the steepest "up" row, j the "down" row whose exact pair step gains
  // the most, b^2 / a with b = up(i) + down(j) and a the pair curvature.
  // Each step's f update is fused with the next step's up/down scan.
  const size_t max_iterations = max_sweeps * n;
  size_t iterations = 0;
  double gap = 0.0;
  UpDownScan scan = UpdateAndScan(n, padded, 0.0, nullptr, nullptr,
                                  beta.data(), upper, eps, f.data(),
                                  down.data());
  while (true) {
    gap = std::max(0.0, -(scan.m_up + scan.m_down));
    if (gap <= options_.tol || iterations >= max_iterations) break;

    const size_t i = scan.i;
    std::ranges::copy(row(i), row_i);
    down[i] = std::numeric_limits<double>::infinity();  // j != i.
    const size_t j = SelectPartner(n, padded, scan.m_up, diag[i],
                                   diag.data(), row_i, down.data());
    if (j == n) break;

    std::ranges::copy(row(j), row_j);
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
    ++iterations;
    scan = UpdateAndScan(n, padded, delta, row_i, row_j, beta.data(), upper,
                         eps, f.data(), down.data());
  }
  fit_stats_.iterations = iterations;
  fit_stats_.sweeps = (iterations + n - 1) / n;
  fit_stats_.gap = gap;
  if (cache) fit_stats_.kernel_cache = cache->stats();

  FinishFit(x, y, std::span(beta).first(n), std::span(f).first(n), kernel);
  return Status::OK();
}

void Svr::FinishFit(const Matrix& x, std::span<const double> y,
                    std::span<const double> beta, std::span<const double> f,
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
  full_beta_.assign(beta.begin(), beta.end());

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
