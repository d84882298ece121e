#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "ml/lanes.h"
#include "stats/descriptive.h"

namespace vup {

namespace {

/// Objective change of moving the pair by delta:
///   dW = 1/2 * eta * delta^2 + (f_i - f_j) * delta
///        + eps * (|bi + delta| - |bi|) + eps * (|bj - delta| - |bj|).
VUP_LANE_INLINE double PairObjectiveDelta(double delta, double eta,
                                          double f_diff, double eps, double bi,
                                          double bj) {
  return 0.5 * eta * delta * delta + f_diff * delta +
         eps * (std::abs(bi + delta) - std::abs(bi)) +
         eps * (std::abs(bj - delta) - std::abs(bj));
}

/// Analytic minimizer of the pair subproblem over [lo, hi]. Candidates:
/// stationary points per sign region of (bi + delta, bj - delta), plus the
/// kinks and the box ends. Inlined into each path's SMO loop, like
/// everything that loop calls: a call from the x86-64-v4 loop out to
/// baseline (SSE) code made the SMO about 1.5x slower.
VUP_LANE_INLINE void BestPairStep(double eta, double f_diff, double eps,
                                  double bi, double bj, double lo, double hi,
                                  double* best_delta, double* best_obj) {
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

/// The SMO scans run over blocks of kBlock rows: kBlock / W vectors of W
/// lanes ("stripes"), whose loop-carried compare-and-select chains
/// overlap.
constexpr size_t kBlock = 8;

/// Sets every lane of the LaneVec value `v` to `x`.
template <typename V>
VUP_LANE_INLINE void FillLanes(V& v, double x) {
  double lanes[sizeof(V) / sizeof(double)];
  std::fill(std::begin(lanes), std::end(lanes), x);
  std::memcpy(&v, lanes, sizeof(V));
}

/// The smallest (kLess) or largest of the kBlock NaN-free lanes of `v`;
/// where lanes compare equal, any one of them.
template <bool kLess, size_t W, typename V = typename LaneVec<W>::T>
VUP_LANE_INLINE double LaneExtreme(const V (&v)[kBlock / W]) {
  V m = v[0];
  for (size_t h = 1; h < kBlock / W; ++h) {
    m = (kLess ? v[h] < m : v[h] > m) ? v[h] : m;
  }
  double out = m[0];
  for (size_t l = 1; l < W; ++l) {
    out = (kLess ? m[l] < out : m[l] > out) ? m[l] : out;
  }
  return out;
}

/// The lowest of the rows `rows` (row numbers as doubles, exact below
/// 2^53) whose lane of `v` equals `target`; `none` when there is none.
template <size_t W, typename V = typename LaneVec<W>::T>
VUP_LANE_INLINE double LowestRowAt(const V (&v)[kBlock / W],
                                   const V (&rows)[kBlock / W],
                                   double target, double none) {
  V r;
  FillLanes(r, none);
  for (size_t h = 0; h < kBlock / W; ++h) {
    const V at = v[h] == target ? rows[h] : none;
    r = at < r ? at : r;
  }
  double out = r[0];
  for (size_t l = 1; l < W; ++l) out = r[l] < out ? r[l] : out;
  return out;
}

/// row[h] = the rows h * W + l of block 0, as doubles.
template <size_t W, typename V = typename LaneVec<W>::T>
VUP_LANE_INLINE void FirstRows(V (&row)[kBlock / W]) {
  double rows[kBlock];
  for (size_t t = 0; t < kBlock; ++t) rows[t] = static_cast<double>(t);
  for (size_t h = 0; h < kBlock / W; ++h) row[h] = LaneVec<W>::At(rows + h * W);
}

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
/// whose up compares equal to the minimum -- and m_up is recomputed from
/// that row, so it carries that row's bits. The cross-lane reductions are
/// branch-free: a minimum, then the lowest row among the lanes equal to
/// it.
template <size_t W>
VUP_LANE_INLINE UpDownScan UpdateAndScan(size_t n, size_t padded,
                                         double delta, const double* ri,
                                         const double* rj,
                                         const double* beta, double upper,
                                         double eps, double* f,
                                         double* down) {
  typedef LaneVec<W> L;
  typedef typename L::T V;
  constexpr size_t kStripes = kBlock / W;
  const double inf = std::numeric_limits<double>::infinity();
  const double none = static_cast<double>(n);
  V best_up[kStripes], best_down[kStripes], best_i[kStripes], row[kStripes];
  FirstRows<W>(row);
  for (size_t h = 0; h < kStripes; ++h) {
    FillLanes(best_up[h], inf);
    FillLanes(best_down[h], inf);
    FillLanes(best_i[h], none);
  }
  for (size_t t0 = 0; t0 < padded; t0 += kBlock) {
    for (size_t h = 0; h < kStripes; ++h) {
      const size_t t = t0 + h * W;
      V ft = L::At(f + t);
      if (ri != nullptr) {
        ft += delta * (L::At(ri + t) - L::At(rj + t));
        L::At(f + t) = ft;
      }
      const V bt = L::At(beta + t);
      const V up = ft + (bt < -1e-12 ? -eps : eps);
      // A row that cannot move up competes with +inf, which never wins:
      // one mask drives both selects.
      const V cand = bt < upper ? up : inf;
      const typename L::Mask wins = cand < best_up[h];
      best_up[h] = wins ? cand : best_up[h];
      best_i[h] = wins ? row[h] : best_i[h];
      V dn = -ft + (bt > 1e-12 ? -eps : eps);
      dn = bt > -upper ? dn : inf;
      L::At(down + t) = dn;
      best_down[h] = dn < best_down[h] ? dn : best_down[h];
      row[h] += static_cast<double>(kBlock);
    }
  }
  UpDownScan scan{inf, n, LaneExtreme<true, W>(best_down)};
  scan.i = static_cast<size_t>(
      LowestRowAt<W>(best_up, best_i, LaneExtreme<true, W>(best_up), none));
  if (scan.i < n) {
    scan.m_up = f[scan.i] + (beta[scan.i] < -1e-12 ? -eps : eps);
  }
  return scan;
}

/// The partner row j maximizing gain = b^2 / a over rows with b = m_up +
/// down[t] < 0, where a = max(diag_i + diag[t] - 2 ri[t], 1e-12); the row
/// count when no row gains. Rows that cannot move down, the row i itself
/// and padded rows carry down = +inf, so b < 0 fails for them. Ties go to
/// the lowest row, as in the sequential `>` scan (see UpdateAndScan).
template <size_t W>
VUP_LANE_INLINE size_t SelectPartner(size_t n, size_t padded, double m_up,
                                     double diag_i, const double* diag,
                                     const double* ri, const double* down) {
  typedef LaneVec<W> L;
  typedef typename L::T V;
  constexpr size_t kStripes = kBlock / W;
  const double none = static_cast<double>(n);
  V best_gain[kStripes], best_j[kStripes], row[kStripes];
  FirstRows<W>(row);
  for (size_t h = 0; h < kStripes; ++h) {
    FillLanes(best_gain[h], 0.0);
    FillLanes(best_j[h], none);
  }
  for (size_t t0 = 0; t0 < padded; t0 += kBlock) {
    for (size_t h = 0; h < kStripes; ++h) {
      const size_t t = t0 + h * W;
      const V b = m_up + L::At(down + t);
      V a = diag_i + L::At(diag + t) - 2.0 * L::At(ri + t);
      a = a < 1e-12 ? 1e-12 : a;
      const V gain = b * b / a;
      // A row with b >= 0 competes with gain 0, which never wins.
      const V cand = b < 0.0 ? gain : 0.0;
      const typename L::Mask wins = cand > best_gain[h];
      best_gain[h] = wins ? cand : best_gain[h];
      best_j[h] = wins ? row[h] : best_j[h];
      row[h] += static_cast<double>(kBlock);
    }
  }
  // No winner leaves every lane at gain 0 with row `none`.
  return static_cast<size_t>(LowestRowAt<W>(
      best_gain, best_j, LaneExtreme<false, W>(best_gain), none));
}

/// One fit's solver state, padded to whole blocks (see Svr::Fit).
struct SmoProblem {
  size_t n;
  size_t padded;
  const Matrix* gram;  // Rows padded with zeros to `padded` columns.
  const double* diag;
  double* beta;
  double* f;
  double* down;
  double c;
  double eps;
  double upper;  // Box test bound: beta < upper can move up.
  double tol;
  size_t max_iterations;
};

/// The SMO loop from beta = 0, its scans W lanes per vector. up/down are
/// the one-sided derivatives of the dual for raising/lowering one
/// coefficient; moving the pair (i up, j down) improves the dual iff
/// up(i) + down(j) < 0. The maximal violation -(m_up + m_down) is the KKT
/// gap that libsvm stops on.
///
/// Second-order working-set selection (Fan, Chen & Lin, JMLR 2005): i is
/// the steepest "up" row, j the "down" row whose exact pair step gains
/// the most, b^2 / a with b = up(i) + down(j) and a the pair curvature.
/// Each step's f update is fused with the next step's up/down scan.
template <size_t W>
VUP_LANE_INLINE Svr::FitStats SolveSmo(const SmoProblem& p) {
  const size_t n = p.n;
  double* const beta = p.beta;
  double* const f = p.f;
  Svr::FitStats stats;
  UpDownScan scan = UpdateAndScan<W>(n, p.padded, 0.0, nullptr, nullptr,
                                     beta, p.upper, p.eps, f, p.down);
  while (true) {
    stats.gap = std::max(0.0, -(scan.m_up + scan.m_down));
    if (stats.gap <= p.tol || stats.iterations >= p.max_iterations) break;

    const size_t i = scan.i;
    const double* const row_i = p.gram->Row(i).data();
    p.down[i] = std::numeric_limits<double>::infinity();  // j != i.
    const size_t j = SelectPartner<W>(n, p.padded, scan.m_up, p.diag[i],
                                      p.diag, row_i, p.down);
    if (j == n) break;

    const double* const row_j = p.gram->Row(j).data();
    const double eta =
        std::max(p.diag[i] + p.diag[j] - 2.0 * row_i[j], 1e-12);
    const double bi = beta[i];
    const double bj = beta[j];
    const double lo = std::max(-p.c - bi, bj - p.c);
    const double hi = std::min(p.c - bi, bj + p.c);
    double delta = 0.0;
    double obj = 0.0;
    BestPairStep(eta, f[i] - f[j], p.eps, bi, bj, lo, hi, &delta, &obj);
    // A violating pair always has a descent step; none means rounding ate
    // it, and picking the same pair again would not change that.
    if (delta == 0.0) break;

    beta[i] += delta;
    beta[j] -= delta;
    ++stats.iterations;
    scan = UpdateAndScan<W>(n, p.padded, delta, row_i, row_j, beta, p.upper,
                            p.eps, f, p.down);
  }
  return stats;
}

// Lanes per vector on each path: four 2-lane stripes on the baseline
// (SSE2) path, two 4-lane stripes on AVX2, one 8-lane stripe on
// x86-64-v4, where mask registers keep the whole scan in registers.
Svr::FitStats SolveSmoBaseline(const SmoProblem& p) { return SolveSmo<2>(p); }

#if VUP_LANES_X86
VUP_TARGET_AVX2
Svr::FitStats SolveSmoAvx2(const SmoProblem& p) { return SolveSmo<4>(p); }

VUP_TARGET_AVX512
Svr::FitStats SolveSmoAvx512(const SmoProblem& p) { return SolveSmo<8>(p); }
#endif

}  // namespace

Status Svr::Fit(const Matrix& x, std::span<const double> y) {
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

  KernelParams kernel = options_.kernel;
  if (kernel.gamma <= 0.0) {
    kernel.gamma = kernel.EffectiveGamma(num_features_);
  }

  // The solver's vectors are padded to whole blocks of lanes: beta = NaN
  // (no box test passes), f = diag = 0, and every Gram row ends in zeros,
  // so the scans read K(i, .) and K(j, .) in place.
  const size_t padded = (n + kBlock - 1) / kBlock * kBlock;
  const Matrix gram = KernelMatrix(kernel, x, padded);
  std::vector<double> diag(padded, 0.0);
  for (size_t i = 0; i < n; ++i) diag[i] = gram(i, i);

  // f = K beta - y, the gradient of the smooth part, at beta = 0; `down`
  // holds the last scan's down costs for the partner scan.
  std::vector<double> beta(n, 0.0);
  beta.resize(padded, std::numeric_limits<double>::quiet_NaN());
  std::vector<double> f(padded, 0.0);
  for (size_t i = 0; i < n; ++i) f[i] = -y[i];
  std::vector<double> down(padded);

  const SmoProblem problem{.n = n,
                           .padded = padded,
                           .gram = &gram,
                           .diag = diag.data(),
                           .beta = beta.data(),
                           .f = f.data(),
                           .down = down.data(),
                           .c = options_.c,
                           .eps = options_.epsilon,
                           .upper = options_.c * (1.0 - 1e-9),
                           .tol = options_.tol,
                           .max_iterations = options_.max_sweeps * n};
  switch (ActiveLaneIsa()) {
#if VUP_LANES_X86
    case LaneIsa::kAvx512:
      fit_stats_ = SolveSmoAvx512(problem);
      break;
    case LaneIsa::kAvx2:
      fit_stats_ = SolveSmoAvx2(problem);
      break;
#endif
    default:
      fit_stats_ = SolveSmoBaseline(problem);
      break;
  }

  FinishFit(x, std::span(beta).first(n), std::span(f).first(n), kernel);
  return Status::OK();
}

void Svr::FinishFit(const Matrix& x, std::span<const double> beta,
                    std::span<const double> f, const KernelParams& kernel) {
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

  // Keep only support vectors for prediction.
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
  return KernelExpansion(options_.kernel, support_.data(), beta_, bias_,
                         features);
}

}  // namespace vup
