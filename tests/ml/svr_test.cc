#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/experiment.h"
#include "core/forecaster.h"
#include "core/windowing.h"
#include "ml/lanes.h"
#include "ml/metrics.h"
#include "stats/descriptive.h"
#include "telemetry/fleet.h"

namespace vup {
namespace {

TEST(KernelTest, RbfProperties) {
  KernelParams params;
  params.type = KernelType::kRbf;
  params.gamma = 0.5;
  std::vector<double> a = {1, 2};
  std::vector<double> b = {1, 2};
  EXPECT_DOUBLE_EQ(KernelFunction(params, a, b), 1.0);  // Self-similarity.
  std::vector<double> c = {3, 4};
  double k_ac = KernelFunction(params, a, c);
  EXPECT_GT(k_ac, 0.0);
  EXPECT_LT(k_ac, 1.0);
  EXPECT_DOUBLE_EQ(k_ac, KernelFunction(params, c, a));  // Symmetry.
  EXPECT_NEAR(k_ac, std::exp(-0.5 * 8.0), 1e-12);
}

TEST(KernelTest, LinearAndPolynomial) {
  KernelParams lin;
  lin.type = KernelType::kLinear;
  std::vector<double> a = {1, 2};
  std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(KernelFunction(lin, a, b), 11.0);

  KernelParams poly;
  poly.type = KernelType::kPolynomial;
  poly.gamma = 1.0;
  poly.coef0 = 1.0;
  poly.degree = 2;
  EXPECT_DOUBLE_EQ(KernelFunction(poly, a, b), 144.0);
}

TEST(KernelTest, AutoGammaIsInverseDimension) {
  KernelParams params;
  params.gamma = -1.0;
  EXPECT_DOUBLE_EQ(params.EffectiveGamma(20), 0.05);
  params.gamma = 2.0;
  EXPECT_DOUBLE_EQ(params.EffectiveGamma(20), 2.0);
}

TEST(KernelTest, MatrixIsSymmetricWithUnitDiagonal) {
  Rng rng(3);
  Matrix x(10, 3);
  for (size_t r = 0; r < 10; ++r) {
    for (size_t c = 0; c < 3; ++c) x(r, c) = rng.Normal();
  }
  KernelParams params;  // RBF default.
  Matrix k = KernelMatrix(params, x);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(k(i, i), 1.0);
    for (size_t j = 0; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
      EXPECT_GE(k(i, j), 0.0);
      EXPECT_LE(k(i, j), 1.0);
    }
  }
}

TEST(LanesTest, ScopedPathNestsAndRestores) {
  const std::vector<LaneIsa> isas = SupportedLaneIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), LaneIsa::kBaseline);
  EXPECT_EQ(ActiveLaneIsa(), isas.back());  // The widest supported path.
  {
    ScopedLaneIsa outer(LaneIsa::kBaseline);
    EXPECT_EQ(ActiveLaneIsa(), LaneIsa::kBaseline);
    {
      ScopedLaneIsa inner(isas.back());
      EXPECT_EQ(ActiveLaneIsa(), isas.back());
    }
    EXPECT_EQ(ActiveLaneIsa(), LaneIsa::kBaseline);
  }
  EXPECT_EQ(ActiveLaneIsa(), isas.back());
}

TEST(KernelTest, MatrixIsBitwiseKernelFunction) {
  // KernelMatrix computes RBF entries lane-parallel over 8-row panels of
  // x, in register blocks of rows against whole panels; every entry must
  // still carry KernelFunction's exact bits, on every lane path this CPU
  // runs. The sizes cover a lone row, each panel remainder, the edges of
  // one, two and three panels and of the two-panel block (n = 7..9,
  // 15..17, 23..25, 33) and the walk-forward design (n = 140, d = 89).
  KernelParams rbf_auto;
  KernelParams rbf;
  rbf.gamma = 0.37;
  KernelParams linear;
  linear.type = KernelType::kLinear;
  KernelParams poly;
  poly.type = KernelType::kPolynomial;
  poly.gamma = 0.5;
  poly.coef0 = 1.0;
  poly.degree = 3;
  for (LaneIsa isa : SupportedLaneIsas()) {
    ScopedLaneIsa scoped(isa);
    SCOPED_TRACE(std::string(LaneIsaName(isa)));
    Rng rng(17);
    for (size_t n :
         {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 33, 140}) {
      for (size_t d : {1, 3, 89}) {
        Matrix x(n, d);
        for (size_t r = 0; r < n; ++r) {
          for (size_t c = 0; c < d; ++c) x(r, c) = rng.Normal();
        }
        for (const KernelParams& params : {rbf_auto, rbf, linear, poly}) {
          Matrix k = KernelMatrix(params, x);
          size_t mismatches = 0;
          for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < n; ++j) {
              const double expected =
                  KernelFunction(params, x.Row(i), x.Row(j));
              const double actual = k(i, j);
              if (std::memcmp(&expected, &actual, sizeof(double)) != 0) {
                ++mismatches;
              }
            }
          }
          EXPECT_EQ(mismatches, 0u)
              << KernelTypeToString(params.type) << " gamma=" << params.gamma
              << " n=" << n << " d=" << d;
        }
      }
    }
  }
}

/// Arguments for the exp checks: `dense` uniform draws from each of the
/// RBF kernel's range [-50, 0], the subnormal band [-745.2, -708.3] and the
/// whole finite range, then the edges: +-0, both infinities, NaNs, the
/// overflow and underflow thresholds and far beyond them. The count is
/// not a multiple of any lane width.
std::vector<double> ExpArguments(size_t dense) {
  std::vector<double> args;
  Rng rng(23);
  for (size_t i = 0; i < dense; ++i) {
    args.push_back(rng.Uniform(-50.0, 0.0));
    args.push_back(rng.Uniform(-745.2, -708.3));
    args.push_back(rng.Uniform(-746.0, 710.0));
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double edge :
       {0.0, -0.0, inf, -inf, nan, -nan, 709.782712893384,
        709.7827128933841, 710.0, 1e3, 1e300, -745.1332191019411,
        -745.1332191019412, -745.2, -746.0, -1e300, 0x1p-1074, -0x1p-1074,
        -708.3964185322641, 0.34657359027997264, -0.34657359027997264}) {
    args.push_back(edge);
  }
  args.push_back(1.0);
  return args;
}

TEST(ExpTest, LanesMatchScalarOnEveryPath) {
  const std::vector<double> args = ExpArguments(20000);
  std::vector<double> expected(args.size());
  for (size_t i = 0; i < args.size(); ++i) expected[i] = Exp(args[i]);
  for (LaneIsa isa : SupportedLaneIsas()) {
    ScopedLaneIsa scoped(isa);
    SCOPED_TRACE(std::string(LaneIsaName(isa)));
    // Every prefix length up to 17 reaches each partial last vector.
    for (size_t len : {args.size(), size_t{1}, size_t{2}, size_t{3},
                       size_t{5}, size_t{7}, size_t{9}, size_t{17}}) {
      std::vector<double> actual(args.begin(), args.begin() + len);
      ExpLanes(actual, actual);  // In place.
      EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                            len * sizeof(double)),
                0)
          << "len=" << len;
    }
  }
}

TEST(ExpTest, EdgesAreExact) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Exp(0.0), 1.0);
  EXPECT_EQ(Exp(-0.0), 1.0);
  EXPECT_EQ(Exp(-inf), 0.0);
  EXPECT_FALSE(std::signbit(Exp(-inf)));
  EXPECT_EQ(Exp(-746.0), 0.0);
  EXPECT_EQ(Exp(-1e300), 0.0);
  EXPECT_EQ(Exp(inf), inf);
  EXPECT_EQ(Exp(709.7827128933841), inf);
  EXPECT_EQ(Exp(1e300), inf);
  EXPECT_TRUE(std::isfinite(Exp(709.782712893384)));  // Just below.
  EXPECT_EQ(Exp(-745.1332191019411), 0x1p-1074);  // The least subnormal.
  EXPECT_TRUE(std::isnan(Exp(std::numeric_limits<double>::quiet_NaN())));
}

TEST(ExpTest, WithinOneUlpOfExpl) {
  // The error against the long double expl, in units of the spacing of
  // doubles at the exact result (2^-1074 below 2^-1022).
  const std::vector<double> args = ExpArguments(350000);
  double worst = 0.0;
  double worst_arg = 0.0;
  size_t checked = 0;
  for (double x : args) {
    if (std::isnan(x)) continue;
    const long double exact = std::exp(static_cast<long double>(x));
    const double y = Exp(x);
    if (exact > std::numeric_limits<double>::max()) {
      EXPECT_EQ(y, std::numeric_limits<double>::infinity()) << x;
      continue;
    }
    int e = 0;
    std::frexp(exact, &e);  // exact = m * 2^e, m in [0.5, 1).
    const long double ulp = std::ldexp(1.0L, std::max(e - 53, -1074));
    const double err =
        static_cast<double>(std::fabs(static_cast<long double>(y) - exact) /
                            ulp);
    if (err > worst) {
      worst = err;
      worst_arg = x;
    }
    ++checked;
  }
  EXPECT_GE(checked, 1000000u);
  EXPECT_LE(worst, 1.0) << "at x = " << worst_arg;
}

TEST(KernelTest, ExpansionIsIndexOrderedKernelFunctionSum) {
  // KernelExpansion runs the lane exp over chunks of support vectors; its
  // value must still be the scalar sum, term by term in index order, on
  // every path. 600 support vectors cross any chunk of the stack buffer.
  KernelParams rbf_auto;
  KernelParams rbf;
  rbf.gamma = 0.37;
  KernelParams poly;
  poly.type = KernelType::kPolynomial;
  poly.gamma = 0.5;
  poly.coef0 = 1.0;
  for (LaneIsa isa : SupportedLaneIsas()) {
    ScopedLaneIsa scoped(isa);
    SCOPED_TRACE(std::string(LaneIsaName(isa)));
    Rng rng(29);
    for (size_t m : {1, 7, 8, 9, 127, 600}) {
      for (size_t d : {1, 3, 89}) {
        std::vector<double> support(m * d);
        std::vector<double> beta(m);
        std::vector<double> x(d);
        for (double& v : support) v = rng.Normal();
        for (double& v : beta) v = rng.Normal();
        for (double& v : x) v = rng.Normal();
        for (const KernelParams& params : {rbf_auto, rbf, poly}) {
          double expected = 0.25;
          for (size_t s = 0; s < m; ++s) {
            expected += beta[s] * KernelFunction(
                                      params,
                                      std::span<const double>(support).subspan(
                                          s * d, d),
                                      x);
          }
          const double actual =
              KernelExpansion(params, support, beta, 0.25, x);
          EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
              << KernelTypeToString(params.type) << " gamma=" << params.gamma
              << " m=" << m << " d=" << d;
        }
      }
    }
  }
}

/// The KKT gap of `svr`'s last fit recomputed from scratch: f = K beta - y
/// from the returned dual vector, not the solver's running f.
double RecomputedGap(const Svr& svr, const Matrix& x,
                     std::span<const double> y) {
  const std::vector<double>& beta = svr.last_full_beta();
  const double c = svr.options().c;
  const double eps = svr.options().epsilon;
  const double upper = c * (1.0 - 1e-9);
  const Matrix k = KernelMatrix(svr.options().kernel, x);
  double m_up = std::numeric_limits<double>::infinity();
  double m_down = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < x.rows(); ++i) {
    double f = -y[i];
    for (size_t j = 0; j < x.rows(); ++j) f += beta[j] * k(i, j);
    if (beta[i] < upper) {
      m_up = std::min(m_up, f + (beta[i] < -1e-12 ? -eps : eps));
    }
    if (beta[i] > -upper) {
      m_down = std::min(m_down, -f + (beta[i] > 1e-12 ? -eps : eps));
    }
  }
  return -(m_up + m_down);
}

TEST(SvrTest, FitConvergesOnBenchFleetWindow) {
  // Vehicle 25 of the seeded 40-vehicle bench fleet, targets 941..1080
  // (n = 140, the paper's TW): a window on which an SMO that stops on a
  // sweep-improvement budget runs all 300 sweeps without converging.
  Fleet fleet = Fleet::Generate(FleetConfig::Small(40, 42));
  ExperimentRunner runner(&fleet);
  ExperimentOptions options;
  options.max_vehicles = 40;
  (void)runner.SelectVehicles(options);
  StatusOr<const VehicleDataset*> ds_or = runner.Dataset(25);
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  const VehicleDataset& ds = *ds_or.value();

  // One fit is the walk-forward's own, through the forecaster.
  ForecasterConfig config;
  ASSERT_EQ(config.algorithm, Algorithm::kSvr);
  VehicleForecaster forecaster(config);
  ASSERT_TRUE(forecaster.Train(ds, 941, 1081).ok());
  const Svr& trained = static_cast<const Svr&>(*forecaster.regressor());

  // The same window's design, rebuilt the way Train builds it.
  StatusOr<WindowedDataset> windowed =
      BuildWindowedDataset(ds, config.windowing, 941, 1080);
  ASSERT_TRUE(windowed.ok());
  StatusOr<Matrix> x = forecaster.scaler().Transform(
      windowed.value().x.SelectColumns(forecaster.selected_columns()));
  ASSERT_TRUE(x.ok());
  const std::vector<double>& y = windowed.value().y;
  const size_t n = x.value().rows();
  ASSERT_EQ(n, 140u);

  Svr direct(config.svr);
  ASSERT_TRUE(direct.Fit(x.value(), y).ok());
  const double tol = config.svr.tol;
  for (const Svr* svr : std::vector<const Svr*>{&trained, &direct}) {
    EXPECT_LT(svr->last_fit_stats().iterations, config.svr.max_sweeps * n);
    EXPECT_LE(svr->last_fit_stats().gap, tol);
    EXPECT_LE(RecomputedGap(*svr, x.value(), y), tol);
  }
}

/// The scalar SMO solver that Svr::Fit's lane-parallel scans replaced,
/// kept as the reference they must match bit for bit: the same start at
/// beta = 0, the same second-order working-set loop with sequential `<` /
/// `>` argmin and argmax scans, and the same bias rule. Kernel rows are
/// KernelFunction evaluations.
struct ScalarFit {
  std::vector<double> beta;
  double bias = 0.0;
  size_t iterations = 0;
  double gap = 0.0;
};

double ScalarPairObjectiveDelta(double delta, double eta, double f_diff,
                                double eps, double bi, double bj) {
  return 0.5 * eta * delta * delta + f_diff * delta +
         eps * (std::abs(bi + delta) - std::abs(bi)) +
         eps * (std::abs(bj - delta) - std::abs(bj));
}

void ScalarBestPairStep(double eta, double f_diff, double eps, double bi,
                        double bj, double lo, double hi, double* best_delta,
                        double* best_obj) {
  double candidates[8];
  int num_candidates = 0;
  for (double sa : {-1.0, 1.0}) {
    for (double sb : {-1.0, 1.0}) {
      candidates[num_candidates++] = -(f_diff + eps * (sa - sb)) / eta;
    }
  }
  candidates[num_candidates++] = -bi;
  candidates[num_candidates++] = bj;
  candidates[num_candidates++] = lo;
  candidates[num_candidates++] = hi;
  *best_delta = 0.0;
  *best_obj = 0.0;
  for (int ci = 0; ci < num_candidates; ++ci) {
    double delta = std::clamp(candidates[ci], lo, hi);
    double obj = ScalarPairObjectiveDelta(delta, eta, f_diff, eps, bi, bj);
    if (obj < *best_obj) {
      *best_obj = obj;
      *best_delta = delta;
    }
  }
}

ScalarFit ScalarReferenceFit(const Svr::Options& options, const Matrix& x,
                             std::span<const double> y) {
  const size_t n = x.rows();
  const double c = options.c;
  const double eps = options.epsilon;
  KernelParams kernel = options.kernel;
  if (kernel.gamma <= 0.0) kernel.gamma = kernel.EffectiveGamma(x.cols());
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      k(i, j) = KernelFunction(kernel, x.Row(i), x.Row(j));
    }
  }

  std::vector<double> beta(n, 0.0);
  std::vector<double> f(n);
  for (size_t i = 0; i < n; ++i) f[i] = -y[i];

  const double upper = c * (1.0 - 1e-9);
  const double lower = -upper;
  auto up_cost = [&](size_t i) {
    return f[i] + (beta[i] < -1e-12 ? -eps : eps);
  };
  auto down_cost = [&](size_t i) {
    return -f[i] + (beta[i] > 1e-12 ? -eps : eps);
  };
  const size_t max_iterations = options.max_sweeps * n;
  ScalarFit fit;
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
    fit.gap = std::max(0.0, -(m_up + m_down));
    if (fit.gap <= options.tol || fit.iterations >= max_iterations) break;

    size_t j = n;
    double best_gain = 0.0;
    for (size_t t = 0; t < n; ++t) {
      if (t == i || !(beta[t] > lower)) continue;
      const double b = m_up + down_cost(t);
      if (b >= 0.0) continue;
      const double a = std::max(k(i, i) + k(t, t) - 2.0 * k(i, t), 1e-12);
      const double gain = b * b / a;
      if (gain > best_gain) {
        best_gain = gain;
        j = t;
      }
    }
    if (j == n) break;

    const double eta = std::max(k(i, i) + k(j, j) - 2.0 * k(i, j), 1e-12);
    const double bi = beta[i];
    const double bj = beta[j];
    const double lo = std::max(-c - bi, bj - c);
    const double hi = std::min(c - bi, bj + c);
    double delta = 0.0;
    double obj = 0.0;
    ScalarBestPairStep(eta, f[i] - f[j], eps, bi, bj, lo, hi, &delta, &obj);
    if (delta == 0.0) break;
    beta[i] += delta;
    beta[j] -= delta;
    for (size_t t = 0; t < n; ++t) f[t] += delta * (k(i, t) - k(j, t));
    ++fit.iterations;
  }

  std::vector<double> bias_estimates;
  for (size_t i = 0; i < n; ++i) {
    if (beta[i] > 1e-12 && beta[i] < upper) {
      bias_estimates.push_back(-f[i] - eps);
    } else if (beta[i] < -1e-12 && beta[i] > -upper) {
      bias_estimates.push_back(-f[i] + eps);
    }
  }
  if (!bias_estimates.empty()) {
    fit.bias = Mean(bias_estimates);
  } else {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += -f[i];
    fit.bias = sum / static_cast<double>(n);
  }
  fit.beta = std::move(beta);
  return fit;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Fits `x, y` and checks the fit against the scalar reference bit for
/// bit.
void ExpectMatchesScalarReference(const Svr::Options& options,
                                  const Matrix& x,
                                  const std::vector<double>& y,
                                  const std::string& label,
                                  bool expect_steps = true) {
  const size_t n = x.rows();
  Svr svr(options);
  ASSERT_TRUE(svr.Fit(x, y).ok()) << label;
  const ScalarFit ref = ScalarReferenceFit(options, x, y);
  if (expect_steps) {
    EXPECT_GT(ref.iterations, 0u) << label;
  } else {
    EXPECT_EQ(ref.iterations, 0u) << label;
  }
  EXPECT_EQ(svr.last_fit_stats().iterations, ref.iterations) << label;
  EXPECT_TRUE(SameBits(svr.last_fit_stats().gap, ref.gap))
      << label << " gap " << svr.last_fit_stats().gap << " vs " << ref.gap;
  EXPECT_TRUE(SameBits(svr.bias(), ref.bias))
      << label << " bias " << svr.bias() << " vs " << ref.bias;
  const std::vector<double>& beta = svr.last_full_beta();
  ASSERT_EQ(beta.size(), n) << label;
  EXPECT_EQ(std::memcmp(beta.data(), ref.beta.data(), n * sizeof(double)), 0)
      << label;
}

TEST(SvrTest, SolverIsBitwiseScalarReference) {
  // Every lane path this CPU runs.
  for (LaneIsa isa : SupportedLaneIsas()) {
    ScopedLaneIsa scoped(isa);
    SCOPED_TRACE(std::string(LaneIsaName(isa)));
    // Sizes around the solver's lane blocks and the walk-forward TW.
    Rng rng(29);
    for (size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 140}) {
      const size_t d = n == 140 ? 89 : 3;
      Matrix x(n, d);
      std::vector<double> y(n);
      for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < d; ++c) x(r, c) = rng.Normal();
        y[r] = 3.0 * rng.Normal();
      }
      Svr::Options options;
      ExpectMatchesScalarReference(options, x, y, "n=" + std::to_string(n),
                                   /*expect_steps=*/n > 1);
      // A small C pins coefficients at the box bounds.
      options.c = 0.3;
      ExpectMatchesScalarReference(options, x, y,
                                   "C=0.3 n=" + std::to_string(n),
                                   /*expect_steps=*/n > 1);
    }

    // Rows that repeat with a period, targets too: equal up costs and equal
    // pair gains, so both scans must break ties towards the lowest row --
    // between rows in one lane and rows in different lanes alike.
    for (size_t period : {4, 11}) {
      const size_t n = period == 4 ? 24 : 22;
      Matrix x(n, 2);
      std::vector<double> y(n);
      for (size_t r = 0; r < n; ++r) {
        const size_t base = r % period;
        x(r, 0) = static_cast<double>(base % 4);
        x(r, 1) = static_cast<double>(base % 3);
        y[r] = static_cast<double>(base % 5) - 2.0;
      }
      const std::string label = "period " + std::to_string(period);
      Svr::Options options;
      options.kernel.gamma = 0.5;
      ExpectMatchesScalarReference(options, x, y, label);
      options.c = 0.25;
      ExpectMatchesScalarReference(options, x, y, label + " C=0.25");
    }

    // Every target inside the epsilon tube of the others: the gap is zero at
    // beta = 0, so the fit takes no step.
    {
      Matrix x(9, 2);
      std::vector<double> y(9);
      for (size_t r = 0; r < 9; ++r) {
        x(r, 0) = rng.Normal();
        x(r, 1) = rng.Normal();
        y[r] = 4.0 + 0.01 * rng.Normal();
      }
      Svr::Options options;
      options.epsilon = 0.2;
      ExpectMatchesScalarReference(options, x, y, "inside tube",
                                   /*expect_steps=*/false);
    }
  }
}

TEST(SvrTest, FitsConstantFunction) {
  Matrix x = Matrix::FromRows({{0}, {1}, {2}, {3}});
  std::vector<double> y = {5, 5, 5, 5};
  Svr svr;
  ASSERT_TRUE(svr.Fit(x, y).ok());
  EXPECT_NEAR(svr.PredictOne(std::vector<double>{1.5}).value(), 5.0, 0.2);
}

TEST(SvrTest, FitsLinearFunctionWithinEpsilon) {
  Matrix x(40, 1);
  std::vector<double> y(40);
  for (size_t i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<double>(i) / 10.0 - 2.0;
    y[i] = 2.0 * x(i, 0) + 1.0;
  }
  Svr::Options opts;
  opts.kernel.type = KernelType::kLinear;
  opts.c = 10.0;
  opts.epsilon = 0.1;
  Svr svr(opts);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  for (double probe : {-1.5, 0.0, 1.5}) {
    EXPECT_NEAR(svr.PredictOne(std::vector<double>{probe}).value(),
                2.0 * probe + 1.0, 0.25);
  }
}

TEST(SvrTest, FitsNonlinearFunctionWithRbf) {
  Matrix x(60, 1);
  std::vector<double> y(60);
  for (size_t i = 0; i < 60; ++i) {
    x(i, 0) = static_cast<double>(i) / 10.0 - 3.0;
    y[i] = std::sin(x(i, 0));
  }
  Svr::Options opts;
  opts.kernel.gamma = 1.0;
  opts.c = 10.0;
  opts.epsilon = 0.05;
  Svr svr(opts);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  std::vector<double> pred;
  std::vector<double> actual;
  for (double probe = -2.5; probe <= 2.5; probe += 0.25) {
    pred.push_back(svr.PredictOne(std::vector<double>{probe}).value());
    actual.push_back(std::sin(probe));
  }
  EXPECT_LT(MeanAbsoluteError(pred, actual), 0.12);
  EXPECT_GT(svr.num_support_vectors(), 0u);
}

TEST(SvrTest, EpsilonInsensitiveTubeIgnoresSmallNoise) {
  // All targets within the epsilon tube around a constant -> few/no SVs
  // needed and flat prediction.
  Matrix x = Matrix::FromRows({{0}, {1}, {2}, {3}, {4}});
  std::vector<double> y = {1.0, 1.05, 0.95, 1.02, 0.98};
  Svr::Options opts;
  opts.epsilon = 0.2;
  Svr svr(opts);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  EXPECT_NEAR(svr.PredictOne(std::vector<double>{2.0}).value(), 1.0, 0.21);
  EXPECT_LE(svr.num_support_vectors(), 2u);
}

TEST(SvrTest, DualVariablesRespectBoxConstraint) {
  // Indirectly: with tiny C the model barely moves from the bias.
  Matrix x(20, 1);
  std::vector<double> y(20);
  for (size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = (i % 2 == 0) ? 10.0 : -10.0;
  }
  Svr::Options opts;
  opts.c = 1e-4;
  Svr svr(opts);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  double p = svr.PredictOne(std::vector<double>{5.0}).value();
  EXPECT_NEAR(p, 0.0, 1.0);  // Can't chase the +-10 targets with tiny C.
}

TEST(SvrTest, ErrorHandling) {
  Svr svr;
  EXPECT_TRUE(svr.Fit(Matrix(), {}).IsInvalidArgument());
  Matrix x(2, 1);
  EXPECT_TRUE(svr.Fit(x, std::vector<double>{1}).IsInvalidArgument());
  Svr::Options bad_c;
  bad_c.c = -1;
  EXPECT_TRUE(
      Svr(bad_c).Fit(x, std::vector<double>{1, 2}).IsInvalidArgument());
  Svr::Options bad_eps;
  bad_eps.epsilon = -0.1;
  EXPECT_TRUE(
      Svr(bad_eps).Fit(x, std::vector<double>{1, 2}).IsInvalidArgument());
  // NaN passes a plain `c <= 0` or `tol < 0` test, and a NaN or negative
  // tol would run every fit to the step cap.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Svr::Options> bad;
  for (double v : {nan, inf}) {
    bad.emplace_back().c = v;
    bad.emplace_back().epsilon = v;
    bad.emplace_back().kernel.gamma = v;
  }
  bad.emplace_back().kernel.gamma = -inf;
  bad.emplace_back().tol = nan;
  bad.emplace_back().tol = -1e-3;
  for (const Svr::Options& options : bad) {
    EXPECT_TRUE(
        Svr(options).Fit(x, std::vector<double>{1, 2}).IsInvalidArgument())
        << "c=" << options.c << " epsilon=" << options.epsilon
        << " gamma=" << options.kernel.gamma << " tol=" << options.tol;
  }
  EXPECT_TRUE(
      svr.PredictOne(std::vector<double>{1}).status().IsFailedPrecondition());
  ASSERT_TRUE(svr.Fit(x, std::vector<double>{1, 2}).ok());
  EXPECT_TRUE(svr.PredictOne(std::vector<double>{1, 2})
                  .status()
                  .IsInvalidArgument());
}

TEST(SvrTest, CloneIsUnfitted) {
  Svr svr;
  auto clone = svr.Clone();
  EXPECT_FALSE(clone->fitted());
  EXPECT_EQ(clone->name(), "SVR");
}

TEST(SvrTest, DeterministicFit) {
  Rng rng(11);
  Matrix x(30, 2);
  std::vector<double> y(30);
  for (size_t r = 0; r < 30; ++r) {
    x(r, 0) = rng.Normal();
    x(r, 1) = rng.Normal();
    y[r] = x(r, 0) - x(r, 1);
  }
  Svr a, b;
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  std::vector<double> probe = {0.3, -0.7};
  EXPECT_DOUBLE_EQ(a.PredictOne(probe).value(), b.PredictOne(probe).value());
}

}  // namespace
}  // namespace vup
