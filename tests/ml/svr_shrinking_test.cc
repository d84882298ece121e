// Adversarial warm starts for the SVR solver (satellite of the warm-start
// equivalence harness): a corrupted warm payload starts rows at the wrong
// bound, where they look KKT-satisfied from the bound side. The solver
// checks the full-set KKT gap at every step, so the warm fit must still
// end with gap <= tol and match the cold fit within the solver
// tolerances.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/svr.h"

namespace vup {
namespace {

/// Same generator as the warm-start equivalence suite, kept in sync so
/// the seeds stay meaningful: y = alternating linear trend + sine + noise.
void MakeRegression(uint64_t seed, size_t n, size_t d, Matrix* x,
                    std::vector<double>* y) {
  Rng rng(seed);
  *x = Matrix(n, d);
  y->assign(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    double target = 0.0;
    for (size_t c = 0; c < d; ++c) {
      double v = rng.Normal();
      (*x)(r, c) = v;
      target += (c % 2 == 0 ? 0.8 : -0.4) * v;
    }
    (*y)[r] = target + std::sin((*x)(r, 0)) + 0.05 * rng.Normal();
  }
}

/// Adversarial warm payload: the cold solution with its `k` largest-|beta|
/// coefficients negated and pushed past the box. After the fit-time
/// sanitize clamp these rows sit at the WRONG bound looking KKT-satisfied
/// from the bound side.
std::vector<double> CorruptLargestCoefficients(std::vector<double> beta,
                                               size_t k) {
  std::vector<size_t> idx(beta.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&beta](size_t a, size_t b) {
    return std::abs(beta[a]) > std::abs(beta[b]);
  });
  for (size_t j = 0; j < k && j < idx.size(); ++j) {
    beta[idx[j]] = beta[idx[j]] > 0.0 ? -10.0 : 10.0;
  }
  return beta;
}

TEST(SvrShrinkingTest, CorruptedWarmStartConvergesToColdOptimum) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(2, 70, 5, &x, &y);

  Svr cold{Svr::Options{}};
  ASSERT_TRUE(cold.Fit(x, y).ok());

  Svr warm{Svr::Options{}};
  warm.WarmStart(CorruptLargestCoefficients(cold.last_full_beta(), 6),
                 /*kernel_cache_rows=*/64);
  ASSERT_TRUE(warm.Fit(x, y).ok());
  const Svr::FitStats& stats = warm.last_fit_stats();
  ASSERT_TRUE(stats.warm_started);

  // The wrong-bound rows were fixed: the fit ends converged...
  EXPECT_LE(stats.gap, warm.options().tol);

  // ...and agrees with the cold fit far inside the documented SVR
  // equivalence tolerance.
  EXPECT_NEAR(warm.last_dual_objective(), cold.last_dual_objective(),
              1e-2 * (1.0 + std::abs(cold.last_dual_objective())));
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(cold.PredictOne(x.Row(r)).value(),
                warm.PredictOne(x.Row(r)).value(), 0.05)
        << "row " << r;
  }
}

TEST(SvrShrinkingTest, CorruptedWarmStartIsRobustAcrossSeeds) {
  // The property behind the pinned seed above, checked across several
  // datasets: the warm fit converges and its predictions match the cold
  // fit.
  for (uint64_t seed : {1, 2, 4, 5, 7, 8}) {
    Matrix x;
    std::vector<double> y;
    MakeRegression(seed, 70, 5, &x, &y);
    Svr cold{Svr::Options{}};
    ASSERT_TRUE(cold.Fit(x, y).ok());
    Svr warm{Svr::Options{}};
    warm.WarmStart(CorruptLargestCoefficients(cold.last_full_beta(), 6), 64);
    ASSERT_TRUE(warm.Fit(x, y).ok());
    EXPECT_LE(warm.last_fit_stats().gap, warm.options().tol)
        << "seed " << seed;
    for (size_t r = 0; r < x.rows(); ++r) {
      EXPECT_NEAR(cold.PredictOne(x.Row(r)).value(),
                  warm.PredictOne(x.Row(r)).value(), 0.05)
          << "seed " << seed << " row " << r;
    }
  }
}

TEST(SvrShrinkingTest, CleanWarmStartEndsConverged) {
  // From the exact cold solution there is nothing left to fix: the warm
  // fit starts inside the gap and ends far under the cold sweep count.
  Matrix x;
  std::vector<double> y;
  MakeRegression(11, 60, 4, &x, &y);
  Svr cold{Svr::Options{}};
  ASSERT_TRUE(cold.Fit(x, y).ok());

  Svr warm{Svr::Options{}};
  warm.WarmStart(cold.last_full_beta(), 64);
  ASSERT_TRUE(warm.Fit(x, y).ok());
  EXPECT_LT(warm.last_fit_stats().sweeps, cold.last_fit_stats().sweeps);
  EXPECT_LE(warm.last_fit_stats().gap, warm.options().tol);
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(cold.PredictOne(x.Row(r)).value(),
                warm.PredictOne(x.Row(r)).value(), 0.05);
  }
}

}  // namespace
}  // namespace vup
