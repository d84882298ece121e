// Cold-vs-warm equivalence contract for the warm-startable solvers
// (DESIGN.md section 14).
//
// What "equivalent" means differs per algorithm and is asserted here at
// exactly the strength the math supports:
//   - Lasso: coordinate descent has a unique fixed point on these designs;
//     warm and cold runs land on the same coefficients within tol-scale
//     bounds, and *bitwise* on orthogonal designs where a sweep lands
//     exactly.
//   - SVR: the epsilon-insensitive dual has flat directions, so distinct
//     optima within the KKT gap are legitimate; warm and cold agree on
//     the dual objective within a stated gap and on predictions within a
//     stated tolerance.
//   - GB: a warm fit is a *continuation* (the adopted ensemble plus
//     extra stages), so the contract is structural: the adopted prefix is
//     the cold ensemble verbatim, and the appended stages keep improving
//     the training loss.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/gradient_boosting.h"
#include "ml/lasso.h"
#include "ml/svr.h"
#include "ml/warm_start.h"

namespace vup {
namespace {

/// Seeded nonlinear regression data: y = linear trend + sine + noise.
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

// ---- SVR --------------------------------------------------------------

TEST(WarmStartEquivalenceTest, SvrWarmMatchesColdObjectiveAndPredictions) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(7, 60, 4, &x, &y);

  Svr::Options options;
  options.c = 10.0;
  options.epsilon = 0.1;
  Svr cold(options);
  ASSERT_TRUE(cold.Fit(x, y).ok());
  ASSERT_FALSE(cold.last_fit_stats().warm_started);
  const double w_cold = cold.last_dual_objective();

  // Warm-start from a perturbation of the cold solution (the shape of a
  // real walk-forward payload: close but not exact).
  Rng rng(13);
  std::vector<double> beta0 = cold.last_full_beta();
  double imbalance = 0.0;
  for (double& b : beta0) {
    b += 0.05 * rng.Normal();
    imbalance += b;
  }
  beta0.back() -= imbalance;  // Keep the equality constraint satisfied.

  Svr warm(options);
  warm.WarmStart(beta0, /*kernel_cache_rows=*/128);
  ASSERT_TRUE(warm.Fit(x, y).ok());
  EXPECT_TRUE(warm.last_fit_stats().warm_started);

  // Objective-level equivalence: both stop on the same KKT gap of the
  // same convex dual, so the objectives differ by the solver tolerance
  // scale, not by luck.
  const double w_warm = warm.last_dual_objective();
  EXPECT_NEAR(w_warm, w_cold, 1e-2 * (1.0 + std::abs(w_cold)));

  // Prediction-level equivalence within the documented tolerance.
  for (size_t r = 0; r < x.rows(); ++r) {
    double pc = cold.PredictOne(x.Row(r)).value();
    double pw = warm.PredictOne(x.Row(r)).value();
    EXPECT_NEAR(pc, pw, 0.05) << "row " << r;
  }
}

TEST(WarmStartEquivalenceTest, SvrWarmFromExactSolutionConvergesInstantly) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(11, 50, 3, &x, &y);

  Svr cold{Svr::Options{}};
  ASSERT_TRUE(cold.Fit(x, y).ok());
  const size_t cold_sweeps = cold.last_fit_stats().sweeps;

  Svr warm{Svr::Options{}};
  warm.WarmStart(cold.last_full_beta(), 64);
  ASSERT_TRUE(warm.Fit(x, y).ok());
  // The cold solution already meets the KKT gap; the warm run should need
  // far fewer sweeps than the cold one.
  EXPECT_LT(warm.last_fit_stats().sweeps, cold_sweeps);
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(cold.PredictOne(x.Row(r)).value(),
                warm.PredictOne(x.Row(r)).value(), 0.05);
  }
}

TEST(WarmStartEquivalenceTest, SvrWarmSweepBudgetIsHonored) {
  // The warm fit's own step cap (max_sweeps * n pair steps) bounds its
  // sweep count.
  Matrix x;
  std::vector<double> y;
  MakeRegression(59, 90, 6, &x, &y);

  Svr cold{Svr::Options{}};
  ASSERT_TRUE(cold.Fit(x, y).ok());

  Svr warm{Svr::Options{}};
  warm.WarmStart(cold.last_full_beta(), /*kernel_cache_rows=*/64,
                 /*max_sweeps=*/10);
  ASSERT_TRUE(warm.Fit(x, y).ok());
  EXPECT_TRUE(warm.last_fit_stats().warm_started);
  EXPECT_LE(warm.last_fit_stats().sweeps, 10u);
  // Budget or not, resuming from the cold solution stays equivalent.
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(cold.PredictOne(x.Row(r)).value(),
                warm.PredictOne(x.Row(r)).value(), 0.05);
  }
}

TEST(WarmStartEquivalenceTest, SvrWarmStartIgnoredOnSizeMismatch) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(3, 40, 3, &x, &y);
  Svr reference{Svr::Options{}};
  ASSERT_TRUE(reference.Fit(x, y).ok());

  Svr svr{Svr::Options{}};
  svr.WarmStart(std::vector<double>(17, 0.5), 64);  // Wrong length.
  ASSERT_TRUE(svr.Fit(x, y).ok());
  EXPECT_FALSE(svr.last_fit_stats().warm_started);
  // An ignored request falls back to the cold path bitwise -- this is
  // where exactness IS guaranteed, and what keeps the incremental path's
  // exact-equivalence contract intact when warm starts are enabled.
  ASSERT_EQ(svr.last_full_beta().size(), reference.last_full_beta().size());
  for (size_t i = 0; i < reference.last_full_beta().size(); ++i) {
    EXPECT_EQ(svr.last_full_beta()[i], reference.last_full_beta()[i]) << i;
  }
  EXPECT_EQ(svr.bias(), reference.bias());
}

TEST(WarmStartEquivalenceTest, ShiftSvrBetaPreservesBoxAndEqualityConstraint) {
  const double c = 2.0;
  std::vector<double> prev = {1.5, -0.5, 2.0, -2.0, -1.0};
  ASSERT_NEAR(prev[0] + prev[1] + prev[2] + prev[3] + prev[4], 0.0, 1e-15);
  std::vector<double> shifted = ShiftSvrBetaForward(prev, c);
  ASSERT_EQ(shifted.size(), prev.size());
  double sum = 0.0;
  for (double b : shifted) {
    EXPECT_LE(std::abs(b), c + 1e-12);
    sum += b;
  }
  // The dropped row's coefficient was reabsorbed: sum beta == 0 again.
  EXPECT_NEAR(sum, 0.0, 1e-12);
  // The surviving rows keep their coefficients where the box allows.
  EXPECT_DOUBLE_EQ(shifted[0], prev[1]);
  EXPECT_DOUBLE_EQ(shifted[1], prev[2]);
}

TEST(WarmStartEquivalenceTest, ShiftSvrBetaHandlesSaturatedRows) {
  // Every surviving coefficient is pinned at a bound, so the imbalance
  // must spread across several rows (newest first) without leaving the
  // box.
  const double c = 1.0;
  std::vector<double> prev = {-3.0, 1.0, 1.0, 1.0};
  std::vector<double> shifted = ShiftSvrBetaForward(prev, c);
  double sum = 0.0;
  for (double b : shifted) {
    EXPECT_LE(std::abs(b), c + 1e-12);
    sum += b;
  }
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

// ---- Lasso ------------------------------------------------------------

TEST(WarmStartEquivalenceTest, LassoWarmMatchesColdWithinTolerance) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(19, 80, 6, &x, &y);

  Lasso::Options options;
  options.alpha = 0.05;
  Lasso cold(options);
  ASSERT_TRUE(cold.Fit(x, y).ok());
  ASSERT_FALSE(cold.last_fit_warm_started());

  // Warm from a perturbed solution: the lasso fixed point on a full-rank
  // random design is unique, so both runs land on the same coefficients
  // up to the sweep tolerance.
  Rng rng(23);
  std::vector<double> coef0 = cold.coefficients();
  for (double& w : coef0) w += 0.01 * rng.Normal();
  Lasso warm(options);
  warm.WarmStart(coef0);
  ASSERT_TRUE(warm.Fit(x, y).ok());
  EXPECT_TRUE(warm.last_fit_warm_started());

  ASSERT_EQ(warm.coefficients().size(), cold.coefficients().size());
  for (size_t i = 0; i < cold.coefficients().size(); ++i) {
    EXPECT_NEAR(warm.coefficients()[i], cold.coefficients()[i], 1e-4) << i;
  }
  EXPECT_NEAR(warm.intercept(), cold.intercept(), 1e-6);
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(cold.PredictOne(x.Row(r)).value(),
                warm.PredictOne(x.Row(r)).value(), 1e-3);
  }
}

TEST(WarmStartEquivalenceTest, LassoWarmIsExactOnOrthogonalDesign) {
  // Columns with disjoint support: coordinate descent decouples and every
  // coordinate lands in one update. Warm and cold agree to the last few
  // ulps -- not bitwise, because the residual is maintained incrementally
  // (r += x_j * (old - new)) and the warm run takes extra round trips
  // through that update, each a potential half-ulp of drift.
  const size_t n = 12;
  const size_t d = 3;
  Matrix x(n, d);
  std::vector<double> y(n);
  Rng rng(31);
  for (size_t r = 0; r < n; ++r) {
    size_t c = r % d;
    x(r, c) = 1.0 + 0.25 * static_cast<double>(r % 4);
    y[r] = (c == 0 ? 2.0 : c == 1 ? -1.5 : 0.75) * x(r, c) +
           0.01 * rng.Normal();
  }

  Lasso::Options options;
  options.alpha = 0.01;
  options.fit_intercept = false;  // Centering would break orthogonality.
  Lasso cold(options);
  ASSERT_TRUE(cold.Fit(x, y).ok());

  Lasso warm(options);
  warm.WarmStart(std::vector<double>(d, 0.37));  // Arbitrary start.
  ASSERT_TRUE(warm.Fit(x, y).ok());
  EXPECT_TRUE(warm.last_fit_warm_started());

  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(warm.coefficients()[i], cold.coefficients()[i], 1e-12) << i;
  }
}

TEST(WarmStartEquivalenceTest, LassoWarmFromSolutionTakesFewerSweeps) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(37, 100, 8, &x, &y);
  Lasso cold{Lasso::Options{}};
  ASSERT_TRUE(cold.Fit(x, y).ok());
  const size_t cold_iters = cold.iterations_run();

  Lasso warm{Lasso::Options{}};
  warm.WarmStart(cold.coefficients());
  ASSERT_TRUE(warm.Fit(x, y).ok());
  EXPECT_LT(warm.iterations_run(), cold_iters);
}

TEST(WarmStartEquivalenceTest, LassoWarmIgnoredOnDimensionMismatch) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(41, 30, 4, &x, &y);
  Lasso lasso{Lasso::Options{}};
  lasso.WarmStart(std::vector<double>(9, 1.0));
  ASSERT_TRUE(lasso.Fit(x, y).ok());
  EXPECT_FALSE(lasso.last_fit_warm_started());
}

// ---- Gradient boosting ------------------------------------------------

TEST(WarmStartEquivalenceTest, GbWarmContinuationExtendsColdEnsemble) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(43, 70, 5, &x, &y);

  GradientBoosting::Options options;
  options.n_estimators = 30;
  GradientBoosting cold(options);
  ASSERT_TRUE(cold.Fit(x, y).ok());
  const double cold_final_loss = cold.training_loss_per_stage().back();

  GradientBoosting warm(options);
  warm.WarmStart(cold.trees(), cold.initial_prediction(), x.cols(),
                 /*extra_stages=*/5);
  ASSERT_TRUE(warm.Fit(x, y).ok());
  EXPECT_TRUE(warm.last_fit_warm_started());

  // Structural contract: the adopted prefix is the cold ensemble, plus
  // exactly extra_stages appended stages whose losses keep improving.
  EXPECT_EQ(warm.num_stages(), 35u);
  EXPECT_EQ(warm.training_loss_per_stage().size(), 5u);
  EXPECT_LE(warm.training_loss_per_stage().back(),
            cold_final_loss + 1e-12);
  EXPECT_DOUBLE_EQ(warm.initial_prediction(), cold.initial_prediction());

  // The continuation only refines: predictions stay close to the cold
  // ensemble it started from.
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(cold.PredictOne(x.Row(r)).value(),
                warm.PredictOne(x.Row(r)).value(), 0.5);
  }
}

TEST(WarmStartEquivalenceTest, GbWarmIgnoredOnFeatureMismatchOrEmpty) {
  Matrix x;
  std::vector<double> y;
  MakeRegression(47, 40, 4, &x, &y);
  GradientBoosting::Options options;
  options.n_estimators = 10;

  GradientBoosting donor(options);
  ASSERT_TRUE(donor.Fit(x, y).ok());

  // Wrong feature count: cold fit with the full stage budget.
  GradientBoosting mismatched(options);
  mismatched.WarmStart(donor.trees(), donor.initial_prediction(),
                       x.cols() + 1, 5);
  ASSERT_TRUE(mismatched.Fit(x, y).ok());
  EXPECT_FALSE(mismatched.last_fit_warm_started());
  EXPECT_EQ(mismatched.num_stages(), 10u);

  // Empty donor ensemble: also cold.
  GradientBoosting empty(options);
  empty.WarmStart({}, 0.0, x.cols(), 5);
  ASSERT_TRUE(empty.Fit(x, y).ok());
  EXPECT_FALSE(empty.last_fit_warm_started());
  EXPECT_EQ(empty.num_stages(), 10u);
}

TEST(WarmStartEquivalenceTest, GbColdPathUnchangedByArmedThenConsumedWarm) {
  // A consumed warm request leaves no residue: the next Fit is cold and
  // bitwise-identical to a never-warmed model.
  Matrix x;
  std::vector<double> y;
  MakeRegression(53, 50, 4, &x, &y);
  GradientBoosting::Options options;
  options.n_estimators = 15;

  GradientBoosting reference(options);
  ASSERT_TRUE(reference.Fit(x, y).ok());

  GradientBoosting reused(options);
  ASSERT_TRUE(reused.Fit(x, y).ok());
  GradientBoosting donor(options);
  ASSERT_TRUE(donor.Fit(x, y).ok());
  reused.WarmStart(donor.trees(), donor.initial_prediction(), x.cols(), 3);
  ASSERT_TRUE(reused.Fit(x, y).ok());  // Consumes the request.
  ASSERT_TRUE(reused.Fit(x, y).ok());  // Cold again.
  EXPECT_FALSE(reused.last_fit_warm_started());
  EXPECT_EQ(reused.num_stages(), 15u);
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(reference.PredictOne(x.Row(r)).value(),
              reused.PredictOne(x.Row(r)).value());
  }
}

}  // namespace
}  // namespace vup
