// Contract suite: every Regressor implementation must satisfy the same
// behavioral contract (fit/predict lifecycle, validation, cloning,
// determinism, refitting). Parameterized over factories so a new algorithm
// only adds one line.

#include <cmath>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/gradient_boosting.h"
#include "ml/lasso.h"
#include "ml/linear_regression.h"
#include "ml/model.h"
#include "ml/svr.h"
#include "ml/tree.h"

namespace vup {
namespace {

struct Factory {
  std::string name;
  std::function<std::unique_ptr<Regressor>()> make;
};

class RegressorContractTest : public ::testing::TestWithParam<Factory> {
 protected:
  static void MakeProblem(Matrix* x, std::vector<double>* y, size_t n,
                          uint64_t seed) {
    Rng rng(seed);
    *x = Matrix(n, 3);
    y->resize(n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < 3; ++c) (*x)(r, c) = rng.Normal();
      (*y)[r] = 1.0 + 2.0 * (*x)(r, 0) - (*x)(r, 1) + 0.05 * rng.Normal();
    }
  }
};

TEST_P(RegressorContractTest, LifecycleAndValidation) {
  std::unique_ptr<Regressor> model = GetParam().make();
  EXPECT_FALSE(model->fitted());
  EXPECT_TRUE(model->PredictOne(std::vector<double>{1, 2, 3})
                  .status()
                  .IsFailedPrecondition());

  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 60, 1);
  ASSERT_TRUE(model->Fit(x, y).ok());
  EXPECT_TRUE(model->fitted());

  // Wrong feature count rejected.
  EXPECT_TRUE(model->PredictOne(std::vector<double>{1, 2})
                  .status()
                  .IsInvalidArgument());
  // Shape mismatch rejected, model forced back to unfitted-or-consistent.
  EXPECT_TRUE(model->Fit(x, std::vector<double>{1.0}).IsInvalidArgument());
  EXPECT_TRUE(model->Fit(Matrix(), {}).IsInvalidArgument());
}

TEST_P(RegressorContractTest, LearnsStrongLinearSignal) {
  std::unique_ptr<Regressor> model = GetParam().make();
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 200, 2);
  ASSERT_TRUE(model->Fit(x, y).ok());
  // In-sample predictions must correlate strongly with the target:
  // compute R^2-style agreement.
  std::vector<double> pred = model->Predict(x).value();
  double mean = 0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double ss_res = 0, ss_tot = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    ss_res += (y[i] - pred[i]) * (y[i] - pred[i]);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  EXPECT_LT(ss_res / ss_tot, 0.25) << GetParam().name;
}

TEST_P(RegressorContractTest, BatchMatchesSingle) {
  std::unique_ptr<Regressor> model = GetParam().make();
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 50, 3);
  ASSERT_TRUE(model->Fit(x, y).ok());
  std::vector<double> batch = model->Predict(x).value();
  for (size_t r = 0; r < x.rows(); r += 7) {
    EXPECT_DOUBLE_EQ(batch[r], model->PredictOne(x.Row(r)).value());
  }
}

TEST_P(RegressorContractTest, CloneIsIndependentAndUnfitted) {
  std::unique_ptr<Regressor> model = GetParam().make();
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 50, 4);
  ASSERT_TRUE(model->Fit(x, y).ok());
  std::unique_ptr<Regressor> clone = model->Clone();
  EXPECT_FALSE(clone->fitted());
  EXPECT_EQ(clone->name(), model->name());
  // Fitting the clone does not disturb the original.
  std::vector<double> before = model->Predict(x).value();
  std::vector<double> y2(y.size(), 0.0);
  ASSERT_TRUE(clone->Fit(x, y2).ok());
  std::vector<double> after = model->Predict(x).value();
  EXPECT_EQ(before, after);
}

TEST_P(RegressorContractTest, CloneFittedIsIndependentAndFitted) {
  std::unique_ptr<Regressor> model = GetParam().make();
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 50, 4);
  ASSERT_TRUE(model->Fit(x, y).ok());
  std::unique_ptr<Regressor> copy = model->CloneFitted();
  EXPECT_TRUE(copy->fitted());
  EXPECT_EQ(copy->name(), model->name());
  const std::vector<double> before = model->Predict(x).value();
  EXPECT_EQ(copy->Predict(x).value(), before);
  // Refitting the original does not disturb the copy.
  ASSERT_TRUE(model->Fit(x, std::vector<double>(y.size(), 0.0)).ok());
  EXPECT_EQ(copy->Predict(x).value(), before);
}

TEST_P(RegressorContractTest, FitIsDeterministic) {
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 80, 5);
  std::unique_ptr<Regressor> a = GetParam().make();
  std::unique_ptr<Regressor> b = GetParam().make();
  ASSERT_TRUE(a->Fit(x, y).ok());
  ASSERT_TRUE(b->Fit(x, y).ok());
  std::vector<double> probe = {0.3, -0.2, 1.1};
  EXPECT_DOUBLE_EQ(a->PredictOne(probe).value(),
                   b->PredictOne(probe).value());
}

TEST_P(RegressorContractTest, RefitReplacesModel) {
  std::unique_ptr<Regressor> model = GetParam().make();
  Matrix x;
  std::vector<double> y;
  MakeProblem(&x, &y, 60, 6);
  ASSERT_TRUE(model->Fit(x, y).ok());
  std::vector<double> flipped(y.size());
  for (size_t i = 0; i < y.size(); ++i) flipped[i] = -y[i];
  ASSERT_TRUE(model->Fit(x, flipped).ok());
  std::vector<double> pred = model->Predict(x).value();
  // The refit model tracks the flipped targets, not the originals.
  double agree_flipped = 0, agree_original = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    agree_flipped += std::abs(pred[i] - flipped[i]);
    agree_original += std::abs(pred[i] - y[i]);
  }
  EXPECT_LT(agree_flipped, agree_original);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegressors, RegressorContractTest,
    ::testing::Values(
        Factory{"LR",
                [] {
                  return std::unique_ptr<Regressor>(new LinearRegression());
                }},
        Factory{"LRridge",
                [] {
                  LinearRegression::Options o;
                  o.ridge = 1.0;
                  return std::unique_ptr<Regressor>(new LinearRegression(o));
                }},
        Factory{"Lasso",
                [] {
                  Lasso::Options o;
                  o.alpha = 0.01;
                  return std::unique_ptr<Regressor>(new Lasso(o));
                }},
        Factory{"SVR",
                [] {
                  Svr::Options o;
                  o.c = 50.0;
                  o.epsilon = 0.05;
                  return std::unique_ptr<Regressor>(new Svr(o));
                }},
        Factory{"Tree",
                [] {
                  RegressionTree::Options o;
                  o.max_depth = 6;
                  return std::unique_ptr<Regressor>(new RegressionTree(o));
                }},
        Factory{"GB",
                [] {
                  GradientBoosting::Options o;
                  o.n_estimators = 120;
                  o.max_depth = 3;
                  o.learning_rate = 0.2;
                  o.loss = GbLoss::kLeastSquares;
                  return std::unique_ptr<Regressor>(new GradientBoosting(o));
                }}),
    [](const ::testing::TestParamInfo<Factory>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace vup
