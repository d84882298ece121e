#include "ml/grid_search.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/lasso.h"
#include "ml/linear_regression.h"
#include "ml/svr.h"

namespace vup {
namespace {

TEST(ParamGridTest, CartesianProduct) {
  ParamGrid grid;
  grid.axes["a"] = {1, 2};
  grid.axes["b"] = {10, 20, 30};
  auto combos = grid.Combinations();
  EXPECT_EQ(combos.size(), 6u);
  // Every combination unique and complete.
  for (const ParamMap& c : combos) {
    EXPECT_EQ(c.size(), 2u);
    EXPECT_TRUE(c.count("a"));
    EXPECT_TRUE(c.count("b"));
  }
}

TEST(ParamGridTest, EmptyGridOneEmptyCombo) {
  ParamGrid grid;
  auto combos = grid.Combinations();
  ASSERT_EQ(combos.size(), 1u);
  EXPECT_TRUE(combos[0].empty());
}

TEST(GridSearchTest, FindsBestAlpha) {
  // Sparse ground truth: moderate alpha beats none and beats huge.
  Rng rng(5);
  Matrix x(120, 6);
  std::vector<double> y(120);
  for (size_t r = 0; r < 120; ++r) {
    for (size_t c = 0; c < 6; ++c) x(r, c) = rng.Normal();
    y[r] = 2.0 * x(r, 0) + 0.3 * rng.Normal();
  }
  ParamGrid grid;
  grid.axes["alpha"] = {0.05, 1000.0};
  RegressorFactory factory = [](const ParamMap& p) {
    Lasso::Options opts;
    opts.alpha = p.at("alpha");
    return std::unique_ptr<Regressor>(new Lasso(opts));
  };
  GridSearchOptions opts;
  GridSearchResult result = GridSearch(factory, grid, x, y, opts).value();
  EXPECT_DOUBLE_EQ(result.best_params.at("alpha"), 0.05);
  EXPECT_EQ(result.scores.size(), 2u);
  EXPECT_LT(result.best_score, 1.0);
}

TEST(GridSearchTest, TimeOrderedSplitUsesTrailingValidation) {
  // Construct data where the tail differs from the head; a model trained on
  // the head must be evaluated on the tail (score clearly nonzero).
  Matrix x(20, 1);
  std::vector<double> y(20);
  for (size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 15 ? 0.0 : 100.0;  // Regime change in the validation tail.
  }
  ParamGrid grid;  // Single default combination.
  RegressorFactory factory = [](const ParamMap&) {
    return std::unique_ptr<Regressor>(new LinearRegression());
  };
  GridSearchOptions opts;
  opts.validation_fraction = 0.25;
  GridSearchResult result = GridSearch(factory, grid, x, y, opts).value();
  EXPECT_GT(result.best_score, 10.0);
}

TEST(GridSearchTest, MetricSelection) {
  Matrix x = Matrix::FromRows({{0.}, {1.}, {2.}, {3.}, {4.}, {5.}, {6.}, {7.}});
  std::vector<double> y = {0, 1, 2, 3, 4, 5, 6, 7};
  ParamGrid grid;
  RegressorFactory factory = [](const ParamMap&) {
    return std::unique_ptr<Regressor>(new LinearRegression());
  };
  for (GridMetric metric : {GridMetric::kMae, GridMetric::kRmse,
                            GridMetric::kPercentageError}) {
    GridSearchOptions opts;
    opts.metric = metric;
    GridSearchResult r = GridSearch(factory, grid, x, y, opts).value();
    EXPECT_NEAR(r.best_score, 0.0, 1e-6);
  }
}

TEST(GridSearchTest, SkipsFailingCombinations) {
  Matrix x = Matrix::FromRows({{0.}, {1.}, {2.}, {3.}});
  std::vector<double> y = {0, 1, 2, 3};
  ParamGrid grid;
  grid.axes["alpha"] = {-1.0, 0.1};  // Negative alpha fails Fit.
  RegressorFactory factory = [](const ParamMap& p) {
    Lasso::Options opts;
    opts.alpha = p.at("alpha");
    return std::unique_ptr<Regressor>(new Lasso(opts));
  };
  GridSearchResult r =
      GridSearch(factory, grid, x, y, GridSearchOptions()).value();
  EXPECT_EQ(r.scores.size(), 1u);
  EXPECT_DOUBLE_EQ(r.best_params.at("alpha"), 0.1);
}

TEST(GridSearchTest, AllFailingReturnsError) {
  Matrix x = Matrix::FromRows({{0.}, {1.}, {2.}, {3.}});
  std::vector<double> y = {0, 1, 2, 3};
  ParamGrid grid;
  grid.axes["alpha"] = {-1.0};
  RegressorFactory factory = [](const ParamMap& p) {
    Lasso::Options opts;
    opts.alpha = p.at("alpha");
    return std::unique_ptr<Regressor>(new Lasso(opts));
  };
  EXPECT_FALSE(GridSearch(factory, grid, x, y, GridSearchOptions()).ok());
}

TEST(GridSearchTest, ParallelMatchesSerial) {
  // jobs > 1 must be an implementation detail: identical scores (bitwise),
  // identical combination order, identical winner -- for Lasso and for
  // the SVR, whose fits share only read-only inputs across threads.
  Rng rng(9);
  Matrix x(150, 8);
  std::vector<double> y(150);
  for (size_t r = 0; r < 150; ++r) {
    for (size_t c = 0; c < 8; ++c) x(r, c) = rng.Normal();
    y[r] = 1.5 * x(r, 1) - 0.7 * x(r, 4) + 0.2 * rng.Normal();
  }
  struct Input {
    std::string name;
    ParamGrid grid;
    RegressorFactory factory;
  };
  std::vector<Input> inputs(2);
  inputs[0].name = "Lasso";
  inputs[0].grid.axes["alpha"] = {0.01, 0.1, 1.0, 10.0, 100.0};
  inputs[0].grid.axes["max_iter"] = {200, 400};
  inputs[0].factory = [](const ParamMap& p) {
    Lasso::Options opts;
    opts.alpha = p.at("alpha");
    opts.max_iter = static_cast<size_t>(p.at("max_iter"));
    return std::unique_ptr<Regressor>(new Lasso(opts));
  };
  inputs[1].name = "SVR";
  inputs[1].grid.axes["c"] = {1.0, 5.0, 10.0, 20.0};
  inputs[1].factory = [](const ParamMap& p) {
    Svr::Options opts;
    opts.c = p.at("c");
    return std::unique_ptr<Regressor>(new Svr(opts));
  };
  GridSearchOptions serial;
  serial.jobs = 1;
  GridSearchOptions parallel = serial;
  parallel.jobs = 4;
  for (const Input& in : inputs) {
    GridSearchResult a =
        GridSearch(in.factory, in.grid, x, y, serial).value();
    GridSearchResult b =
        GridSearch(in.factory, in.grid, x, y, parallel).value();
    ASSERT_EQ(a.scores.size(), b.scores.size()) << in.name;
    for (size_t i = 0; i < a.scores.size(); ++i) {
      EXPECT_EQ(a.scores[i].second, b.scores[i].second)
          << in.name << " combination " << i;
      EXPECT_EQ(a.scores[i].first, b.scores[i].first) << in.name;
    }
    EXPECT_EQ(a.best_params, b.best_params) << in.name;
    EXPECT_EQ(a.best_score, b.best_score) << in.name;
  }
}

TEST(GridSearchTest, ParallelSkipsFailuresLikeSerial) {
  Matrix x = Matrix::FromRows({{0.}, {1.}, {2.}, {3.}, {4.}, {5.}});
  std::vector<double> y = {0, 1, 2, 3, 4, 5};
  ParamGrid grid;
  grid.axes["alpha"] = {-2.0, -1.0, 0.1, 0.5};
  RegressorFactory factory = [](const ParamMap& p) {
    Lasso::Options opts;
    opts.alpha = p.at("alpha");
    return std::unique_ptr<Regressor>(new Lasso(opts));
  };
  GridSearchOptions opts;
  opts.jobs = 3;
  GridSearchResult r = GridSearch(factory, grid, x, y, opts).value();
  EXPECT_EQ(r.scores.size(), 2u);  // The two negative alphas fail Fit.

  // All combinations failing surfaces an error from parallel runs too.
  ParamGrid bad;
  bad.axes["alpha"] = {-1.0, -2.0};
  EXPECT_FALSE(GridSearch(factory, bad, x, y, opts).ok());
}

TEST(GridSearchTest, ValidatesOptions) {
  Matrix x = Matrix::FromRows({{0.}, {1.}});
  std::vector<double> y = {0, 1};
  ParamGrid grid;
  RegressorFactory factory = [](const ParamMap&) {
    return std::unique_ptr<Regressor>(new LinearRegression());
  };
  GridSearchOptions bad;
  bad.validation_fraction = 0.0;
  EXPECT_FALSE(GridSearch(factory, grid, x, y, bad).ok());
  bad.validation_fraction = 1.0;
  EXPECT_FALSE(GridSearch(factory, grid, x, y, bad).ok());
  // Mismatched shapes.
  EXPECT_FALSE(GridSearch(factory, grid, x, std::vector<double>{1},
                          GridSearchOptions())
                   .ok());
}

}  // namespace
}  // namespace vup
