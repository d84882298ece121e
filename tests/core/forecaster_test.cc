#include "core/forecaster.h"

#include <gtest/gtest.h>

namespace vup {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

/// Deterministic weekly pattern: weekday 4+dow hours, weekend idle.
VehicleDataset WeeklyDataset(int n) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    r.hours = wd < 5 ? 4.0 + wd : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = 2;
  return VehicleDataset::Build(info, recs, Italy()).value();
}

TEST(AlgorithmTest, NamesStable) {
  EXPECT_EQ(AlgorithmToString(Algorithm::kLastValue), "LV");
  EXPECT_EQ(AlgorithmToString(Algorithm::kMovingAverage), "MA");
  EXPECT_EQ(AlgorithmToString(Algorithm::kLinearRegression), "LR");
  EXPECT_EQ(AlgorithmToString(Algorithm::kLasso), "Lasso");
  EXPECT_EQ(AlgorithmToString(Algorithm::kSvr), "SVR");
  EXPECT_EQ(AlgorithmToString(Algorithm::kGradientBoosting), "GB");
}

TEST(MakeRegressorTest, BuildsMlAlgorithms) {
  ForecasterConfig cfg;
  for (Algorithm a : {Algorithm::kLinearRegression, Algorithm::kLasso,
                      Algorithm::kSvr, Algorithm::kGradientBoosting}) {
    cfg.algorithm = a;
    auto model = MakeRegressor(cfg);
    ASSERT_TRUE(model.ok()) << AlgorithmToString(a);
    EXPECT_EQ(model.value()->name(), AlgorithmToString(a));
    EXPECT_FALSE(model.value()->fitted());
  }
}

TEST(MakeRegressorTest, RejectsBaselines) {
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLastValue;
  EXPECT_FALSE(MakeRegressor(cfg).ok());
  cfg.algorithm = Algorithm::kMovingAverage;
  EXPECT_FALSE(MakeRegressor(cfg).ok());
}

class ForecasterAlgorithmTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ForecasterAlgorithmTest, LearnsDeterministicWeeklyPattern) {
  VehicleDataset ds = WeeklyDataset(200);
  ForecasterConfig cfg;
  cfg.algorithm = GetParam();
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  // LAD stumps at lr=0.1 need more stages to pull weekend predictions all
  // the way to zero on this hard step pattern; give GB room and depth.
  cfg.gb.n_estimators = 300;
  cfg.gb.learning_rate = 0.3;
  cfg.gb.max_depth = 2;
  VehicleForecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(ds, 20, 180).ok());
  EXPECT_TRUE(forecaster.trained());

  bool is_ml = GetParam() != Algorithm::kLastValue &&
               GetParam() != Algorithm::kMovingAverage;
  // ML algorithms on a noise-free pattern: near-exact prediction.
  double tolerance = is_ml ? 0.6 : 8.0;
  for (size_t t = 185; t < 195; ++t) {
    double pred = forecaster.PredictTarget(ds, t).value();
    EXPECT_NEAR(pred, ds.hours()[t], tolerance)
        << AlgorithmToString(GetParam()) << " at t=" << t;
    EXPECT_GE(pred, 0.0);
    EXPECT_LE(pred, 24.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ForecasterAlgorithmTest,
    ::testing::Values(Algorithm::kLastValue, Algorithm::kMovingAverage,
                      Algorithm::kLinearRegression, Algorithm::kLasso,
                      Algorithm::kSvr, Algorithm::kGradientBoosting),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(AlgorithmToString(info.param));
    });

TEST(ForecasterTest, BaselinesMatchDefinitions) {
  VehicleDataset ds = WeeklyDataset(60);
  ForecasterConfig lv_cfg;
  lv_cfg.algorithm = Algorithm::kLastValue;
  VehicleForecaster lv(lv_cfg);
  ASSERT_TRUE(lv.Train(ds, 0, 50).ok());
  EXPECT_DOUBLE_EQ(lv.PredictTarget(ds, 50).value(), ds.hours()[49]);

  ForecasterConfig ma_cfg;
  ma_cfg.algorithm = Algorithm::kMovingAverage;
  ma_cfg.ma_period = 5;
  VehicleForecaster ma(ma_cfg);
  ASSERT_TRUE(ma.Train(ds, 0, 50).ok());
  double expected = 0;
  for (int i = 45; i < 50; ++i) expected += ds.hours()[static_cast<size_t>(i)];
  EXPECT_NEAR(ma.PredictTarget(ds, 50).value(), expected / 5, 1e-12);
}

TEST(ForecasterTest, SelectedLagsExposedAndWeekly) {
  VehicleDataset ds = WeeklyDataset(200);
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLasso;
  cfg.windowing.lookback_w = 21;
  cfg.selection.top_k = 3;
  VehicleForecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(ds, 30, 190).ok());
  const std::vector<size_t>& lags = forecaster.selected_lags();
  ASSERT_EQ(lags.size(), 3u);
  // Weekly pattern: multiples of 7 dominate the ACF.
  EXPECT_NE(std::find(lags.begin(), lags.end(), 7u), lags.end());
}

TEST(ForecasterTest, FeatureSelectionOffUsesAllColumns) {
  VehicleDataset ds = WeeklyDataset(100);
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLinearRegression;
  cfg.windowing.lookback_w = 10;
  cfg.use_feature_selection = false;
  VehicleForecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(ds, 15, 90).ok());
  EXPECT_TRUE(forecaster.selected_lags().empty());
  EXPECT_NEAR(forecaster.PredictTarget(ds, 92).value(), ds.hours()[92], 1.0);
}

TEST(ForecasterTest, PredictBeforeTrainFails) {
  VehicleDataset ds = WeeklyDataset(60);
  VehicleForecaster forecaster(ForecasterConfig{});
  EXPECT_TRUE(
      forecaster.PredictTarget(ds, 30).status().IsFailedPrecondition());
}

TEST(ForecasterTest, TrainValidation) {
  VehicleDataset ds = WeeklyDataset(60);
  ForecasterConfig cfg;
  cfg.windowing.lookback_w = 10;
  VehicleForecaster f(cfg);
  EXPECT_TRUE(f.Train(ds, 20, 20).IsInvalidArgument());   // Empty span.
  EXPECT_TRUE(f.Train(ds, 5, 30).IsInvalidArgument());    // < lookback.
  EXPECT_TRUE(f.Train(ds, 20, 21).IsInvalidArgument());   // 1 record.
  EXPECT_TRUE(f.Train(ds, 20, 100).IsOutOfRange());       // Past end.
}

TEST(ForecasterTest, RejectsRetiredWarmStart) {
  // Warm start is retired; the flag survives only so that old callers
  // compile, and setting it must fail loudly rather than fit cold.
  VehicleDataset ds = WeeklyDataset(60);
  for (Algorithm algorithm : {Algorithm::kLasso, Algorithm::kSvr,
                              Algorithm::kGradientBoosting}) {
    EXPECT_FALSE(AlgorithmSupportsWarmStart(algorithm));
    ForecasterConfig cfg;
    cfg.algorithm = algorithm;
    cfg.windowing.lookback_w = 10;
    cfg.warm_start.enabled = true;
    VehicleForecaster f(cfg);
    EXPECT_TRUE(f.Train(ds, 20, 50).IsInvalidArgument());
    EXPECT_FALSE(f.trained());
  }
}

TEST(ForecasterTest, ClampsToPhysicalRange) {
  // A linearly exploding series would extrapolate beyond 24h; the clamp
  // keeps the forecast physical.
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < 80; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    r.hours = std::min(24.0, 0.4 * i);
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = 3;
  auto ds = VehicleDataset::Build(info, recs, Italy()).value();
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLinearRegression;
  cfg.windowing.lookback_w = 10;
  VehicleForecaster f(cfg);
  ASSERT_TRUE(f.Train(ds, 12, 78).ok());
  double pred = f.PredictTarget(ds, ds.num_days()).value();
  EXPECT_GE(pred, 0.0);
  EXPECT_LE(pred, 24.0);
}

}  // namespace
}  // namespace vup
