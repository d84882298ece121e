// Equivalence of the incremental training path (SlidingWindowBuilder +
// SlidingAcf caches in VehicleForecaster) with the naive rebuild path: the
// whole point of the optimization is that it changes nothing observable,
// so every assertion here is exact (bitwise), not approximate.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/evaluation.h"
#include "core/feature_selection.h"
#include "core/forecaster.h"
#include "obs/metrics.h"
#include "pipeline/dataset.h"

namespace vup {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

/// Plausible utilization series: weekly rhythm + AR noise, plus correlated
/// secondary engine features.
VehicleDataset MakeDataset(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<DailyUsageRecord> recs;
  double ar = 0.0;
  for (int i = 0; i < n; ++i) {
    ar = 0.6 * ar + rng.Normal();
    DailyUsageRecord r;
    r.date = Date::FromYmd(2016, 3, 1).value().AddDays(i);
    r.hours = std::clamp(6.0 + (i % 7 < 5 ? 2.0 : -4.0) + ar, 0.0, 24.0);
    r.fuel_used_l = 10.0 * r.hours + rng.Normal();
    r.avg_engine_load_pct = std::clamp(50.0 + 2.0 * ar, 0.0, 100.0);
    r.avg_engine_rpm = 1400.0 + 25.0 * ar;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = 7;
  return VehicleDataset::Build(info, recs, Italy()).value();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectIdenticalEvaluations(const VehicleEvaluation& naive,
                                const VehicleEvaluation& incremental) {
  ASSERT_EQ(naive.predictions.size(), incremental.predictions.size());
  for (size_t i = 0; i < naive.predictions.size(); ++i) {
    EXPECT_TRUE(SameBits(naive.predictions[i], incremental.predictions[i]))
        << "prediction " << i << ": " << naive.predictions[i] << " vs "
        << incremental.predictions[i];
  }
  EXPECT_TRUE(SameBits(naive.pe, incremental.pe));
  EXPECT_TRUE(SameBits(naive.mae, incremental.mae));
}

EvaluationConfig BaseConfig(Algorithm algorithm) {
  EvaluationConfig cfg;
  cfg.forecaster.algorithm = algorithm;
  cfg.forecaster.windowing.lookback_w = 12;
  cfg.forecaster.selection.top_k = 5;
  cfg.train_window = 40;
  cfg.eval_days = 15;
  cfg.retrain_every = 1;
  return cfg;
}

/// Current value of a process-wide counter.
double CounterValue(std::string_view name) {
  return obs::MetricsRegistry::Global().Snapshot().Value(name);
}

VehicleEvaluation Evaluate(const VehicleDataset& ds, EvaluationConfig cfg,
                           bool incremental) {
  cfg.forecaster.incremental_training = incremental;
  StatusOr<VehicleEvaluation> ev = EvaluateVehicle(ds, cfg);
  EXPECT_TRUE(ev.ok()) << ev.status().ToString();
  return ev.value();
}

TEST(IncrementalTrainingTest, SlidingEvaluationIsBitIdentical) {
  VehicleDataset ds = MakeDataset(160, 3);
  for (Algorithm algorithm :
       {Algorithm::kLinearRegression, Algorithm::kLasso, Algorithm::kSvr,
        Algorithm::kGradientBoosting}) {
    SCOPED_TRACE(AlgorithmToString(algorithm));
    EvaluationConfig cfg = BaseConfig(algorithm);
    ExpectIdenticalEvaluations(Evaluate(ds, cfg, false),
                               Evaluate(ds, cfg, true));
  }
}

TEST(IncrementalTrainingTest, MultiStepRetrainIsBitIdentical) {
  // retrain_every > 1 advances the window several records at a time.
  VehicleDataset ds = MakeDataset(160, 5);
  EvaluationConfig cfg = BaseConfig(Algorithm::kLinearRegression);
  cfg.retrain_every = 3;
  ExpectIdenticalEvaluations(Evaluate(ds, cfg, false),
                             Evaluate(ds, cfg, true));
}

TEST(IncrementalTrainingTest, ExpandingStrategyIsBitIdentical) {
  // Expanding spans change the record count each retrain, forcing the
  // rebuild branch of the incremental path -- results must still match.
  VehicleDataset ds = MakeDataset(140, 9);
  EvaluationConfig cfg = BaseConfig(Algorithm::kLinearRegression);
  cfg.strategy = WindowStrategy::kExpanding;
  ExpectIdenticalEvaluations(Evaluate(ds, cfg, false),
                             Evaluate(ds, cfg, true));
}

TEST(IncrementalTrainingTest, NextWorkingDayScenarioIsBitIdentical) {
  VehicleDataset ds = MakeDataset(200, 13);
  EvaluationConfig cfg = BaseConfig(Algorithm::kLinearRegression);
  cfg.scenario = Scenario::kNextWorkingDay;
  ExpectIdenticalEvaluations(Evaluate(ds, cfg, false),
                             Evaluate(ds, cfg, true));
}

TEST(IncrementalTrainingTest, NoFeatureSelectionIsBitIdentical) {
  VehicleDataset ds = MakeDataset(150, 21);
  EvaluationConfig cfg = BaseConfig(Algorithm::kLinearRegression);
  cfg.forecaster.use_feature_selection = false;
  ExpectIdenticalEvaluations(Evaluate(ds, cfg, false),
                             Evaluate(ds, cfg, true));
}

TEST(IncrementalTrainingTest, ForecasterReusedAcrossSlidingSpans) {
  // Direct Train/PredictTarget drive: one forecaster advancing its caches
  // step by step against fresh naive forecasters at every span.
  VehicleDataset ds = MakeDataset(120, 17);
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLinearRegression;
  cfg.windowing.lookback_w = 10;
  cfg.selection.top_k = 4;
  cfg.incremental_training = true;
  VehicleForecaster incremental(cfg);

  ForecasterConfig naive_cfg = cfg;
  naive_cfg.incremental_training = false;
  constexpr std::string_view kAdvances =
      "vupred_window_incremental_advances_total";
  constexpr std::string_view kRebuilds =
      "vupred_window_incremental_rebuilds_total";
  double advances = 0.0;
  double rebuilds = 0.0;
  const size_t count = 30;
  for (size_t begin = 10; begin + count + 5 < ds.num_days(); begin += 2) {
    const double advances0 = CounterValue(kAdvances);
    const double rebuilds0 = CounterValue(kRebuilds);
    ASSERT_TRUE(incremental.Train(ds, begin, begin + count).ok());
    advances += CounterValue(kAdvances) - advances0;
    rebuilds += CounterValue(kRebuilds) - rebuilds0;

    // The naive path never touches the sliding-window counters.
    const double advances1 = CounterValue(kAdvances);
    const double rebuilds1 = CounterValue(kRebuilds);
    VehicleForecaster naive(naive_cfg);
    ASSERT_TRUE(naive.Train(ds, begin, begin + count).ok());
    EXPECT_EQ(CounterValue(kAdvances), advances1);
    EXPECT_EQ(CounterValue(kRebuilds), rebuilds1);
    EXPECT_EQ(incremental.selected_lags(), naive.selected_lags());
    const size_t target = begin + count;
    StatusOr<double> a = naive.PredictTarget(ds, target);
    StatusOr<double> b = incremental.PredictTarget(ds, target);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(SameBits(a.value(), b.value())) << "span at " << begin;
  }
  // One full build for the first span; every later span advanced in place.
  EXPECT_GT(advances, 0.0);
  EXPECT_GE(rebuilds, 1.0);
  EXPECT_GT(advances, rebuilds);
}

TEST(IncrementalTrainingTest, ColumnListFollowsTheLagSet) {
  // After every Train the column list is the selected lag set's own,
  // whether the set was kept or changed since the last window. Both
  // training paths, one forecaster each.
  VehicleDataset ds = MakeDataset(160, 23);
  for (bool incremental : {true, false}) {
    ForecasterConfig cfg;
    cfg.algorithm = Algorithm::kLinearRegression;
    cfg.windowing.lookback_w = 20;
    cfg.selection.top_k = 7;
    cfg.incremental_training = incremental;
    VehicleForecaster forecaster(cfg);
    const std::vector<WindowColumn> columns =
        MakeWindowColumns(cfg.windowing);
    std::vector<size_t> previous;
    size_t changes = 0;
    size_t repeats = 0;
    for (size_t begin = 20; begin + 40 < ds.num_days(); ++begin) {
      ASSERT_TRUE(forecaster.Train(ds, begin, begin + 30).ok());
      const std::vector<size_t>& lags = forecaster.selected_lags();
      EXPECT_EQ(forecaster.selected_columns(), ColumnsForLags(columns, lags))
          << "incremental=" << incremental << " span at " << begin;
      if (!previous.empty()) ++(lags == previous ? repeats : changes);
      previous = lags;
    }
    // The walk both keeps and changes its lag set.
    EXPECT_GT(changes, 0u) << "incremental=" << incremental;
    EXPECT_GT(repeats, 0u) << "incremental=" << incremental;
  }
}

TEST(IncrementalTrainingTest, DatasetSwitchResetsCaches) {
  // Re-training the same forecaster on a different dataset must not reuse
  // stale window rows.
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLinearRegression;
  cfg.windowing.lookback_w = 8;
  cfg.selection.top_k = 3;
  VehicleForecaster forecaster(cfg);

  VehicleDataset first = MakeDataset(100, 31);
  VehicleDataset second = MakeDataset(100, 32);
  ASSERT_TRUE(forecaster.Train(first, 8, 48).ok());
  ASSERT_TRUE(forecaster.Train(second, 8, 48).ok());

  ForecasterConfig naive_cfg = cfg;
  naive_cfg.incremental_training = false;
  VehicleForecaster naive(naive_cfg);
  ASSERT_TRUE(naive.Train(second, 8, 48).ok());
  StatusOr<double> a = naive.PredictTarget(second, 48);
  StatusOr<double> b = forecaster.PredictTarget(second, 48);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(SameBits(a.value(), b.value()));
}

TEST(IncrementalTrainingTest, InvalidSpansFailLikeNaive) {
  VehicleDataset ds = MakeDataset(60, 41);
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLinearRegression;
  cfg.windowing.lookback_w = 10;
  for (bool incremental : {false, true}) {
    cfg.incremental_training = incremental;
    VehicleForecaster f(cfg);
    EXPECT_FALSE(f.Train(ds, 5, 30).ok());   // begin < lookback.
    EXPECT_FALSE(f.Train(ds, 20, 70).ok());  // Past the end.
    EXPECT_FALSE(f.Train(ds, 20, 21).ok());  // Under 2 records.
    EXPECT_TRUE(f.Train(ds, 20, 50).ok());   // Still usable after errors.
  }
}

}  // namespace
}  // namespace vup
