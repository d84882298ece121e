// Walk-forward warm-start regression suite for VehicleForecaster: which
// training spans reuse solver state, which fall back cold, and which
// invalidate captured state entirely -- every scenario asserted through
// the vupred_train_warmstart_*_total{algorithm=...} counters the serving
// stack monitors, not through private fields.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/evaluation.h"
#include "core/forecaster.h"
#include "obs/metrics.h"
#include "pipeline/dataset.h"

namespace vup {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

/// Plausible utilization series: weekly rhythm + AR noise (same shape as
/// the incremental-training suite).
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

ForecasterConfig WarmConfig(Algorithm algorithm) {
  ForecasterConfig cfg;
  cfg.algorithm = algorithm;
  cfg.windowing.lookback_w = 12;
  cfg.selection.top_k = 5;
  cfg.warm_start.enabled = true;
  return cfg;
}

/// Deltas of the three decision counters for one algorithm label across a
/// scoped block of Train calls.
class WarmCounterProbe {
 public:
  explicit WarmCounterProbe(Algorithm algorithm)
      : labels_{{"algorithm", std::string(AlgorithmToString(algorithm))}} {
    hits0_ = Read("vupred_train_warmstart_hits_total");
    cold0_ = Read("vupred_train_warmstart_cold_starts_total");
    invalidated0_ = Read("vupred_train_warmstart_invalidations_total");
  }

  double hits() { return Read("vupred_train_warmstart_hits_total") - hits0_; }
  double cold_starts() {
    return Read("vupred_train_warmstart_cold_starts_total") - cold0_;
  }
  double invalidations() {
    return Read("vupred_train_warmstart_invalidations_total") - invalidated0_;
  }

 private:
  double Read(std::string_view name) {
    return obs::MetricsRegistry::Global().Snapshot().Value(name, labels_);
  }

  obs::LabelSet labels_;
  double hits0_ = 0.0;
  double cold0_ = 0.0;
  double invalidated0_ = 0.0;
};

class WarmStartTrainingTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(WarmStartTrainingTest, SlidingWindowHitsAfterFirstColdFit) {
  VehicleDataset ds = MakeDataset(90, 16);
  VehicleForecaster fc(WarmConfig(GetParam()));
  WarmCounterProbe probe(GetParam());

  // Unit-shift sliding spans: cold once, then warm every step.
  for (size_t step = 0; step < 6; ++step) {
    ASSERT_TRUE(fc.Train(ds, 20 + step, 60 + step).ok());
  }
  EXPECT_EQ(probe.cold_starts(), 1.0);
  EXPECT_EQ(probe.hits(), 5.0);
  EXPECT_EQ(probe.invalidations(), 0.0);
}

TEST_P(WarmStartTrainingTest, ExpandingWindowNeverWarms) {
  // An expanding window keeps train_begin fixed: the record count grows
  // every step, so the captured state never maps and each fit is an
  // invalidation (stale state discarded) or plain cold start.
  VehicleDataset ds = MakeDataset(90, 13);
  VehicleForecaster fc(WarmConfig(GetParam()));
  WarmCounterProbe probe(GetParam());

  for (size_t step = 0; step < 5; ++step) {
    ASSERT_TRUE(fc.Train(ds, 20, 60 + step).ok());
  }
  EXPECT_EQ(probe.hits(), 0.0);
  // Every invalidated fit also runs cold, so cold_starts counts the
  // initial fit plus the four invalidations (the counters are "what did
  // this fit do" / "why", not disjoint buckets).
  EXPECT_EQ(probe.cold_starts(), 5.0);
  EXPECT_EQ(probe.invalidations(), 4.0);
}

TEST_P(WarmStartTrainingTest, StrideTwoNeverWarms) {
  // retrain_every > 1 advances the span by two targets per refit; the
  // add-one-drop-one shift does not apply, so no step may warm.
  VehicleDataset ds = MakeDataset(100, 17);
  VehicleForecaster fc(WarmConfig(GetParam()));
  WarmCounterProbe probe(GetParam());

  for (size_t step = 0; step < 5; ++step) {
    ASSERT_TRUE(fc.Train(ds, 20 + 2 * step, 60 + 2 * step).ok());
  }
  EXPECT_EQ(probe.hits(), 0.0);
  EXPECT_EQ(probe.cold_starts(), 5.0);  // Initial + 4 invalidations.
  EXPECT_EQ(probe.invalidations(), 4.0);
}

TEST_P(WarmStartTrainingTest, DatasetSwitchMidStreamInvalidates) {
  VehicleDataset a = MakeDataset(90, 18);
  VehicleDataset b = MakeDataset(90, 32);
  VehicleForecaster fc(WarmConfig(GetParam()));
  WarmCounterProbe probe(GetParam());

  ASSERT_TRUE(fc.Train(a, 20, 60).ok());  // Cold.
  ASSERT_TRUE(fc.Train(a, 21, 61).ok());  // Warm.
  // Same spans, different vehicle: state keyed to `a` must not be
  // replayed on `b`, even though the shift looks like a unit advance.
  ASSERT_TRUE(fc.Train(b, 22, 62).ok());
  ASSERT_TRUE(fc.Train(b, 23, 63).ok());  // Warm again, now keyed to b.
  EXPECT_EQ(probe.hits(), 2.0);
  EXPECT_EQ(probe.cold_starts(), 2.0);
  EXPECT_EQ(probe.invalidations(), 0.0);
}

TEST_P(WarmStartTrainingTest, HyperparameterChangeInvalidates) {
  VehicleDataset ds = MakeDataset(90, 29);
  ForecasterConfig cfg = WarmConfig(GetParam());
  VehicleForecaster fc(cfg);
  WarmCounterProbe probe(GetParam());

  ASSERT_TRUE(fc.Train(ds, 20, 60).ok());  // Cold.
  ASSERT_TRUE(fc.Train(ds, 21, 61).ok());  // Warm.

  // Change a training hyper-parameter mid-stream; a rebuilt forecaster
  // stands in for a config mutation (VehicleForecaster treats config as
  // immutable). The captured state carries the old config hash via the
  // fresh forecaster's empty state -- what we assert here is the hash
  // itself: the regression would be WarmStartConfigHash ignoring the
  // changed knob, silently replaying stale state.
  switch (cfg.algorithm) {
    case Algorithm::kLasso:
      cfg.lasso.alpha *= 2.0;
      break;
    case Algorithm::kSvr:
      cfg.svr.c *= 2.0;
      break;
    case Algorithm::kGradientBoosting:
      cfg.gb.learning_rate *= 0.5;
      break;
    default:
      FAIL() << "unexpected algorithm";
  }
  EXPECT_NE(WarmStartConfigHash(WarmConfig(GetParam())),
            WarmStartConfigHash(cfg));
}

TEST_P(WarmStartTrainingTest, LagSetChangeInvalidates) {
  // A dataset whose ACF shifts enough mid-stream to change the selected
  // lag set triggers a selected_columns mismatch -> invalidation. Driving
  // that organically is seed-hunting, so assert the key ingredient
  // directly: the windowing/selection knobs are part of the config hash.
  ForecasterConfig base = WarmConfig(GetParam());
  ForecasterConfig wider = base;
  wider.windowing.lookback_w = 16;
  EXPECT_NE(WarmStartConfigHash(base), WarmStartConfigHash(wider));

  ForecasterConfig fewer = base;
  fewer.selection.top_k = 3;
  EXPECT_NE(WarmStartConfigHash(base), WarmStartConfigHash(fewer));

  ForecasterConfig budget = base;
  budget.warm_start.svr_warm_max_sweeps += 1;
  EXPECT_NE(WarmStartConfigHash(base), WarmStartConfigHash(budget));
}

TEST_P(WarmStartTrainingTest, DisabledWarmStartCountsNothing) {
  VehicleDataset ds = MakeDataset(90, 31);
  ForecasterConfig cfg = WarmConfig(GetParam());
  cfg.warm_start.enabled = false;
  VehicleForecaster fc(cfg);
  WarmCounterProbe probe(GetParam());

  ASSERT_TRUE(fc.Train(ds, 20, 60).ok());
  ASSERT_TRUE(fc.Train(ds, 21, 61).ok());
  EXPECT_EQ(probe.hits(), 0.0);
  EXPECT_EQ(probe.cold_starts(), 0.0);
  EXPECT_EQ(probe.invalidations(), 0.0);
}

TEST_P(WarmStartTrainingTest, WarmPredictionsStayWithinDocumentedTolerance) {
  // End-to-end equivalence at the forecaster level: a warm walk-forward
  // pass predicts within the per-algorithm tolerance of DESIGN.md
  // section 14 of the cold pass (0.05 h for Lasso and SVR, 3 h for GB).
  VehicleDataset ds = MakeDataset(110, 37);
  ForecasterConfig cold_cfg = WarmConfig(GetParam());
  cold_cfg.warm_start.enabled = false;
  ForecasterConfig warm_cfg = WarmConfig(GetParam());
  VehicleForecaster cold(cold_cfg);
  VehicleForecaster warm(warm_cfg);

  const double tolerance =
      GetParam() == Algorithm::kGradientBoosting ? 3.0 : 0.05;
  for (size_t step = 0; step < 8; ++step) {
    const size_t begin = 20 + step;
    const size_t end = 70 + step;
    ASSERT_TRUE(cold.Train(ds, begin, end).ok());
    ASSERT_TRUE(warm.Train(ds, begin, end).ok());
    StatusOr<double> pc = cold.PredictTarget(ds, end);
    StatusOr<double> pw = warm.PredictTarget(ds, end);
    ASSERT_TRUE(pc.ok()) << pc.status().ToString();
    ASSERT_TRUE(pw.ok()) << pw.status().ToString();
    EXPECT_NEAR(pc.value(), pw.value(), tolerance) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(WarmAlgorithms, WarmStartTrainingTest,
                         ::testing::Values(Algorithm::kLasso, Algorithm::kSvr,
                                           Algorithm::kGradientBoosting),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmToString(info.param));
                         });

TEST(WarmStartTrainingTest, GbStalenessCapForcesPeriodicFullRefit) {
  VehicleDataset ds = MakeDataset(110, 34);
  ForecasterConfig cfg = WarmConfig(Algorithm::kGradientBoosting);
  cfg.warm_start.gb_max_staleness = 3;
  VehicleForecaster fc(cfg);
  WarmCounterProbe probe(Algorithm::kGradientBoosting);

  // 9 unit-shift steps: cold, then warm runs of length <= 3 separated by
  // forced refreshes -- the counters spell out the cadence.
  for (size_t step = 0; step < 9; ++step) {
    ASSERT_TRUE(fc.Train(ds, 20 + step, 70 + step).ok());
  }
  // step 0 cold; 1,2,3 warm; 4 cold (stale); 5,6,7 warm; 8 cold (stale).
  EXPECT_EQ(probe.cold_starts(), 3.0);
  EXPECT_EQ(probe.hits(), 6.0);
  EXPECT_EQ(probe.invalidations(), 0.0);
}

TEST(WarmStartTrainingTest, GbTreeBudgetForcesFullRefit) {
  VehicleDataset ds = MakeDataset(110, 35);
  ForecasterConfig cfg = WarmConfig(Algorithm::kGradientBoosting);
  cfg.gb.n_estimators = 20;
  cfg.warm_start.gb_extra_stages = 10;
  cfg.warm_start.gb_max_trees = 40;  // Cold 20 + two warm rounds of 10.
  cfg.warm_start.gb_max_staleness = 100;  // Staleness out of the picture.
  VehicleForecaster fc(cfg);
  WarmCounterProbe probe(Algorithm::kGradientBoosting);

  for (size_t step = 0; step < 6; ++step) {
    ASSERT_TRUE(fc.Train(ds, 20 + step, 70 + step).ok());
  }
  // step 0 cold (20 trees); 1,2 warm (30, 40); 3 cold again (40 + 10 >
  // 40); 4,5 warm.
  EXPECT_EQ(probe.cold_starts(), 2.0);
  EXPECT_EQ(probe.hits(), 4.0);
  EXPECT_EQ(probe.invalidations(), 0.0);
}

TEST(WarmStartTrainingTest, EvaluateVehicleWithStrideNeverWarms) {
  // Through the real walk-forward loop: retrain_every=2 must produce zero
  // warm hits end to end, not just in the unit test above.
  VehicleDataset ds = MakeDataset(100, 47);
  EvaluationConfig cfg;
  cfg.forecaster.algorithm = Algorithm::kLasso;
  cfg.forecaster.windowing.lookback_w = 12;
  cfg.forecaster.selection.top_k = 5;
  cfg.forecaster.warm_start.enabled = true;
  cfg.train_window = 40;
  cfg.eval_days = 12;
  cfg.retrain_every = 2;
  WarmCounterProbe probe(Algorithm::kLasso);
  ASSERT_TRUE(EvaluateVehicle(ds, cfg).ok());
  EXPECT_EQ(probe.hits(), 0.0);
  EXPECT_GT(probe.cold_starts() + probe.invalidations(), 0.0);
}

TEST(WarmStartTrainingTest, EvaluateVehicleUnitStrideWarmsEveryRefit) {
  VehicleDataset ds = MakeDataset(100, 53);
  EvaluationConfig cfg;
  cfg.forecaster.algorithm = Algorithm::kLasso;
  cfg.forecaster.windowing.lookback_w = 12;
  cfg.forecaster.selection.top_k = 5;
  cfg.forecaster.warm_start.enabled = true;
  cfg.train_window = 40;
  cfg.eval_days = 12;
  cfg.retrain_every = 1;
  WarmCounterProbe probe(Algorithm::kLasso);
  ASSERT_TRUE(EvaluateVehicle(ds, cfg).ok());
  // Some refits may legitimately fall cold (lag-set changes mid-stream),
  // but a healthy sliding loop warms most of the time.
  EXPECT_GT(probe.hits(), 0.0);
  EXPECT_EQ(probe.hits() + probe.cold_starts(), 12.0);
}

}  // namespace
}  // namespace vup
