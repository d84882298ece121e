// Satellite coverage: ModelRegistry::Reload while per-vehicle circuit
// breakers are open or half-open. A no-op Reload (CURRENT unchanged) must
// carry breaker state over untouched; a generation swap must reset the
// breakers deliberately (fresh fleet, fresh chances) while preserving the
// cumulative transition counters.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/forecaster.h"
#include "serve/model_registry.h"
#include "testing/registry.h"

namespace vup::serve {
namespace {

namespace fs = std::filesystem;

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

VehicleDataset MakeDataset(int64_t level_key, int n = 220) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    double level = 2.0 + static_cast<double>(level_key % 7);
    r.hours = wd < 5 ? level + wd + 0.05 * (i % 3) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = level_key;
  return VehicleDataset::Build(info, recs, Italy()).value();
}

VehicleForecaster TrainForecaster(const VehicleDataset& ds) {
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLasso;
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  VehicleForecaster forecaster(cfg);
  EXPECT_TRUE(forecaster.Train(ds, 20, 200).ok());
  return forecaster;
}

class ReloadBreakerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_reload_breaker_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ModelRegistry OpenWithClock(const Clock* clock) {
    ModelRegistry::Options opts;
    opts.directory = dir_;
    opts.cache_capacity = 4;
    opts.clock = clock;
    opts.breaker.failure_threshold = 3;
    StatusOr<ModelRegistry> registry = ModelRegistry::Open(std::move(opts));
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  /// Publishes a generation holding vehicle 9 and breaks its listed
  /// bundle, so every load fails with an IO error. An IO error, not
  /// corrupt bytes: corrupt listed bytes quarantine, only load failures
  /// trip breakers.
  void PublishBrokenGeneration(ModelRegistry* registry) {
    const VehicleForecaster model = TrainForecaster(MakeDataset(9));
    ASSERT_TRUE(PublishFleet(*registry, {{9, &model}}).ok());
    ASSERT_TRUE(BreakBundle(registry->BundlePath(9)).ok());
  }

  void TripBreaker(ModelRegistry* registry, int64_t id) {
    for (int i = 0; i < 3; ++i) {
      Status status = registry->Get(id).status();
      ASSERT_FALSE(status.ok());
      ASSERT_FALSE(status.IsUnavailable()) << "attempt " << i;
    }
    ASSERT_EQ(registry->breaker_state(id), BreakerState::kOpen);
  }

  std::string dir_;
};

TEST_F(ReloadBreakerTest, NoOpReloadCarriesOpenBreakerOver) {
  FakeClock clock;
  ModelRegistry registry = OpenWithClock(&clock);
  PublishBrokenGeneration(&registry);
  TripBreaker(&registry, 9);
  const ModelRegistryStats before = registry.stats();
  ASSERT_EQ(before.breaker_opens, 1u);
  ASSERT_EQ(before.breaker_open_vehicles, 1u);

  // CURRENT is unchanged: Reload must not grant the broken vehicle a
  // fresh budget of disk probes.
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.breaker_state(9), BreakerState::kOpen);
  Status fast = registry.Get(9).status();
  EXPECT_TRUE(fast.IsUnavailable()) << fast.ToString();
  ModelRegistryStats after = registry.stats();
  EXPECT_EQ(after.breaker_open_vehicles, 1u);
  EXPECT_EQ(after.breaker_short_circuits,
            before.breaker_short_circuits + 1);
  EXPECT_EQ(after.load_failures, before.load_failures);  // No disk touched.
  EXPECT_EQ(after.reloads, before.reloads);  // Same dir = no swap counted.
}

TEST_F(ReloadBreakerTest, NoOpReloadCarriesHalfOpenScheduleOver) {
  FakeClock clock;
  ModelRegistry registry = OpenWithClock(&clock);
  PublishBrokenGeneration(&registry);
  TripBreaker(&registry, 9);
  const size_t failures_before = registry.stats().load_failures;

  // Let the backoff elapse, then Reload without a CURRENT change: the
  // half-open probe budget must survive, so exactly one Get reaches disk
  // and the still-broken bundle re-opens the breaker.
  clock.AdvanceMs(registry.BreakerBackoffMs(9, 1) + 1);
  ASSERT_TRUE(registry.Reload().ok());
  Status probe = registry.Get(9).status();
  EXPECT_FALSE(probe.IsUnavailable()) << probe.ToString();
  EXPECT_EQ(registry.stats().load_failures, failures_before + 1);
  EXPECT_EQ(registry.breaker_state(9), BreakerState::kOpen);
  EXPECT_EQ(registry.stats().breaker_opens, 2u);
}

TEST_F(ReloadBreakerTest, GenerationSwapResetsBreakersDeliberately) {
  FakeClock clock;
  ModelRegistry registry = OpenWithClock(&clock);
  PublishBrokenGeneration(&registry);
  TripBreaker(&registry, 9);
  const ModelRegistryStats tripped = registry.stats();
  ASSERT_EQ(tripped.breaker_opens, 1u);

  // Publish a healthy replacement generation and swap to it. The new
  // fleet's bundle is fine; keeping vehicle 9's breaker open would deny
  // it service for no reason.
  const VehicleDataset ds = MakeDataset(9);
  VehicleForecaster healthy = TrainForecaster(ds);
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(pub.value().Add(9, healthy).ok());
    ASSERT_TRUE(pub.value().Commit(RegistryMeta{}).ok());
  }
  ASSERT_TRUE(registry.Reload().ok());

  EXPECT_EQ(registry.breaker_state(9), BreakerState::kClosed);
  ModelRegistryStats after = registry.stats();
  EXPECT_EQ(after.breaker_open_vehicles, 0u);
  // The cumulative transition counter is history, not state: preserved.
  EXPECT_EQ(after.breaker_opens, 1u);
  EXPECT_EQ(after.reloads, tripped.reloads + 1);

  // And the vehicle actually serves again, with the new fleet's bytes.
  StatusOr<std::shared_ptr<const VehicleForecaster>> loaded =
      registry.Get(9);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(
      loaded.value()->PredictTarget(ds, ds.num_days()).value(),
      healthy.PredictTarget(ds, ds.num_days()).value());
}

TEST_F(ReloadBreakerTest, SwapWhileHalfOpenResetsInsteadOfProbing) {
  FakeClock clock;
  ModelRegistry registry = OpenWithClock(&clock);
  PublishBrokenGeneration(&registry);
  TripBreaker(&registry, 9);
  clock.AdvanceMs(registry.BreakerBackoffMs(9, 1) + 1);  // Probe is due.

  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(
        pub.value().Add(9, TrainForecaster(MakeDataset(9))).ok());
    ASSERT_TRUE(pub.value().Commit(RegistryMeta{}).ok());
  }
  const size_t failures_before = registry.stats().load_failures;
  ASSERT_TRUE(registry.Reload().ok());

  // The swap cleared the breaker: the next Get is a plain cache miss on
  // the healthy bundle, not a half-open probe against the old fleet.
  EXPECT_EQ(registry.breaker_state(9), BreakerState::kClosed);
  EXPECT_TRUE(registry.Get(9).ok());
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.load_failures, failures_before);
  EXPECT_EQ(stats.breaker_open_vehicles, 0u);
}

}  // namespace
}  // namespace vup::serve
