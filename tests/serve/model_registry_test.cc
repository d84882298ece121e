#include "serve/model_registry.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/forecaster.h"
#include "serve/guarded_publish.h"
#include "testing/framing.h"
#include "testing/registry.h"

namespace vup::serve {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

/// Weekly-pattern dataset whose level depends on `vehicle_id`, so different
/// vehicles train to observably different models.
VehicleDataset MakeDataset(int64_t vehicle_id, int n = 220) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    double level = 2.0 + static_cast<double>(vehicle_id % 7);
    r.hours = wd < 5 ? level + wd + 0.05 * (i % 3) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = vehicle_id;
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

class ModelRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_registry_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ModelRegistry OpenRegistry(size_t capacity) {
    StatusOr<ModelRegistry> registry =
        ModelRegistry::Open({dir_, capacity});
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  std::string dir_;
};

TEST_F(ModelRegistryTest, PublishGetRoundtripsPredictions) {
  ModelRegistry registry = OpenRegistry(4);
  VehicleDataset ds = MakeDataset(11);
  VehicleForecaster original = TrainForecaster(ds);
  ASSERT_TRUE(PublishFleet(registry, {{11, &original}}).ok());

  StatusOr<std::shared_ptr<const VehicleForecaster>> loaded =
      registry.Get(11);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t t = 205; t <= ds.num_days(); t += 4) {
    EXPECT_DOUBLE_EQ(loaded.value()->PredictTarget(ds, t).value(),
                     original.PredictTarget(ds, t).value())
        << "target " << t;
  }
}

TEST_F(ModelRegistryTest, GetUnknownVehicleIsNotFound) {
  ModelRegistry registry = OpenRegistry(4);
  EXPECT_TRUE(registry.Get(404).status().IsNotFound());
  EXPECT_FALSE(registry.Contains(404));
}

TEST_F(ModelRegistryTest, LruEvictsLeastRecentlyUsed) {
  ModelRegistry registry = OpenRegistry(/*capacity=*/2);
  const VehicleForecaster f1 = TrainForecaster(MakeDataset(1));
  const VehicleForecaster f2 = TrainForecaster(MakeDataset(2));
  const VehicleForecaster f3 = TrainForecaster(MakeDataset(3));
  ASSERT_TRUE(PublishFleet(registry, {{1, &f1}, {2, &f2}, {3, &f3}}).ok());
  ASSERT_TRUE(registry.Get(1).ok());  // miss, resident {1}
  ASSERT_TRUE(registry.Get(2).ok());  // miss, resident {2, 1}
  ASSERT_TRUE(registry.Get(1).ok());  // hit, resident {1, 2}
  ASSERT_TRUE(registry.Get(3).ok());  // miss, evicts 2 -> {3, 1}
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(registry.resident_models(), 2u);

  // 2 was the least recently used: touching it again is a fresh miss,
  // while 1 and 3 stayed resident... until 2 displaces one of them.
  ASSERT_TRUE(registry.Get(2).ok());
  stats = registry.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST_F(ModelRegistryTest, CapacityZeroDisablesCaching) {
  ModelRegistry registry = OpenRegistry(/*capacity=*/0);
  const VehicleForecaster f5 = TrainForecaster(MakeDataset(5));
  ASSERT_TRUE(PublishFleet(registry, {{5, &f5}}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(registry.Get(5).ok());
  }
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(registry.resident_models(), 0u);
}

TEST_F(ModelRegistryTest, CapacityOneKeepsOnlyNewest) {
  ModelRegistry registry = OpenRegistry(/*capacity=*/1);
  const VehicleForecaster f1 = TrainForecaster(MakeDataset(1));
  const VehicleForecaster f2 = TrainForecaster(MakeDataset(2));
  ASSERT_TRUE(PublishFleet(registry, {{1, &f1}, {2, &f2}}).ok());
  ASSERT_TRUE(registry.Get(1).ok());
  ASSERT_TRUE(registry.Get(2).ok());
  ASSERT_TRUE(registry.Get(2).ok());
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(registry.resident_models(), 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST_F(ModelRegistryTest, ReloadAfterEvictionPredictsIdentically) {
  ModelRegistry registry = OpenRegistry(/*capacity=*/1);
  VehicleDataset ds = MakeDataset(7);
  VehicleForecaster original = TrainForecaster(ds);
  const VehicleForecaster f8 = TrainForecaster(MakeDataset(8));
  ASSERT_TRUE(PublishFleet(registry, {{7, &original}, {8, &f8}}).ok());

  ASSERT_TRUE(registry.Get(7).ok());
  ASSERT_TRUE(registry.Get(8).ok());  // Evicts 7.
  StatusOr<std::shared_ptr<const VehicleForecaster>> reloaded =
      registry.Get(7);  // Back from disk.
  ASSERT_TRUE(reloaded.ok());
  EXPECT_GE(registry.stats().evictions, 2u);
  for (size_t t = 205; t <= ds.num_days(); t += 4) {
    EXPECT_DOUBLE_EQ(reloaded.value()->PredictTarget(ds, t).value(),
                     original.PredictTarget(ds, t).value())
        << "target " << t;
  }
}

TEST_F(ModelRegistryTest, EvictedModelStaysUsableWhileHeld) {
  ModelRegistry registry = OpenRegistry(/*capacity=*/1);
  VehicleDataset ds = MakeDataset(1);
  const VehicleForecaster f1 = TrainForecaster(ds);
  const VehicleForecaster f2 = TrainForecaster(MakeDataset(2));
  ASSERT_TRUE(PublishFleet(registry, {{1, &f1}, {2, &f2}}).ok());
  StatusOr<std::shared_ptr<const VehicleForecaster>> held =
      registry.Get(1);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(registry.Get(2).ok());  // Evicts 1 from the cache.
  // The shared_ptr keeps the evicted model alive for in-flight scoring.
  EXPECT_TRUE(held.value()->PredictTarget(ds, ds.num_days()).ok());
}

TEST_F(ModelRegistryTest, RepublishReplacesBundleAndStaleCacheEntry) {
  ModelRegistry registry = OpenRegistry(4);
  VehicleDataset ds_a = MakeDataset(1);
  VehicleDataset ds_b = MakeDataset(6);  // Different usage level.
  const VehicleForecaster first = TrainForecaster(ds_a);
  VehicleForecaster second = TrainForecaster(ds_b);
  ASSERT_TRUE(PublishFleet(registry, {{1, &first}}).ok());
  ASSERT_TRUE(registry.Get(1).ok());  // Now resident.
  ASSERT_TRUE(PublishFleet(registry, {{1, &second}}).ok());

  StatusOr<std::shared_ptr<const VehicleForecaster>> loaded =
      registry.Get(1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(
      loaded.value()->PredictTarget(ds_b, ds_b.num_days()).value(),
      second.PredictTarget(ds_b, ds_b.num_days()).value());
}

TEST_F(ModelRegistryTest, ListVehicleIdsAscending) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster f42 = TrainForecaster(MakeDataset(42));
  const VehicleForecaster f7 = TrainForecaster(MakeDataset(7));
  const VehicleForecaster f100019 = TrainForecaster(MakeDataset(100019));
  ASSERT_TRUE(
      PublishFleet(registry, {{42, &f42}, {7, &f7}, {100019, &f100019}})
          .ok());
  EXPECT_EQ(registry.ListVehicleIds(),
            (std::vector<int64_t>{7, 42, 100019}));
  EXPECT_TRUE(registry.Contains(42));
}

TEST_F(ModelRegistryTest, OpenCreatesDirectory) {
  std::string nested = dir_ + "/a/b/c";
  StatusOr<ModelRegistry> registry = ModelRegistry::Open({nested, 2});
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_TRUE(std::filesystem::is_directory(nested));
  EXPECT_TRUE(registry.value().ListVehicleIds().empty());
}

// ---- Circuit breaker ---------------------------------------------------

class ModelRegistryBreakerTest : public ModelRegistryTest {
 protected:
  ModelRegistry OpenWithClock(const Clock* clock,
                              int failure_threshold = 3,
                              uint64_t jitter_seed = 42) {
    ModelRegistry::Options opts;
    opts.directory = dir_;
    opts.cache_capacity = 4;
    opts.clock = clock;
    opts.breaker.failure_threshold = failure_threshold;
    opts.breaker.jitter_seed = jitter_seed;
    StatusOr<ModelRegistry> registry = ModelRegistry::Open(std::move(opts));
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  /// Publishes vehicle 9 and breaks its listed bundle, so every load of
  /// it fails with an IO error until the bytes are restored.
  void PublishBrokenNine(ModelRegistry& registry,
                         const VehicleForecaster& forecaster) {
    ASSERT_TRUE(PublishFleet(registry, {{9, &forecaster}}).ok());
    ASSERT_TRUE(BreakBundle(registry.BundlePath(9)).ok());
  }
};

TEST_F(ModelRegistryBreakerTest, OpensAfterThresholdAndFailsFast) {
  FakeClock clock;
  ModelRegistry registry = OpenWithClock(&clock);
  PublishBrokenNine(registry, TrainForecaster(MakeDataset(9)));

  for (int i = 0; i < 3; ++i) {
    Status status = registry.Get(9).status();
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(status.IsUnavailable()) << "attempt " << i;
  }
  EXPECT_EQ(registry.breaker_state(9), BreakerState::kOpen);
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.load_failures, 3u);
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_open_vehicles, 1u);

  // While open: fast-fail with Unavailable, no further disk loads.
  Status fast = registry.Get(9).status();
  EXPECT_TRUE(fast.IsUnavailable()) << fast.ToString();
  stats = registry.stats();
  EXPECT_EQ(stats.load_failures, 3u);
  EXPECT_EQ(stats.breaker_short_circuits, 1u);
}

TEST_F(ModelRegistryBreakerTest, HalfOpenProbeReopensOnFailure) {
  FakeClock clock;
  ModelRegistry registry = OpenWithClock(&clock);
  PublishBrokenNine(registry, TrainForecaster(MakeDataset(9)));
  for (int i = 0; i < 3; ++i) ASSERT_FALSE(registry.Get(9).ok());
  ASSERT_EQ(registry.breaker_state(9), BreakerState::kOpen);

  // Backoff elapses: the next Get is admitted as the half-open probe, the
  // bundle is still unreadable, so the breaker re-opens with period 2.
  clock.AdvanceMs(registry.BreakerBackoffMs(9, 1) + 1);
  Status probe = registry.Get(9).status();
  EXPECT_FALSE(probe.ok());
  EXPECT_FALSE(probe.IsUnavailable());  // The probe really hit the disk.
  EXPECT_EQ(registry.breaker_state(9), BreakerState::kOpen);
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.load_failures, 4u);
  EXPECT_EQ(stats.breaker_opens, 2u);

  // The second open period is longer (exponential schedule): the first
  // period's advance is not enough to half-open again.
  EXPECT_TRUE(registry.Get(9).status().IsUnavailable());
}

TEST_F(ModelRegistryBreakerTest, SuccessfulProbeClosesBreaker) {
  FakeClock clock;
  ModelRegistry registry = OpenWithClock(&clock);
  VehicleDataset ds = MakeDataset(9);
  VehicleForecaster good = TrainForecaster(ds);
  PublishBrokenNine(registry, good);
  for (int i = 0; i < 3; ++i) ASSERT_FALSE(registry.Get(9).ok());
  ASSERT_EQ(registry.breaker_state(9), BreakerState::kOpen);

  // Restore the listed bytes behind the registry's back (no generation
  // swap, which would reset the breaker anyway), let the backoff elapse,
  // probe.
  ASSERT_TRUE(std::filesystem::remove(registry.BundlePath(9)));
  {
    std::ofstream out(registry.BundlePath(9),
                      std::ios::trunc | std::ios::binary);
    out << good.SaveCompact().value();
  }
  clock.AdvanceMs(registry.BreakerBackoffMs(9, 1) + 1);
  StatusOr<std::shared_ptr<const VehicleForecaster>> loaded =
      registry.Get(9);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(registry.breaker_state(9), BreakerState::kClosed);
  EXPECT_EQ(registry.stats().breaker_open_vehicles, 0u);
  EXPECT_DOUBLE_EQ(loaded.value()->PredictTarget(ds, ds.num_days()).value(),
                   good.PredictTarget(ds, ds.num_days()).value());
}

TEST_F(ModelRegistryBreakerTest, NotFoundNeverTripsTheBreaker) {
  FakeClock clock;
  ModelRegistry registry = OpenWithClock(&clock);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(registry.Get(404).status().IsNotFound());
  }
  EXPECT_EQ(registry.breaker_state(404), BreakerState::kClosed);
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.load_failures, 0u);
  EXPECT_EQ(stats.breaker_opens, 0u);
}

TEST_F(ModelRegistryBreakerTest, BackoffScheduleIsSeededAndJittered) {
  FakeClock clock;
  ModelRegistry a = OpenWithClock(&clock, 3, /*jitter_seed=*/7);
  // Same seed reproduces the exact schedule; the schedule follows the
  // min(initial * 2^(k-1), max) retry curve within +/-10% jitter.
  for (int64_t vehicle : {1, 9, 12345}) {
    int64_t expected_base = 1000;
    for (int count = 1; count <= 4; ++count) {
      const int64_t ms = a.BreakerBackoffMs(vehicle, count);
      EXPECT_EQ(ms, a.BreakerBackoffMs(vehicle, count));
      EXPECT_GE(ms, expected_base * 9 / 10) << vehicle << "/" << count;
      EXPECT_LE(ms, expected_base * 11 / 10) << vehicle << "/" << count;
      expected_base *= 2;
    }
  }
  ModelRegistry b = OpenWithClock(&clock, 3, /*jitter_seed=*/7);
  ModelRegistry c = OpenWithClock(&clock, 3, /*jitter_seed=*/8);
  bool any_differs = false;
  for (int count = 1; count <= 4; ++count) {
    EXPECT_EQ(a.BreakerBackoffMs(9, count), b.BreakerBackoffMs(9, count));
    any_differs |=
        a.BreakerBackoffMs(9, count) != c.BreakerBackoffMs(9, count);
  }
  EXPECT_TRUE(any_differs) << "different seeds produced the same schedule";
}

// ---- Generations -------------------------------------------------------

class ModelRegistryGenerationTest : public ModelRegistryTest {
 protected:
  RegistryMeta TestMeta(uint64_t seed = 42) {
    RegistryMeta meta;
    meta.fleet_seed = seed;
    meta.fleet_vehicles = 40;
    meta.algorithm = "Lasso";
    return meta;
  }
};

TEST_F(ModelRegistryGenerationTest, CommitFlipsCurrentOnlyOnReload) {
  ModelRegistry registry = OpenRegistry(4);
  EXPECT_EQ(registry.active_generation(), 0u);  // Nothing published yet.

  StatusOr<GenerationPublisher> pub = registry.NewGeneration();
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  VehicleDataset ds = MakeDataset(1);
  VehicleForecaster forecaster = TrainForecaster(ds);
  ASSERT_TRUE(pub.value().Add(1, forecaster).ok());

  // Staged but not committed: invisible to the registry.
  EXPECT_TRUE(registry.Get(1).status().IsNotFound());
  ASSERT_TRUE(pub.value().Commit(TestMeta()).ok());

  // Committed but not reloaded: this handle still serves the old fleet.
  EXPECT_EQ(registry.active_generation(), 0u);
  EXPECT_TRUE(registry.Get(1).status().IsNotFound());

  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.active_generation(), 1u);
  EXPECT_EQ(registry.ListVehicleIds(), (std::vector<int64_t>{1}));
  StatusOr<std::shared_ptr<const VehicleForecaster>> loaded =
      registry.Get(1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded.value()->PredictTarget(ds, ds.num_days()).value(),
                   forecaster.PredictTarget(ds, ds.num_days()).value());
  StatusOr<RegistryMeta> meta = registry.ReadMeta();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value(), TestMeta());
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.generation, 1u);
}

TEST_F(ModelRegistryGenerationTest, ReloadSwapsFleetButHeldModelsSurvive) {
  ModelRegistry registry = OpenRegistry(4);
  VehicleDataset ds_old = MakeDataset(1);
  VehicleDataset ds_new = MakeDataset(6);  // Different usage level.
  VehicleForecaster old_model = TrainForecaster(ds_old);
  VehicleForecaster new_model = TrainForecaster(ds_new);
  ASSERT_TRUE(PublishFleet(registry, {{1, &old_model}}, TestMeta(1)).ok());

  StatusOr<std::shared_ptr<const VehicleForecaster>> held =
      registry.Get(1);
  ASSERT_TRUE(held.ok());

  ASSERT_TRUE(PublishFleet(registry, {{1, &new_model}}, TestMeta(2)).ok());
  EXPECT_EQ(registry.active_generation(), 2u);
  EXPECT_EQ(registry.stats().reloads, 2u);
  EXPECT_EQ(registry.ReadMeta().value().fleet_seed, 2u);

  StatusOr<std::shared_ptr<const VehicleForecaster>> swapped =
      registry.Get(1);
  ASSERT_TRUE(swapped.ok());
  EXPECT_DOUBLE_EQ(
      swapped.value()->PredictTarget(ds_new, ds_new.num_days()).value(),
      new_model.PredictTarget(ds_new, ds_new.num_days()).value());
  // The shared_ptr from the outgoing generation keeps scoring.
  EXPECT_DOUBLE_EQ(
      held.value()->PredictTarget(ds_old, ds_old.num_days()).value(),
      old_model.PredictTarget(ds_old, ds_old.num_days()).value());
}

TEST_F(ModelRegistryGenerationTest, ReloadIsANoOpWhenCurrentUnchanged) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster model = TrainForecaster(MakeDataset(1));
  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}).ok());
  ASSERT_TRUE(registry.Get(1).ok());  // Now resident.
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.stats().reloads, 1u);        // Only the first swap.
  EXPECT_EQ(registry.resident_models(), 1u);       // Cache kept.
}

TEST_F(ModelRegistryGenerationTest, AbandonedPublisherLeavesNoTrace) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster model = TrainForecaster(MakeDataset(1));
  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}).ok());
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok());
    ASSERT_TRUE(
        pub.value().Add(2, TrainForecaster(MakeDataset(2))).ok());
    EXPECT_TRUE(std::filesystem::is_directory(pub.value().staging_dir()));
    // Destroyed without Commit.
  }
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.active_generation(), 1u);
  EXPECT_EQ(registry.ListVehicleIds(), (std::vector<int64_t>{1}));
  // No staging directory survives.
  for (const auto& entry :
       std::filesystem::directory_iterator(registry.directory())) {
    EXPECT_EQ(entry.path().filename().string().find(".staging"),
              std::string::npos)
        << entry.path();
  }
}

TEST_F(ModelRegistryGenerationTest, ReloadRejectsGarbageCurrent) {
  ModelRegistry registry = OpenRegistry(4);
  VehicleDataset ds = MakeDataset(1);
  const VehicleForecaster model = TrainForecaster(ds);
  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}).ok());

  // CURRENT pointing at a missing generation: Reload fails, the old
  // generation keeps serving.
  ASSERT_TRUE(FlipCurrent(registry.directory(), "gen_009999").ok());
  EXPECT_FALSE(registry.Reload().ok());
  EXPECT_EQ(registry.active_generation(), 1u);
  EXPECT_TRUE(registry.Get(1).ok());

  // CURRENT pointing at a path that is no generation name: same story.
  ASSERT_TRUE(FlipCurrent(registry.directory(), "../../../etc/passwd").ok());
  EXPECT_FALSE(registry.Reload().ok());
  EXPECT_EQ(registry.active_generation(), 1u);
}

TEST_F(ModelRegistryGenerationTest, ReloadRejectsTornGeneration) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster model = TrainForecaster(MakeDataset(1));
  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}).ok());

  // Simulate a publisher killed after creating the directory but before
  // the meta (the completeness marker) was written -- then a corrupted
  // CURRENT pointing at it.
  const std::string torn = registry.directory() + "/gen_000007";
  std::filesystem::create_directories(torn);
  {
    std::ofstream out(torn + "/vehicle_2.cfcst");
    out << "half a bundle";
  }
  ASSERT_TRUE(FlipCurrent(registry.directory(), "gen_000007").ok());
  Status reloaded = registry.Reload();
  EXPECT_FALSE(reloaded.ok());
  EXPECT_EQ(registry.active_generation(), 1u);
  EXPECT_EQ(registry.ListVehicleIds(), (std::vector<int64_t>{1}));
}

TEST_F(ModelRegistryGenerationTest, PruneKeepsActiveAndNewest) {
  ModelRegistry registry = OpenRegistry(4);
  for (uint64_t g = 1; g <= 3; ++g) {
    const auto id = static_cast<int64_t>(g);
    const VehicleForecaster model = TrainForecaster(MakeDataset(id));
    ASSERT_TRUE(PublishFleet(registry, {{id, &model}}, TestMeta(g)).ok());
  }
  ASSERT_EQ(registry.active_generation(), 3u);

  ASSERT_TRUE(registry.PruneGenerations(1).ok());
  EXPECT_FALSE(
      std::filesystem::exists(registry.directory() + "/gen_000001"));
  EXPECT_TRUE(
      std::filesystem::exists(registry.directory() + "/gen_000002"));
  EXPECT_TRUE(
      std::filesystem::exists(registry.directory() + "/gen_000003"));

  // gen_000002 is pinned: the rollback journal of the last promotion
  // names it as `previous`, and pruning the rollback target would turn
  // the journal into a loaded footgun. Even keep=0 spares it.
  ASSERT_TRUE(registry.PruneGenerations(0).ok());
  EXPECT_TRUE(
      std::filesystem::exists(registry.directory() + "/gen_000002"));
  EXPECT_TRUE(
      std::filesystem::exists(registry.directory() + "/gen_000003"));

  // Without a journal nothing is pinned: keep=0 deletes every non-active
  // generation, and the active one is still never pruned.
  std::filesystem::remove(registry.directory() + "/ROLLBACK");
  ASSERT_TRUE(registry.PruneGenerations(0).ok());
  EXPECT_FALSE(
      std::filesystem::exists(registry.directory() + "/gen_000002"));
  EXPECT_TRUE(
      std::filesystem::exists(registry.directory() + "/gen_000003"));
  EXPECT_TRUE(registry.Get(3).ok());
}

TEST_F(ModelRegistryGenerationTest, OpenResolvesCurrentGeneration) {
  {
    ModelRegistry registry = OpenRegistry(4);
    const VehicleForecaster model = TrainForecaster(MakeDataset(1));
    ASSERT_TRUE(PublishFleet(registry, {{1, &model}}).ok());
  }
  // A fresh handle on the same directory starts on the committed
  // generation.
  ModelRegistry reopened = OpenRegistry(4);
  EXPECT_EQ(reopened.active_generation(), 1u);
  EXPECT_EQ(reopened.ListVehicleIds(), (std::vector<int64_t>{1}));
}

// ---- Sealed generations ----------------------------------------------------

TEST_F(ModelRegistryGenerationTest, SwappedBundleWithoutManifestIsRefused) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleDataset ds = MakeDataset(2);
  const VehicleForecaster a = TrainForecaster(MakeDataset(1));
  const VehicleForecaster b = TrainForecaster(ds);
  ASSERT_TRUE(PublishFleet(registry, {{1, &a}, {2, &b}}, TestMeta(1)).ok());
  {
    ModelRegistry writer = OpenRegistry(4);
    ASSERT_TRUE(PublishFleet(writer, {{1, &a}, {2, &b}}, TestMeta(2)).ok());
  }
  // In the new generation, vehicle 1's valid bundle is copied over vehicle
  // 2's, and the MANIFEST that would catch the swap is deleted.
  const std::string gen = registry.directory() + "/gen_000002";
  std::filesystem::copy_file(
      gen + "/" + ModelRegistry::BundleFileName(1),
      gen + "/" + ModelRegistry::BundleFileName(2),
      std::filesystem::copy_options::overwrite_existing);
  ASSERT_TRUE(std::filesystem::remove(gen + "/" + kManifestFileName));

  // CURRENT names the unsealed generation: a fresh Open refuses it whole,
  // and a Reload keeps serving the old one.
  const StatusOr<ModelRegistry> opened = ModelRegistry::Open({dir_, 4});
  EXPECT_TRUE(opened.status().IsDataLoss()) << opened.status().ToString();
  const Status reloaded = registry.Reload();
  EXPECT_TRUE(reloaded.IsDataLoss()) << reloaded.ToString();
  EXPECT_EQ(registry.active_generation(), 1u);
  StatusOr<std::shared_ptr<const VehicleForecaster>> served = registry.Get(2);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_DOUBLE_EQ(served.value()->PredictTarget(ds, ds.num_days()).value(),
                   b.PredictTarget(ds, ds.num_days()).value());
  // Nor can a promotion or a rollback point CURRENT at it.
  EXPECT_TRUE(PromoteGeneration(dir_, "gen_000002").IsDataLoss());
  ASSERT_TRUE(PromoteGeneration(dir_, "gen_000001").ok());
  ASSERT_TRUE(
      WriteRollbackJournal(dir_, {"gen_000001", "gen_000002"}).ok());
  EXPECT_TRUE(RollbackGeneration(dir_).status().IsDataLoss());
}

TEST_F(ModelRegistryGenerationTest, StrayBundleIsNotPartOfTheGeneration) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster model = TrainForecaster(MakeDataset(1));
  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}).ok());
  // A valid bundle dropped into the sealed active generation under a name
  // its MANIFEST does not list.
  std::filesystem::copy_file(registry.BundlePath(1), registry.BundlePath(99));

  const Status status = registry.Get(99).status();
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_FALSE(registry.IsQuarantined(99));
  EXPECT_FALSE(registry.Contains(99));
  EXPECT_TRUE(registry.Contains(1));
  EXPECT_EQ(registry.ListVehicleIds(), (std::vector<int64_t>{1}));
  const ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.load_failures, 0u);
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_TRUE(registry.Get(1).ok());
}

TEST_F(ModelRegistryGenerationTest, RootWithoutCurrentServesOnlyItsManifest) {
  const VehicleForecaster model = TrainForecaster(MakeDataset(1));
  // No CURRENT and no MANIFEST: a bundle lying under the root is never
  // read.
  ASSERT_TRUE(std::filesystem::create_directories(dir_));
  {
    std::ofstream out(dir_ + "/" + ModelRegistry::BundleFileName(1),
                      std::ios::binary);
    out << model.SaveCompact().value();
  }
  ModelRegistry empty = OpenRegistry(4);
  EXPECT_EQ(empty.active_generation(), 0u);
  EXPECT_TRUE(empty.Get(1).status().IsNotFound());
  EXPECT_TRUE(empty.ListVehicleIds().empty());
  EXPECT_FALSE(empty.Contains(1));

  // A finalized generation opened as a root (the canary drill) serves
  // what its MANIFEST lists.
  StatusOr<GenerationPublisher> pub = empty.NewGeneration();
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  ASSERT_TRUE(pub.value().Add(1, model).ok());
  ASSERT_TRUE(pub.value().Finalize(TestMeta()).ok());
  StatusOr<ModelRegistry> staged =
      ModelRegistry::Open({pub.value().staging_dir(), 4});
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(staged.value().active_generation(), 0u);
  EXPECT_EQ(staged.value().ListVehicleIds(), (std::vector<int64_t>{1}));
  EXPECT_TRUE(staged.value().Get(1).ok());

  // A damaged root MANIFEST is refused whole.
  {
    std::ofstream out(pub.value().staging_dir() + "/" + kManifestFileName,
                      std::ios::trunc);
    out << "torn";
  }
  EXPECT_TRUE(ModelRegistry::Open({pub.value().staging_dir(), 4})
                  .status()
                  .IsDataLoss());
}

// ---- Write-behind staging ------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string SaveBundle(const VehicleForecaster& forecaster) {
  StatusOr<std::string> bytes = forecaster.SaveCompact();
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

/// True when no `*.staging` directory is left under `root`.
bool NoStagingLeft(const std::string& root) {
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.path().extension() == ".staging") return false;
  }
  return true;
}

TEST_F(ModelRegistryGenerationTest, AddSnapshotsTheForecaster) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleDataset ds = MakeDataset(3);
  auto forecaster =
      std::make_unique<VehicleForecaster>(TrainForecaster(ds));
  const std::string bundle = SaveBundle(*forecaster);

  StatusOr<GenerationPublisher> pub = registry.NewGeneration();
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE(pub.value().Add(3, *forecaster).ok());
  // Retrain on another span, then destroy: the staged bundle is the one
  // trained when Add was called.
  ASSERT_TRUE(forecaster->Train(ds, 40, 210).ok());
  ASSERT_NE(SaveBundle(*forecaster), bundle);
  forecaster.reset();
  ASSERT_TRUE(pub.value().Commit(TestMeta()).ok());

  const std::string gen = pub.value().staging_dir();
  EXPECT_EQ(ReadFile(gen + "/" + ModelRegistry::BundleFileName(3)), bundle);
}

TEST_F(ModelRegistryGenerationTest, ServedModelPublishesItsBundleAgain) {
  // A model served from one generation carries into the next one byte for
  // byte, with no retraining: the restored forecaster re-encodes from the
  // bundle it was read from.
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(4));
  ASSERT_TRUE(PublishFleet(registry, {{4, &forecaster}}).ok());
  const std::string bundle =
      ReadFile(registry.directory() + "/gen_000001/" +
               ModelRegistry::BundleFileName(4));
  StatusOr<std::shared_ptr<const VehicleForecaster>> served = registry.Get(4);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  StatusOr<GenerationPublisher> pub = registry.NewGeneration();
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE(pub.value().Add(4, *served.value()).ok());
  ASSERT_TRUE(pub.value().Add(5, *served.value()).ok());
  ASSERT_TRUE(pub.value().Commit(TestMeta()).ok());
  const std::string gen = pub.value().staging_dir();
  EXPECT_EQ(ReadFile(gen + "/" + ModelRegistry::BundleFileName(4)), bundle);
  EXPECT_EQ(ReadFile(gen + "/" + ModelRegistry::BundleFileName(5)), bundle);
}

TEST_F(ModelRegistryGenerationTest, GenerationHoldsOnlyCompactBundles) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(2));
  ASSERT_TRUE(PublishFleet(registry, {{2, &forecaster}}).ok());
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           registry.directory() + "/gen_000001")) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"MANIFEST", "registry_meta.txt",
                                             "vehicle_2.cfcst"}));
  EXPECT_EQ(ModelRegistry::BundleFileName(2), "vehicle_2.cfcst");
  EXPECT_EQ(ModelRegistry::ParseBundleFileName("vehicle_2.cfcst"),
            std::optional<int64_t>(2));
  // Text bundles of generations published before compact-only ones are
  // not bundles of this registry.
  EXPECT_EQ(ModelRegistry::ParseBundleFileName("vehicle_2.fcst"),
            std::nullopt);
}

TEST_F(ModelRegistryGenerationTest, VersionOneBundleIsQuarantinedNotScored) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster model = TrainForecaster(MakeDataset(2));
  ASSERT_TRUE(PublishFleet(registry, {{2, &model}}).ok());
  // Rewrite the bundle as a generation published with `vupc v1` would
  // hold it: version 1, a valid CRC, and a MANIFEST that vouches for it.
  const std::string gen = registry.directory() + "/gen_000001";
  const std::string path = gen + "/" + ModelRegistry::BundleFileName(2);
  std::string bytes = ReadFile(path);
  bytes[4] = 1;
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
  }
  ASSERT_TRUE(WriteManifestFile(
                  gen, GenerationManifest::BuildFromDirectory(gen, {}).value())
                  .ok());
  ModelRegistry reopened = OpenRegistry(4);
  const Status status = reopened.Get(2).status();
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_NE(status.message().find("re-publish"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(reopened.IsQuarantined(2));
  EXPECT_EQ(reopened.stats().load_failures, 0u);
}

TEST_F(ModelRegistryGenerationTest, LaterStagingOfAnIdWins) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster a = TrainForecaster(MakeDataset(1));
  const VehicleForecaster b = TrainForecaster(MakeDataset(2));
  StatusOr<GenerationPublisher> pub = registry.NewGeneration();
  ASSERT_TRUE(pub.ok());
  GenerationPublisher& publisher = pub.value();
  auto staged = [&](int64_t id) {
    return ReadFile(publisher.staging_dir() + "/" +
                    ModelRegistry::BundleFileName(id));
  };

  // Add then Add: the last forecaster's bundle. Alternating a few times
  // gives two queued writes of one id every chance to race.
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(publisher.Add(1, a).ok());
    ASSERT_TRUE(publisher.Add(1, b).ok());
  }
  EXPECT_EQ(staged(1), SaveBundle(b));

  // Add then AddPrebuilt: the prebuilt bytes, with the Add still queued.
  ASSERT_TRUE(publisher.Add(2, a).ok());
  ASSERT_TRUE(publisher.AddPrebuilt(2, {}, "prebuilt bytes").ok());
  EXPECT_EQ(staged(2), "prebuilt bytes");

  // AddPrebuilt then Add: the forecaster's bundle.
  ASSERT_TRUE(publisher.AddPrebuilt(3, {}, "prebuilt bytes").ok());
  ASSERT_TRUE(publisher.Add(3, b).ok());
  EXPECT_EQ(staged(3), SaveBundle(b));

  // The text argument is ignored: compact bytes are required.
  EXPECT_TRUE(
      publisher.AddPrebuilt(4, "text bytes").IsInvalidArgument());
}

TEST_F(ModelRegistryGenerationTest, StagingDirWaitsForQueuedWrites) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleDataset ds = MakeDataset(4);
  const VehicleForecaster forecaster = TrainForecaster(ds);
  StatusOr<GenerationPublisher> pub = registry.NewGeneration();
  ASSERT_TRUE(pub.ok());
  constexpr int64_t kBundles = 24;
  for (int64_t id = 1; id <= kBundles; ++id) {
    ASSERT_TRUE(pub.value().Add(id, forecaster).ok());
  }
  // Every queued bundle is on disk, whole, once staging_dir() returns.
  const std::string staging = pub.value().staging_dir();
  const std::string bundle = forecaster.SaveCompact().value();
  for (int64_t id = 1; id <= kBundles; ++id) {
    EXPECT_EQ(ReadFile(staging + "/" + ModelRegistry::BundleFileName(id)),
              bundle)
        << "vehicle " << id;
  }
}

TEST_F(ModelRegistryGenerationTest, WriterFailureFailsFinalize) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(5));
  ASSERT_TRUE(PublishFleet(registry, {{1, &forecaster}}).ok());
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok());
    // A directory squatting on the bundle's name makes the writer's open
    // fail whatever the process's privileges.
    ASSERT_TRUE(std::filesystem::create_directory(
        pub.value().staging_dir() + "/" + ModelRegistry::BundleFileName(5)));
    ASSERT_TRUE(pub.value().Add(5, forecaster).ok());  // Errors come later.
    const Status finalized = pub.value().Finalize(TestMeta());
    EXPECT_FALSE(finalized.ok());
    EXPECT_NE(finalized.message().find("cannot open bundle for writing"),
              std::string::npos)
        << finalized.ToString();
    // The error is sticky: the generation can never be finalized.
    EXPECT_FALSE(pub.value().Commit(TestMeta()).ok());
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(registry.directory())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("gen_", 0) == 0) {
      EXPECT_EQ(name, "gen_000001");
    }
  }
  EXPECT_EQ(
      std::filesystem::read_symlink(registry.directory() + "/CURRENT"),
      "gen_000001");
  EXPECT_TRUE(NoStagingLeft(registry.directory()));
}

TEST_F(ModelRegistryGenerationTest, AbandonedPublisherWithQueuedWrites) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(6));
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok());
    for (int64_t id = 1; id <= 32; ++id) {
      ASSERT_TRUE(pub.value().Add(id, forecaster).ok());
    }
    // Destroyed with writes still queued, without staging_dir().
  }
  EXPECT_TRUE(NoStagingLeft(registry.directory()));
}

TEST_F(ModelRegistryGenerationTest, SharedWritersKeepEachPublishersErrors) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(7));
  // Both publishers queue on the registry's one writer pool. Reserved one
  // after the other, so their staging directories differ.
  StatusOr<GenerationPublisher> failing = registry.NewGeneration();
  StatusOr<GenerationPublisher> healthy = registry.NewGeneration();
  ASSERT_TRUE(failing.ok()) << failing.status().ToString();
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_NE(failing.value().number(), healthy.value().number());
  ASSERT_TRUE(BreakBundle(failing.value().staging_dir() + "/" +
                          ModelRegistry::BundleFileName(5))
                  .ok());

  // The healthy publisher commits only after the failing one's Finalize
  // has seen its failed write, so an error kept per pool, not per
  // publisher, would fail the healthy Commit too.
  constexpr int64_t kBundles = 16;
  Status finalized, committed;
  std::promise<void> failed;
  std::thread failing_thread([&] {
    for (int64_t id = 1; id <= kBundles; ++id) {
      EXPECT_TRUE(failing.value().Add(id, forecaster).ok());
    }
    finalized = failing.value().Finalize(TestMeta(1));
    failed.set_value();
  });
  std::thread healthy_thread([&] {
    for (int64_t id = 101; id <= 100 + kBundles; ++id) {
      EXPECT_TRUE(healthy.value().Add(id, forecaster).ok());
    }
    failed.get_future().wait();
    committed = healthy.value().Commit(TestMeta(2));
  });
  failing_thread.join();
  healthy_thread.join();

  // The failed write is the failing publisher's alone.
  EXPECT_FALSE(finalized.ok());
  EXPECT_NE(finalized.message().find("cannot open bundle for writing"),
            std::string::npos)
      << finalized.ToString();
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  EXPECT_EQ(
      std::filesystem::read_symlink(registry.directory() + "/CURRENT"),
      ModelRegistry::GenerationDirName(healthy.value().number()));
  ASSERT_TRUE(registry.Reload().ok());
  std::vector<int64_t> expected;
  for (int64_t id = 101; id <= 100 + kBundles; ++id) expected.push_back(id);
  EXPECT_EQ(registry.ListVehicleIds(), expected);
  for (int64_t id : expected) {
    EXPECT_TRUE(registry.Get(id).ok()) << "vehicle " << id;
  }
  EXPECT_EQ(registry.stats().quarantines, 0u);
}

TEST_F(ModelRegistryGenerationTest, RacingPublishersReserveDistinctNumbers) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(7));
  // Each round, two publishers start together from one maximum. Both must
  // commit, under distinct numbers, each holding only its own bundle; a
  // shared number would let one staging directory take both bundles, or
  // the second reservation delete the first's.
  for (int round = 0; round < 200; ++round) {
    std::latch start(2);
    std::optional<GenerationPublisher> publishers[2];
    Status statuses[2];
    auto publish = [&](int t) {
      start.arrive_and_wait();
      StatusOr<GenerationPublisher> pub = registry.NewGeneration();
      if (!pub.ok()) {
        statuses[t] = pub.status();
        return;
      }
      statuses[t] = pub.value().Add(2 * round + t + 1, forecaster);
      if (statuses[t].ok()) statuses[t] = pub.value().Finalize(TestMeta(t));
      publishers[t].emplace(std::move(pub.value()));
    };
    std::thread first(publish, 0);
    std::thread second(publish, 1);
    first.join();
    second.join();
    for (int t = 0; t < 2; ++t) {
      ASSERT_TRUE(statuses[t].ok())
          << "round " << round << ": " << statuses[t].ToString();
    }
    ASSERT_NE(publishers[0]->number(), publishers[1]->number())
        << "round " << round;
    for (int t = 0; t < 2; ++t) {
      ASSERT_TRUE(publishers[t]->Promote().ok()) << "round " << round;
      StatusOr<GenerationManifest> manifest =
          ReadManifestFile(publishers[t]->staging_dir());
      ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
      std::vector<std::string> files;
      for (const ManifestEntry& entry : manifest.value().entries()) {
        files.push_back(entry.file);
      }
      std::sort(files.begin(), files.end());
      EXPECT_EQ(files,
                (std::vector<std::string>{
                    "registry_meta.txt",
                    ModelRegistry::BundleFileName(2 * round + t + 1)}))
          << "round " << round;
    }
    ASSERT_TRUE(registry.PruneGenerations(0).ok());
  }
  EXPECT_TRUE(NoStagingLeft(registry.directory()));
}

TEST_F(ModelRegistryGenerationTest, RacingPublishersPromoteConsistently) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(7));
  // Each round, two finalized generations are promoted together. Both
  // promotes must succeed, and the journal must name the generation CURRENT
  // ends on: two flips sharing a temp link would fail, or leave the journal
  // on one generation and CURRENT on the other.
  for (int round = 0; round < 200; ++round) {
    std::optional<GenerationPublisher> publishers[2];
    for (int t = 0; t < 2; ++t) {
      StatusOr<GenerationPublisher> pub = registry.NewGeneration();
      ASSERT_TRUE(pub.ok()) << pub.status().ToString();
      ASSERT_TRUE(pub.value().Add(2 * round + t + 1, forecaster).ok());
      ASSERT_TRUE(pub.value().Finalize(TestMeta(t)).ok());
      publishers[t].emplace(std::move(pub.value()));
    }
    std::latch start(2);
    Status statuses[2];
    auto promote = [&](int t) {
      start.arrive_and_wait();
      statuses[t] = publishers[t]->Promote();
    };
    std::thread first(promote, 0);
    std::thread second(promote, 1);
    first.join();
    second.join();
    for (int t = 0; t < 2; ++t) {
      ASSERT_TRUE(statuses[t].ok())
          << "round " << round << ": " << statuses[t].ToString();
    }
    StatusOr<std::string> current = ReadCurrentPointer(registry.directory());
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    StatusOr<RollbackJournal> journal =
        ReadRollbackJournal(registry.directory());
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_EQ(journal.value().promoted, current.value()) << "round " << round;
    ASSERT_TRUE(registry.PruneGenerations(0).ok());
  }
}

// ---- Sealed manifests -----------------------------------------------------

/// The MANIFEST a committed generation holds and the one a full read-back
/// of its directory builds: Finalize's seal must not tell them apart.
void ExpectSealedMatchesScan(const std::string& gen) {
  StatusOr<GenerationManifest> scanned =
      GenerationManifest::BuildFromDirectory(gen, {});
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(ReadFile(gen + "/" + kManifestFileName),
            scanned.value().Serialize())
      << gen;
}

/// `bundle` with one payload byte changed and re-framed: a valid file of
/// the same size that another trailer seals.
std::string SameSizeOther(const std::string& bundle) {
  std::string body = Unframed(bundle);
  body[body.size() / 2] ^= 0x5A;
  return Framed(std::move(body));
}

class PublisherSealTest : public ModelRegistryGenerationTest {
 protected:
  void SetUp() override {
    ModelRegistryGenerationTest::SetUp();
    a_ = std::make_unique<VehicleForecaster>(TrainForecaster(MakeDataset(1)));
    bundle_ = SaveBundle(*a_);
    other_ = SameSizeOther(bundle_);
  }

  /// The staging directory of `pub`, named from the registry root so the
  /// publisher never hands it out.
  std::string StagingPath(const ModelRegistry& registry,
                          const GenerationPublisher& pub) {
    return registry.directory() + "/" +
           ModelRegistry::GenerationDirName(pub.number()) + ".staging";
  }

  std::unique_ptr<VehicleForecaster> a_;
  std::string bundle_;  // a_'s compact bundle.
  std::string other_;   // Same size, another trailer.
};

TEST_F(PublisherSealTest, SealedManifestMatchesDirectoryScan) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster b = TrainForecaster(MakeDataset(2));
  const std::vector<
      std::pair<const char*, std::function<void(GenerationPublisher&)>>>
      stagings = {
          {"Add only",
           [&](GenerationPublisher& p) {
             for (int64_t id = 1; id <= 12; ++id) {
               ASSERT_TRUE(p.Add(id, id % 2 == 0 ? *a_ : b).ok());
             }
           }},
          {"AddPrebuilt only",
           [&](GenerationPublisher& p) {
             for (int64_t id = 1; id <= 12; ++id) {
               ASSERT_TRUE(
                   p.AddPrebuilt(id, {}, id % 2 == 0 ? bundle_ : other_).ok());
             }
           }},
          {"mixed",
           [&](GenerationPublisher& p) {
             for (int64_t id = 1; id <= 12; ++id) {
               ASSERT_TRUE(id % 3 == 0 ? p.AddPrebuilt(id, {}, other_).ok()
                                       : p.Add(id, *a_).ok());
             }
             // Add, then AddPrebuilt of the same id at the same size.
             ASSERT_TRUE(p.Add(13, *a_).ok());
             ASSERT_TRUE(p.AddPrebuilt(13, {}, other_).ok());
           }},
          {"re-staged id",
           [&](GenerationPublisher& p) {
             // Add -> AddPrebuilt -> Add: each write at the same size as
             // the one it replaces, so a stale entry would be taken.
             ASSERT_TRUE(p.Add(5, *a_).ok());
             ASSERT_TRUE(p.AddPrebuilt(5, {}, other_).ok());
             ASSERT_TRUE(p.Add(5, *a_).ok());
           }},
          {"moved publisher",
           [&](GenerationPublisher& p) {
             ASSERT_TRUE(p.Add(1, *a_).ok());  // Queued, then moved.
             GenerationPublisher moved(std::move(p));
             ASSERT_TRUE(moved.AddPrebuilt(2, {}, other_).ok());
             p = std::move(moved);
           }},
      };
  for (const auto& [name, stage] : stagings) {
    SCOPED_TRACE(name);
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    stage(pub.value());
    ASSERT_TRUE(pub.value().Commit(TestMeta()).ok());
    ExpectSealedMatchesScan(pub.value().staging_dir());
  }
  // The re-staged id holds the last Add's bundle, as the MANIFEST says.
  EXPECT_EQ(ReadFile(registry.directory() + "/gen_000004/" +
                     ModelRegistry::BundleFileName(5)),
            bundle_);
}

TEST_F(PublisherSealTest, RecordedBundleThatChangedSizeIsRefused) {
  ModelRegistry registry = OpenRegistry(4);
  ASSERT_TRUE(PublishFleet(registry, {{1, a_.get()}}).ok());
  const std::vector<std::pair<const char*, std::function<std::string(
                                               const std::string&)>>>
      damages = {
          {"truncated",
           [](const std::string& bytes) {
             return bytes.substr(0, bytes.size() - 1);
           }},
          {"extended", [](const std::string& bytes) { return bytes + "x"; }},
      };
  for (const auto& [how, damage] : damages) {
    // Vehicle 1 is written by the Add writer, vehicle 2 by AddPrebuilt.
    for (int64_t victim : {1, 2}) {
      SCOPED_TRACE(std::string(how) + " vehicle " + std::to_string(victim));
      StatusOr<GenerationPublisher> pub = registry.NewGeneration();
      ASSERT_TRUE(pub.ok());
      ASSERT_TRUE(pub.value().Add(1, *a_).ok());
      ASSERT_TRUE(pub.value().Add(2, *a_).ok());
      // Replacing a queued id drains the writers: vehicle 1 is on disk.
      ASSERT_TRUE(pub.value().AddPrebuilt(2, {}, other_).ok());
      const std::string path = StagingPath(registry, pub.value()) + "/" +
                               ModelRegistry::BundleFileName(victim);
      const std::string written = ReadFile(path);
      ASSERT_EQ(written, victim == 1 ? bundle_ : other_);
      {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << damage(written);
      }
      const Status finalized = pub.value().Finalize(TestMeta());
      EXPECT_TRUE(finalized.IsDataLoss()) << finalized.ToString();
    }
  }
  EXPECT_EQ(
      std::filesystem::read_symlink(registry.directory() + "/CURRENT"),
      "gen_000001");
  EXPECT_TRUE(NoStagingLeft(registry.directory()));
}

TEST_F(PublisherSealTest, FailedWriteLeavesTheFileToTheReadBack) {
  ModelRegistry registry = OpenRegistry(4);
  StatusOr<GenerationPublisher> pub = registry.NewGeneration();
  ASSERT_TRUE(pub.ok());
  const std::string staging = StagingPath(registry, pub.value());
  ASSERT_TRUE(pub.value().AddPrebuilt(1, {}, bundle_).ok());
  // With the staging directory moved away the second write cannot open
  // its file; the first write's bytes stay, at the size of the second's.
  std::filesystem::rename(staging, staging + ".away");
  EXPECT_FALSE(pub.value().AddPrebuilt(1, {}, other_).ok());
  std::filesystem::rename(staging + ".away", staging);
  ASSERT_TRUE(pub.value().Commit(TestMeta()).ok());
  const std::string gen = pub.value().staging_dir();
  ExpectSealedMatchesScan(gen);
  EXPECT_EQ(ReadFile(gen + "/" + ModelRegistry::BundleFileName(1)), bundle_);
}

TEST_F(PublisherSealTest, HandedOutStagingDirIsReadBackInFull) {
  ModelRegistry registry = OpenRegistry(4);
  const std::string unframed = Unframed(other_) + "abcd";
  ASSERT_EQ(unframed.size(), bundle_.size());
  // A recorded bundle rewritten at its size: unframed bytes are refused,
  // framed ones are listed as they now are.
  for (bool framed : {false, true}) {
    SCOPED_TRACE(framed ? "framed" : "unframed");
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok());
    ASSERT_TRUE(pub.value().Add(1, *a_).ok());
    ASSERT_TRUE(pub.value().AddPrebuilt(2, {}, bundle_).ok());
    for (int64_t id : {1, 2}) {
      std::ofstream out(pub.value().staging_dir() + "/" +
                            ModelRegistry::BundleFileName(id),
                        std::ios::trunc | std::ios::binary);
      out << (framed ? other_ : unframed);
    }
    const Status finalized = pub.value().Finalize(TestMeta());
    if (framed) {
      ASSERT_TRUE(finalized.ok()) << finalized.ToString();
      ExpectSealedMatchesScan(pub.value().staging_dir());
    } else {
      EXPECT_TRUE(finalized.IsDataLoss()) << finalized.ToString();
    }
  }
  // An unframed file of the caller's is refused.
  StatusOr<GenerationPublisher> pub = registry.NewGeneration();
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE(pub.value().Add(1, *a_).ok());
  {
    std::ofstream out(pub.value().staging_dir() + "/extra.meta",
                      std::ios::binary);
    out << "unframed";
  }
  EXPECT_TRUE(pub.value().Finalize(TestMeta()).IsDataLoss());
}

// ---- Publisher moves -----------------------------------------------------

TEST_F(ModelRegistryGenerationTest, MoveConstructionCarriesQueuedWrites) {
  ModelRegistry registry = OpenRegistry(4);
  StatusOr<GenerationPublisher> pub = registry.NewGeneration();
  ASSERT_TRUE(pub.ok());
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(1));
  ASSERT_TRUE(pub.value().Add(1, forecaster).ok());  // Queued, then moved.
  GenerationPublisher moved(std::move(pub.value()));
  ASSERT_TRUE(moved.Add(2, forecaster).ok());
  ASSERT_TRUE(moved.Commit(TestMeta()).ok());
  for (int64_t id : {1, 2}) {
    EXPECT_TRUE(std::filesystem::exists(
        moved.staging_dir() + "/" + ModelRegistry::BundleFileName(id)))
        << "vehicle " << id;
  }
}

TEST_F(ModelRegistryGenerationTest, MoveAssignmentReleasesTheTarget) {
  ModelRegistry registry = OpenRegistry(4);
  const VehicleForecaster forecaster = TrainForecaster(MakeDataset(1));
  StatusOr<GenerationPublisher> target = registry.NewGeneration();
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(target.value().Add(7, forecaster).ok());
  const std::string abandoned = target.value().staging_dir();
  StatusOr<GenerationPublisher> source = registry.NewGeneration();
  ASSERT_TRUE(source.ok());
  const std::string kept = source.value().staging_dir();
  target.value() = std::move(source.value());
  // The target's unfinalized staging is gone, as its destructor would
  // have left it; the source's is now the target's.
  EXPECT_FALSE(std::filesystem::exists(abandoned));
  EXPECT_EQ(target.value().staging_dir(), kept);
  EXPECT_TRUE(std::filesystem::is_directory(kept));
  ASSERT_TRUE(target.value().Add(8, forecaster).ok());
  ASSERT_TRUE(target.value().Commit(TestMeta()).ok());
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.ListVehicleIds(), (std::vector<int64_t>{8}));
}

}  // namespace
}  // namespace vup::serve
