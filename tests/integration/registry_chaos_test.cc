// Crash-consistency and hot-swap chaos tests for the generation-based
// model registry: a publisher killed at ANY point of the commit sequence
// must leave CURRENT on the old, complete generation, and concurrent
// readers racing a reload loop must only ever observe complete fleets --
// old or new, never a mix of the two, never a torn bundle.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/forecaster.h"
#include "serve/manifest.h"
#include "serve/model_registry.h"
#include "testing/registry.h"

namespace vup::serve {
namespace {

namespace fs = std::filesystem;

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

/// Weekly-pattern dataset whose level depends on `level_key`, so the two
/// generations train to observably different models.
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

RegistryMeta TestMeta(uint64_t seed) {
  RegistryMeta meta;
  meta.fleet_seed = seed;
  meta.fleet_vehicles = 40;
  meta.algorithm = "Lasso";
  return meta;
}

class RegistryChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_chaos_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ModelRegistry OpenRegistry(size_t capacity) {
    StatusOr<ModelRegistry> registry =
        ModelRegistry::Open({dir_, capacity});
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  std::string dir_;
};

TEST_F(RegistryChaosTest, PublisherKilledAtEveryStepKeepsOldGeneration) {
  ModelRegistry registry = OpenRegistry(4);
  VehicleDataset ds = MakeDataset(1);
  VehicleForecaster old_model = TrainForecaster(ds);
  VehicleForecaster new_model = TrainForecaster(MakeDataset(6));
  VehicleForecaster second_model = TrainForecaster(MakeDataset(2));
  ASSERT_TRUE(PublishFleet(registry, {{1, &old_model}, {2, &second_model}},
                           TestMeta(1))
                  .ok());
  ASSERT_EQ(registry.active_generation(), 1u);
  const double old_prediction =
      old_model.PredictTarget(ds, ds.num_days()).value();

  // The commit sequence is: write bundles into staging -> write meta ->
  // write MANIFEST -> rename staging to gen_N -> flip CURRENT. Simulate a
  // publisher killed after each step and verify a fresh Open and a Reload
  // both stay on the complete old generation.
  const auto check_still_old = [&](const std::string& kill_point) {
    ASSERT_TRUE(registry.Reload().ok()) << kill_point;
    EXPECT_EQ(registry.active_generation(), 1u) << kill_point;
    StatusOr<ModelRegistry> fresh = ModelRegistry::Open({dir_, 4});
    ASSERT_TRUE(fresh.ok()) << kill_point << ": "
                            << fresh.status().ToString();
    EXPECT_EQ(fresh.value().active_generation(), 1u) << kill_point;
    StatusOr<std::shared_ptr<const VehicleForecaster>> loaded =
        fresh.value().Get(1);
    ASSERT_TRUE(loaded.ok()) << kill_point;
    EXPECT_DOUBLE_EQ(
        loaded.value()->PredictTarget(ds, ds.num_days()).value(),
        old_prediction)
        << kill_point;
  };

  // Kill point 1: bundles staged, no meta yet, no rename.
  const std::string staging = dir_ + "/gen_000002.staging";
  fs::create_directories(staging);
  {
    std::ofstream out(staging + "/vehicle_1.cfcst", std::ios::binary);
    out << new_model.SaveCompact().value();
  }
  check_still_old("staged-without-meta");

  // Kill point 2: meta written, staging never renamed.
  ASSERT_TRUE(WriteRegistryMetaFile(staging, TestMeta(2)).ok());
  check_still_old("staged-with-meta");

  // Kill point 2b: CURRENT flipped to the generation before its MANIFEST
  // step. The unsealed generation is refused whole: Reload keeps the old
  // one, and a fresh Open fails rather than serve it.
  fs::rename(staging, dir_ + "/gen_000002");
  ASSERT_TRUE(FlipCurrent(dir_, "gen_000002").ok());
  EXPECT_TRUE(registry.Reload().IsDataLoss());
  EXPECT_EQ(registry.active_generation(), 1u);
  StatusOr<std::shared_ptr<const VehicleForecaster>> still = registry.Get(1);
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_DOUBLE_EQ(still.value()->PredictTarget(ds, ds.num_days()).value(),
                   old_prediction);
  EXPECT_TRUE(ModelRegistry::Open({dir_, 4}).status().IsDataLoss());
  ASSERT_TRUE(FlipCurrent(dir_, "gen_000001").ok());
  fs::rename(dir_ + "/gen_000002", staging);

  // The MANIFEST step, as Finalize takes it, before the rename.
  ASSERT_TRUE(WriteManifestFile(
                  staging,
                  GenerationManifest::BuildFromDirectory(staging, {}).value())
                  .ok());

  // Kill point 3: staging renamed to its final name, CURRENT not flipped.
  fs::rename(staging, dir_ + "/gen_000002");
  check_still_old("renamed-not-flipped");

  // Kill point 4: CURRENT temp link made, rename never happened.
  fs::create_symlink("gen_000002", dir_ + "/CURRENT.tmp");
  check_still_old("current-tmp-only");

  // And the flip itself is the commit: once CURRENT moves, Reload swaps.
  ASSERT_TRUE(FlipCurrent(dir_, "gen_000002").ok());
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.active_generation(), 2u);
}

TEST_F(RegistryChaosTest, AbandonedStagingDoesNotBlockTheNextPublish) {
  ModelRegistry registry = OpenRegistry(4);
  VehicleForecaster model = TrainForecaster(MakeDataset(1));
  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}, TestMeta(1)).ok());

  // A "killed" publisher left a stale staging directory behind. The next
  // publisher must still commit, under a number that never collides.
  fs::create_directories(dir_ + "/gen_000002.staging");
  {
    std::ofstream out(dir_ + "/gen_000002.staging/vehicle_1.cfcst");
    out << "partial garbage";
  }
  ASSERT_TRUE(PublishFleet(registry, {{1, &model}}, TestMeta(2)).ok());
  EXPECT_GE(registry.active_generation(), 2u);
  EXPECT_TRUE(registry.Get(1).ok());
}

TEST_F(RegistryChaosTest, ConcurrentReadersNeverSeeATornFleet) {
  ModelRegistry registry = OpenRegistry(/*capacity=*/1);

  // Two complete fleets for vehicles {1, 2} with distinguishable models,
  // scored against fixed dataset windows so every prediction a reader can
  // legally observe is one of exactly two values per vehicle.
  std::vector<VehicleDataset> datasets;
  datasets.push_back(MakeDataset(1));
  datasets.push_back(MakeDataset(2));
  std::vector<VehicleForecaster> fleet_a;
  fleet_a.push_back(TrainForecaster(MakeDataset(1)));
  fleet_a.push_back(TrainForecaster(MakeDataset(2)));
  std::vector<VehicleForecaster> fleet_b;
  fleet_b.push_back(TrainForecaster(MakeDataset(5)));
  fleet_b.push_back(TrainForecaster(MakeDataset(6)));
  ASSERT_TRUE(
      PublishFleet(registry, {{1, &fleet_a[0]}, {2, &fleet_a[1]}}, TestMeta(1))
          .ok());
  const std::string gen_a =
      ModelRegistry::GenerationDirName(registry.active_generation());
  ASSERT_TRUE(
      PublishFleet(registry, {{1, &fleet_b[0]}, {2, &fleet_b[1]}}, TestMeta(2))
          .ok());
  const std::string gen_b =
      ModelRegistry::GenerationDirName(registry.active_generation());

  double pred_a[2], pred_b[2];
  for (size_t v = 0; v < 2; ++v) {
    const VehicleDataset& ds = datasets[v];
    pred_a[v] = fleet_a[v].PredictTarget(ds, ds.num_days()).value();
    pred_b[v] = fleet_b[v].PredictTarget(ds, ds.num_days()).value();
    ASSERT_NE(pred_a[v], pred_b[v]) << "fleets must be distinguishable";
  }

  // A torn generation a buggy flip might point at: bundle, no meta.
  fs::create_directories(dir_ + "/gen_000099");
  {
    std::ofstream out(dir_ + "/gen_000099/vehicle_1.cfcst");
    out << "torn";
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> torn_observations{0};
  std::atomic<size_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (size_t v = 0; v < 2; ++v) {
          StatusOr<std::shared_ptr<const VehicleForecaster>> model =
              registry.Get(static_cast<int64_t>(v + 1));
          if (!model.ok()) {
            // Generations are immutable and complete: a load can never
            // fail, whatever the swap loop is doing.
            torn_observations.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const VehicleDataset& ds = datasets[v];
          const double prediction =
              model.value()->PredictTarget(ds, ds.num_days()).value();
          if (prediction != pred_a[v] && prediction != pred_b[v]) {
            torn_observations.fetch_add(1, std::memory_order_relaxed);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
        // The id listing must always be the complete fleet.
        if (registry.ListVehicleIds() !=
            (std::vector<int64_t>{1, 2})) {
          torn_observations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The swap loop: flip CURRENT between the two complete generations and
  // (sometimes) the torn one, reloading after each flip. Reload must swap
  // for complete targets and keep the old fleet for the torn one.
  Rng rng(7);
  size_t failed_reloads = 0;
  for (int flip = 0; flip < 120; ++flip) {
    const int64_t pick = rng.UniformInt(0, 3);
    if (pick == 3) {
      EXPECT_TRUE(FlipCurrent(dir_, "gen_000099").ok());
      Status reloaded = registry.Reload();
      EXPECT_FALSE(reloaded.ok()) << "torn generation accepted";
      ++failed_reloads;
      // Point CURRENT back at a real fleet so the next flip is clean.
      EXPECT_TRUE(FlipCurrent(dir_, pick % 2 == 0 ? gen_a : gen_b).ok());
    } else {
      EXPECT_TRUE(FlipCurrent(dir_, pick % 2 == 0 ? gen_a : gen_b).ok());
      EXPECT_TRUE(registry.Reload().ok());
    }
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn_observations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(failed_reloads, 0u) << "chaos never exercised the torn path";
}

TEST_F(RegistryChaosTest, BundleTruncatedUnderAResidentModelKeepsServing) {
  // A resident model scores from the bundle bytes it read and owns, so a
  // bundle truncated on disk afterwards cannot reach it: the model keeps
  // predicting the same bits for as long as it stays resident.
  ModelRegistry registry = OpenRegistry(4);
  const VehicleDataset ds = MakeDataset(3);
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kSvr;
  cfg.windowing.lookback_w = 28;
  cfg.selection.top_k = 14;
  VehicleForecaster svr(cfg);
  ASSERT_TRUE(svr.Train(ds, 30, 200).ok());
  ASSERT_TRUE(PublishFleet(registry, {{1, &svr}}, TestMeta(1)).ok());

  const std::string path = registry.BundlePath(1);
  ASSERT_GE(fs::file_size(path), 3u * 4096u) << "bundle spans < 3 pages";
  StatusOr<std::shared_ptr<const VehicleForecaster>> model = registry.Get(1);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::vector<double> before;
  for (size_t t = 200; t < 215; ++t) {
    StatusOr<double> p = model.value()->PredictTarget(ds, t);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    before.push_back(p.value());
  }

  fs::resize_file(path, 100);
  for (size_t t = 200; t < 215; ++t) {
    StatusOr<double> p = model.value()->PredictTarget(ds, t);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ(std::memcmp(&p.value(), &before[t - 200], sizeof(double)), 0)
        << "target " << t;
  }
  // The cached model still serves: nothing re-reads a resident bundle.
  ASSERT_TRUE(registry.Get(1).ok());
}

}  // namespace
}  // namespace vup::serve
