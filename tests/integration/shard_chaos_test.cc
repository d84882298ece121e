// Shard-concurrency chaos: readers hammering Get across every shard of a
// sharded registry while a publisher thread commits new generations,
// reloads, trips quarantines and reads stats concurrently. Any torn fleet,
// lost counter or lock-order bug shows up here (the suite also runs under
// TSan, where the multi-shard lock choreography is the thing on trial).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/forecaster.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "testing/registry.h"

namespace vup::serve {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kVehicles = 12;
constexpr size_t kShards = 4;
// The vehicle whose bundle the quarantine storm rots in fleet A.
constexpr int64_t kRotten = 5;

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

RegistryMeta TestMeta(uint64_t seed) {
  RegistryMeta meta;
  meta.fleet_seed = seed;
  meta.fleet_vehicles = 40;
  meta.algorithm = "Lasso";
  return meta;
}

class ShardChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_shard_chaos_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ModelRegistry OpenSharded(size_t cache_capacity) {
    ModelRegistry::Options opts;
    opts.directory = dir_;
    opts.cache_capacity = cache_capacity;
    opts.shards = kShards;
    StatusOr<ModelRegistry> registry = ModelRegistry::Open(std::move(opts));
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  /// Commits fleets A and B (vehicles 1..kVehicles each) and returns both
  /// generation names; the registry is left on fleet B.
  void CommitTwoFleets(ModelRegistry& registry, std::string* gen_a,
                       std::string* gen_b) {
    for (uint64_t fleet = 0; fleet < 2; ++fleet) {
      StatusOr<GenerationPublisher> pub = registry.NewGeneration();
      ASSERT_TRUE(pub.ok()) << pub.status().ToString();
      for (int64_t id = 1; id <= kVehicles; ++id) {
        // Same model either way; the chaos here is about locking, not
        // distinguishability (registry_chaos_test covers torn fleets).
        ASSERT_TRUE(pub.value().Add(id, *models_[id - 1]).ok());
      }
      ASSERT_TRUE(pub.value().Commit(TestMeta(fleet + 1)).ok());
      ASSERT_TRUE(registry.Reload().ok());
      *(fleet == 0 ? gen_a : gen_b) =
          ModelRegistry::GenerationDirName(registry.active_generation());
    }
  }

  void TrainFleetOnce() {
    // One model per distinct weekly level; reused across both fleets so
    // the test spends its time on concurrency, not on Lasso sweeps.
    for (int64_t id = 1; id <= kVehicles; ++id) {
      models_.push_back(std::make_unique<VehicleForecaster>(
          TrainForecaster(MakeDataset(id))));
    }
  }

  std::string dir_;
  std::vector<std::unique_ptr<VehicleForecaster>> models_;
};

TEST_F(ShardChaosTest, ReadersAcrossShardsSurviveSwapAndQuarantineStorm) {
  TrainFleetOnce();
  // capacity 4 over 4 shards = 1 LRU slot per shard: every shard is
  // evicting constantly while the generation swaps underneath.
  ModelRegistry registry = OpenSharded(/*cache_capacity=*/kShards);
  std::string gen_a, gen_b;
  CommitTwoFleets(registry, &gen_a, &gen_b);
  // One flipped byte, same size: every miss on kRotten while fleet A is
  // active fails the CRC and quarantines it; each swap lifts the mark.
  {
    std::fstream bundle(
        dir_ + "/" + gen_a + "/" + ModelRegistry::BundleFileName(kRotten),
        std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(bundle.good());
    bundle.seekg(64);
    const char byte = static_cast<char>(bundle.get());
    bundle.seekp(64);
    bundle.put(static_cast<char>(byte ^ 0x01));
    ASSERT_TRUE(bundle.good());
  }

  // All shards must actually carry traffic or the test proves nothing.
  std::vector<int> shard_population(kShards, 0);
  for (int64_t id = 1; id <= kVehicles; ++id) {
    ++shard_population[registry.ShardIndexForVehicle(id)];
  }
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_GT(shard_population[s], 0)
        << "shard " << s << " unpopulated; adjust kVehicles";
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> bad_observations{0};
  std::atomic<size_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const int64_t id = rng.UniformInt(1, kVehicles);
        StatusOr<std::shared_ptr<const VehicleForecaster>> model =
            registry.Get(id);
        // Legal outcomes: the model (either fleet), or NotFound while
        // kRotten is quarantined in fleet A. Unavailable /
        // DataLoss / anything else means a load path broke mid-swap.
        if (model.ok()) {
          if (!model.value()->trained()) {
            bad_observations.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (!model.status().IsNotFound()) {
          bad_observations.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Stats reader: exercises the all-shards + active_mu_ lock path (the
  // one that deadlocks if any shard breaks the global lock order), and
  // checks the sum invariant under fire.
  std::thread stats_reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      ModelRegistryStats stats = registry.stats();
      uint64_t hits = 0, misses = 0;
      for (const ModelRegistryShardStats& s : stats.shards) {
        hits += s.hits;
        misses += s.misses;
      }
      if (hits != stats.hits || misses != stats.misses) {
        bad_observations.fetch_add(1, std::memory_order_relaxed);
      }
      obs::MetricsSnapshot snapshot;
      registry.CollectMetrics(&snapshot);
      std::this_thread::yield();
    }
  });

  // Quarantine storm: the miss path flags kRotten while swaps race to
  // clear the flag. (No read-back check: a concurrent Reload may lift a
  // quarantine between the Get and the check, and that is correct.)
  std::thread quarantiner([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)registry.Get(kRotten);
      (void)registry.IsQuarantined(kRotten);
      std::this_thread::yield();
    }
  });

  // The swap loop doubles as the "publisher killed" injector: half-
  // staged directories appear and vanish while CURRENT flips between the
  // two complete fleets.
  Rng rng(7);
  for (int flip = 0; flip < 60; ++flip) {
    EXPECT_TRUE(FlipCurrent(dir_, flip % 2 == 0 ? gen_a : gen_b).ok());
    ASSERT_TRUE(registry.Reload().ok()) << "flip " << flip;
    if (rng.UniformInt(0, 2) == 0) {
      const std::string staging = dir_ + "/gen_000777.staging";
      fs::create_directories(staging);
      {
        std::ofstream out(staging + "/vehicle_1.cfcst");
        out << "partial";
      }
      fs::remove_all(staging);
    }
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  stats_reader.join();
  quarantiner.join();

  EXPECT_EQ(bad_observations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);

  // Post-storm: fleet A still quarantines its rotten bundle, and a swap
  // to fleet B clears every quarantine and the whole fleet serves again
  // from all shards.
  ASSERT_TRUE(FlipCurrent(dir_, gen_a).ok());
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_TRUE(registry.Get(kRotten).status().IsNotFound());
  EXPECT_TRUE(registry.IsQuarantined(kRotten));
  ASSERT_TRUE(FlipCurrent(dir_, gen_b).ok());
  ASSERT_TRUE(registry.Reload().ok());
  for (int64_t id = 1; id <= kVehicles; ++id) {
    EXPECT_TRUE(registry.Get(id).ok()) << "vehicle " << id;
  }
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.quarantined_models, 0u);
  EXPECT_EQ(stats.shards.size(), kShards);
}

TEST_F(ShardChaosTest, PublisherKilledMidGenerationNeverTearsShardedReaders) {
  TrainFleetOnce();
  ModelRegistry registry = OpenSharded(/*cache_capacity=*/8);
  std::string gen_a, gen_b;
  CommitTwoFleets(registry, &gen_a, &gen_b);

  std::atomic<bool> done{false};
  std::atomic<size_t> bad_observations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const int64_t id = rng.UniformInt(1, kVehicles);
        StatusOr<std::shared_ptr<const VehicleForecaster>> model =
            registry.Get(id);
        if (!model.ok()) {
          bad_observations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Publisher thread: stages full generations but "dies" at random steps
  // (destructor cleanup = kill before Finalize; Finalize-without-Promote
  // = kill before the flip). Committed generations reload concurrently
  // with the reader storm.
  std::thread publisher([&] {
    Rng rng(11);
    for (int round = 0; round < 8; ++round) {
      StatusOr<GenerationPublisher> pub = registry.NewGeneration();
      if (!pub.ok()) {
        bad_observations.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      for (int64_t id = 1; id <= kVehicles; ++id) {
        if (!pub.value().Add(id, *models_[id - 1]).ok()) {
          bad_observations.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const int64_t fate = rng.UniformInt(0, 2);
      if (fate == 0) {
        // Killed before Finalize: the destructor sweeps staging away.
      } else if (fate == 1) {
        // Killed between Finalize and Promote: complete but invisible.
        if (!pub.value().Finalize(TestMeta(100 + round)).ok()) {
          bad_observations.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        if (!pub.value().Commit(TestMeta(100 + round)).ok() ||
            !registry.Reload().ok()) {
          bad_observations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    done.store(true, std::memory_order_release);
  });

  publisher.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(bad_observations.load(), 0u);
  // Whatever the last surviving generation is, it is complete.
  ASSERT_TRUE(registry.Reload().ok());
  for (int64_t id = 1; id <= kVehicles; ++id) {
    EXPECT_TRUE(registry.Get(id).ok()) << "vehicle " << id;
  }
}

}  // namespace
}  // namespace vup::serve
