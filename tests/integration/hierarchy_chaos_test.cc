// Concurrency chaos for the serving fallback: reader threads resolving
// the vehicle -> global chain race a republish + Reload loop that swaps
// between two complete generations -- one with the vehicle's own bundle,
// one serving it from the global model only. Every response must be OK,
// served at the vehicle or global level, and carry a prediction
// belonging to one of the known complete fleets. Run under TSan by
// ci_tsan.sh.

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/forecaster.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
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

TEST(HierarchyChaosTest, FallbackReadsRaceGenerationSwaps) {
  const std::string dir = ::testing::TempDir() + "/vup_hierarchy_chaos";
  fs::remove_all(dir);
  StatusOr<ModelRegistry> opened = ModelRegistry::Open({dir, 2});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelRegistry registry = std::move(opened.value());

  // Vehicle 2 never has an own bundle, so it exercises the fallback hop
  // on every single read.
  const VehicleDataset ds1 = MakeDataset(1);
  const VehicleDataset ds2 = MakeDataset(2);
  VehicleForecaster own_a = TrainForecaster(MakeDataset(1));
  VehicleForecaster global_a = TrainForecaster(MakeDataset(3));
  VehicleForecaster global_b = TrainForecaster(MakeDataset(5));

  RegistryMeta rmeta;
  // Generation A: vehicle 1 served by its own model, 2 by the global one.
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(pub.value().Add(1, own_a).ok());
    ASSERT_TRUE(pub.value().Add(kGlobalModelId, global_a).ok());
    ASSERT_TRUE(pub.value().Commit(rmeta).ok());
  }
  ASSERT_TRUE(registry.Reload().ok());
  const std::string gen_a =
      ModelRegistry::GenerationDirName(registry.active_generation());

  // Generation B: no per-vehicle bundle at all, only the global model.
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(pub.value().Add(kGlobalModelId, global_b).ok());
    ASSERT_TRUE(pub.value().Commit(rmeta).ok());
  }
  ASSERT_TRUE(registry.Reload().ok());
  const std::string gen_b =
      ModelRegistry::GenerationDirName(registry.active_generation());

  // The legal prediction sets: any response must score with a model from
  // one complete fleet (races may legally mix the *level* across a swap,
  // never the bundle bytes).
  auto legal = [](const VehicleDataset& ds,
                  std::vector<const VehicleForecaster*> models) {
    std::vector<double> out;
    for (const VehicleForecaster* m : models) {
      out.push_back(m->PredictTarget(ds, ds.num_days()).value());
    }
    return out;
  };
  const std::vector<double> legal1 =
      legal(ds1, {&own_a, &global_a, &global_b});
  const std::vector<double> legal2 = legal(ds2, {&global_a, &global_b});

  PredictionService service(&registry, nullptr);

  std::atomic<bool> done{false};
  std::atomic<size_t> bad_responses{0};
  std::atomic<size_t> reads{0};
  // Readers that have completed one pass over both vehicles. The flips
  // start only once every reader has, so they cannot all finish before
  // any read happens.
  std::atomic<int> started{0};
  auto is_legal = [](double prediction, const std::vector<double>& set) {
    for (double v : set) {
      if (prediction == v) return true;
    }
    return false;
  };

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool first_pass = true;
      while (first_pass || !done.load(std::memory_order_acquire)) {
        for (int v = 1; v <= 2; ++v) {
          const VehicleDataset& ds = v == 1 ? ds1 : ds2;
          PredictionResponse resp =
              service.Predict({v, &ds, ds.num_days()});
          const bool level_ok = resp.level == ServedLevel::kVehicle ||
                                resp.level == ServedLevel::kGlobal;
          if (!resp.status.ok() || !level_ok || resp.degraded ||
              !is_legal(resp.prediction, v == 1 ? legal1 : legal2)) {
            bad_responses.fetch_add(1, std::memory_order_relaxed);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (first_pass) {
          first_pass = false;
          started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  while (started.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }

  // The swap loop: bounce the active generation between A and B.
  for (int flip = 0; flip < 80; ++flip) {
    EXPECT_TRUE(FlipCurrent(dir, flip % 2 == 0 ? gen_a : gen_b).ok());
    EXPECT_TRUE(registry.Reload().ok());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(bad_responses.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  // The fallback hop was actually exercised while swapping.
  EXPECT_GT(service.fallback_counts().global, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vup::serve
