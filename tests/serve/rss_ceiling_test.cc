// Memory ceiling of a 10^5-vehicle sharded registry: the "many models on
// one box" claim, scaled to CI. Four template forecasters (LR, Lasso, SVR,
// GB) are trained once on a seeded fleet and their compact bundle bytes
// stamped across 100 000 vehicle ids; a uniform Get stream then runs
// against a 16-shard registry with a 64 MiB cache byte budget. Served
// predictions must equal the trained templates' bitwise, and the process's
// peak resident set (VmHWM) must stay within 384 MiB.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/experiment.h"
#include "core/forecaster.h"
#include "serve/model_registry.h"
#include "telemetry/fleet.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VUP_RSS_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VUP_RSS_UNDER_SANITIZER 1
#endif
#endif

namespace vup::serve {
namespace {

namespace fs = std::filesystem;

constexpr size_t kVehicles = 100'000;
constexpr size_t kShards = 16;
constexpr size_t kCacheBytes = size_t{64} << 20;
constexpr double kMaxPeakRssMb = 384.0;
constexpr uint64_t kFleetSeed = 42;
constexpr uint64_t kStreamSeed = 7;

/// Peak resident set (VmHWM) of this process in MiB; 0 when
/// /proc/self/status is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  long long kb = 0;
  while (std::getline(status, line)) {
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

class RssCeilingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_rss_ceiling";
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(RssCeilingTest, HundredThousandVehiclesServeWithinCeiling) {
#ifdef VUP_RSS_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer shadow memory makes the RSS figure "
                  "meaningless; serve_registry_shard_test covers parity";
#endif
  if (PeakRssMb() <= 0.0) GTEST_SKIP() << "no /proc/self/status VmHWM";

  // Every template trains on the same seeded vehicle; vehicle id v serves
  // template (v - 1) mod 4, so each algorithm is spread over the fleet.
  Fleet fleet = Fleet::Generate(FleetConfig::Small(8, kFleetSeed));
  ExperimentRunner runner(&fleet);
  ExperimentOptions opts;
  opts.max_vehicles = 1;
  std::vector<size_t> selected = runner.SelectVehicles(opts);
  ASSERT_FALSE(selected.empty());
  StatusOr<const VehicleDataset*> template_ds = runner.Dataset(selected[0]);
  ASSERT_TRUE(template_ds.ok()) << template_ds.status().ToString();
  const VehicleDataset& ds = *template_ds.value();

  struct Template {
    Algorithm algorithm;
    std::unique_ptr<VehicleForecaster> trained;
    std::string compact;
  };
  std::vector<Template> templates;
  for (Algorithm algorithm :
       {Algorithm::kLinearRegression, Algorithm::kLasso, Algorithm::kSvr,
        Algorithm::kGradientBoosting}) {
    ForecasterConfig cfg;
    cfg.algorithm = algorithm;
    cfg.windowing.lookback_w = 21;
    cfg.selection.top_k = 7;
    Template t{algorithm, std::make_unique<VehicleForecaster>(cfg), {}};
    const size_t n = ds.num_days();
    const size_t begin =
        n > 200 ? std::max<size_t>(n - 200, cfg.windowing.lookback_w)
                : cfg.windowing.lookback_w;
    ASSERT_TRUE(t.trained->Train(ds, begin, n).ok());
    StatusOr<std::string> bytes = t.trained->SaveCompact();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    t.compact = std::move(bytes).value();
    templates.push_back(std::move(t));
  }

  {
    StatusOr<ModelRegistry> publishing = ModelRegistry::Open({dir_, 0});
    ASSERT_TRUE(publishing.ok()) << publishing.status().ToString();
    StatusOr<GenerationPublisher> publisher =
        publishing.value().NewGeneration();
    ASSERT_TRUE(publisher.ok()) << publisher.status().ToString();
    for (size_t v = 1; v <= kVehicles; ++v) {
      const Template& t = templates[(v - 1) % templates.size()];
      ASSERT_TRUE(publisher.value()
                      .AddPrebuilt(static_cast<int64_t>(v), {}, t.compact)
                      .ok())
          << "vehicle " << v;
    }
    RegistryMeta meta;
    meta.fleet_seed = kFleetSeed;
    meta.fleet_vehicles = 8;
    meta.algorithm = "synthetic-mixed";
    ASSERT_TRUE(publisher.value().Commit(meta).ok());
  }

  // The registry under test: sharded, bounded by bytes, not by entries.
  ModelRegistry::Options reg_opts;
  reg_opts.directory = dir_;
  reg_opts.cache_capacity = kVehicles;
  reg_opts.cache_max_bytes = kCacheBytes;
  reg_opts.shards = kShards;
  StatusOr<ModelRegistry> opened = ModelRegistry::Open(std::move(reg_opts));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ModelRegistry& registry = opened.value();

  // Vehicles 1..4 carry one template each: served == trained, bitwise.
  const size_t target = ds.num_days();
  for (size_t t = 0; t < templates.size(); ++t) {
    StatusOr<std::shared_ptr<const VehicleForecaster>> served =
        registry.Get(static_cast<int64_t>(t + 1));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    StatusOr<double> expected = templates[t].trained->PredictTarget(ds, target);
    StatusOr<double> actual = served.value()->PredictTarget(ds, target);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(actual.value(), expected.value())
        << AlgorithmToString(templates[t].algorithm);
  }

  // A seeded uniform stream over the whole fleet: the cache cannot hold
  // it, so most Gets load, charge and evict.
  Rng rng(kStreamSeed);
  size_t failed = 0;
  for (size_t r = 0; r < kVehicles; ++r) {
    const int64_t id =
        1 + rng.UniformInt(0, static_cast<int64_t>(kVehicles) - 1);
    if (!registry.Get(id).ok()) ++failed;
  }
  EXPECT_EQ(failed, 0u);
  const ModelRegistryStats stats = registry.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.cache_bytes, kCacheBytes);

  const double peak_mb = PeakRssMb();
  std::printf("peak RSS %.1f MiB (ceiling %.0f MiB), resident models %llu\n",
              peak_mb, kMaxPeakRssMb,
              static_cast<unsigned long long>(stats.resident_models));
  EXPECT_LE(peak_mb, kMaxPeakRssMb);
}

}  // namespace
}  // namespace vup::serve
