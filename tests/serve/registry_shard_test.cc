// Sharded-registry behavior: the byte-budgeted LRU (mixed model sizes,
// oversized models, the cache_bytes gauge), breaker state surviving
// eviction, the per-shard-sums-equal-totals stats invariant, and the
// compact serving path -- bitwise parity with the trained models
// and quarantine on bit-rot.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/file_util.h"
#include "core/forecaster.h"
#include "obs/metrics.h"
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

VehicleForecaster TrainForecaster(const VehicleDataset& ds,
                                  Algorithm algorithm = Algorithm::kLasso) {
  ForecasterConfig cfg;
  cfg.algorithm = algorithm;
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  VehicleForecaster forecaster(cfg);
  EXPECT_TRUE(forecaster.Train(ds, 20, 200).ok());
  return forecaster;
}

RegistryMeta TestMeta(uint64_t seed, const std::string& algorithm) {
  RegistryMeta meta;
  meta.fleet_seed = seed;
  meta.fleet_vehicles = 40;
  meta.algorithm = algorithm;
  return meta;
}

class RegistryShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_shard_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ModelRegistry OpenWith(ModelRegistry::Options opts) {
    opts.directory = dir_;
    StatusOr<ModelRegistry> registry = ModelRegistry::Open(std::move(opts));
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  /// Trains a model for each id (`algorithm_of(id)`, Lasso without one)
  /// and publishes them as one generation of `registry`.
  void PublishTrained(ModelRegistry& registry, const std::vector<int64_t>& ids,
                      Algorithm (*algorithm_of)(int64_t) = nullptr) {
    std::vector<VehicleForecaster> models;
    models.reserve(ids.size());  // Stable addresses for the fleet map.
    std::map<int64_t, const VehicleForecaster*> fleet;
    for (int64_t id : ids) {
      models.push_back(TrainForecaster(
          MakeDataset(id),
          algorithm_of != nullptr ? algorithm_of(id) : Algorithm::kLasso));
      fleet[id] = &models.back();
    }
    ASSERT_TRUE(PublishFleet(registry, fleet).ok());
  }

  std::string dir_;
};

TEST_F(RegistryShardTest, ShardCountIsValidatedAndRouted) {
  ModelRegistry::Options opts;
  opts.directory = dir_;
  opts.shards = 0;
  EXPECT_TRUE(ModelRegistry::Open(opts).status().IsInvalidArgument());
  opts.shards = 5000;
  EXPECT_TRUE(ModelRegistry::Open(opts).status().IsInvalidArgument());

  opts.shards = 8;
  ModelRegistry registry = OpenWith(opts);
  EXPECT_EQ(registry.num_shards(), 8u);
  // Routing is a pure function of the id: stable within a process and
  // always in range.
  for (int64_t id = 1; id <= 100; ++id) {
    const size_t shard = registry.ShardIndexForVehicle(id);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(shard, registry.ShardIndexForVehicle(id));
  }
}

TEST_F(RegistryShardTest, ByteBudgetHonoredWithMixedModelSizes) {
  // Compact models charge their whole bundle: a GB ensemble's bundle
  // dwarfs a Lasso's -- genuinely mixed per-model weights.
  ModelRegistry unbounded = OpenWith(ModelRegistry::Options{});
  const std::vector<int64_t> ids = {1, 2, 3, 4, 5, 6};
  PublishTrained(unbounded, ids, [](int64_t id) {
    return id % 2 == 0 ? Algorithm::kGradientBoosting : Algorithm::kLasso;
  });
  size_t smallest = 0;
  for (int64_t id : ids) {
    StatusOr<std::shared_ptr<const VehicleForecaster>> model =
        unbounded.Get(id);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const size_t bytes = model.value()->ResidentBytes();
    EXPECT_GT(bytes, 0u);
    smallest = smallest == 0 ? bytes : std::min(smallest, bytes);
  }
  const size_t total = unbounded.resident_bytes();
  ASSERT_EQ(unbounded.resident_models(), ids.size());
  ASSERT_GT(total, 0u);

  // Half the fleet's weight: the registry must keep serving everything
  // while never letting residency cross the budget.
  ModelRegistry::Options bounded;
  bounded.cache_max_bytes = total / 2;
  ASSERT_GE(bounded.cache_max_bytes, smallest)
      << "budget too small to make the test meaningful";
  ModelRegistry registry = OpenWith(bounded);
  for (int round = 0; round < 2; ++round) {
    for (int64_t id : ids) {
      ASSERT_TRUE(registry.Get(id).ok()) << "vehicle " << id;
      EXPECT_LE(registry.resident_bytes(), total / 2)
          << "vehicle " << id << " round " << round;
    }
  }
  ModelRegistryStats stats = registry.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(registry.resident_models(), ids.size());
  EXPECT_EQ(stats.cache_bytes, registry.resident_bytes());
}

TEST_F(RegistryShardTest, OversizedModelIsServedButNeverCached) {
  ModelRegistry::Options opts;
  opts.cache_max_bytes = 1;  // Smaller than any real model.
  ModelRegistry registry = OpenWith(opts);
  PublishTrained(registry, {7});

  ASSERT_TRUE(registry.Get(7).ok());
  EXPECT_EQ(registry.resident_models(), 0u);
  EXPECT_EQ(registry.resident_bytes(), 0u);
  ASSERT_TRUE(registry.Get(7).ok());  // Still served, still a miss.
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);  // Never admitted, so never evicted.
}

TEST_F(RegistryShardTest, BreakerStateSurvivesEviction) {
  ModelRegistry::Options opts;
  opts.cache_capacity = 2;
  ModelRegistry registry = OpenWith(opts);
  PublishTrained(registry, {1, 2, 3, 9});
  ASSERT_TRUE(BreakBundle(registry.BundlePath(9)).ok());
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(registry.Get(9).ok());
  ASSERT_EQ(registry.breaker_state(9), BreakerState::kOpen);

  // Churn the 2-slot LRU hard. Eviction displaces resident models only;
  // breaker state is not cache state and must hold.
  for (int round = 0; round < 3; ++round) {
    for (int64_t id : {1, 2, 3}) ASSERT_TRUE(registry.Get(id).ok());
  }
  ASSERT_GT(registry.stats().evictions, 0u);
  EXPECT_EQ(registry.breaker_state(9), BreakerState::kOpen);
  EXPECT_TRUE(registry.Get(9).status().IsUnavailable());
}

TEST_F(RegistryShardTest, PerShardSlicesSumToTotals) {
  ModelRegistry::Options opts;
  opts.shards = 8;
  opts.cache_capacity = 8;  // 1 slot per shard: eviction on collisions.
  ModelRegistry registry = OpenWith(opts);
  const int64_t kVehicles = 12;
  PublishTrained(registry, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  ASSERT_TRUE(BreakBundle(registry.BundlePath(12)).ok());
  for (int round = 0; round < 2; ++round) {
    for (int64_t id = 1; id <= kVehicles; ++id) {
      Status status = registry.Get(id).status();
      if (id != 12) {
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
    }
  }
  registry.Quarantine(11);

  ModelRegistryStats stats = registry.stats();
  ASSERT_EQ(stats.shards.size(), 8u);
  ModelRegistryShardStats sum;
  for (const ModelRegistryShardStats& s : stats.shards) {
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.load_failures += s.load_failures;
    sum.breaker_opens += s.breaker_opens;
    sum.breaker_short_circuits += s.breaker_short_circuits;
    sum.quarantines += s.quarantines;
    sum.quarantine_blocks += s.quarantine_blocks;
    sum.resident_models += s.resident_models;
    sum.cache_bytes += s.cache_bytes;
    sum.breaker_open_vehicles += s.breaker_open_vehicles;
    sum.quarantined_models += s.quarantined_models;
  }
  EXPECT_EQ(sum.hits, stats.hits);
  EXPECT_EQ(sum.misses, stats.misses);
  EXPECT_EQ(sum.evictions, stats.evictions);
  EXPECT_EQ(sum.load_failures, stats.load_failures);
  EXPECT_EQ(sum.breaker_opens, stats.breaker_opens);
  EXPECT_EQ(sum.breaker_short_circuits, stats.breaker_short_circuits);
  EXPECT_EQ(sum.quarantines, stats.quarantines);
  EXPECT_EQ(sum.quarantine_blocks, stats.quarantine_blocks);
  EXPECT_EQ(sum.resident_models, stats.resident_models);
  EXPECT_EQ(sum.cache_bytes, stats.cache_bytes);
  EXPECT_EQ(sum.breaker_open_vehicles, stats.breaker_open_vehicles);
  EXPECT_EQ(sum.quarantined_models, stats.quarantined_models);

  // Something actually happened in more than one shard, or the invariant
  // is vacuous.
  EXPECT_GT(sum.hits, 0u);
  EXPECT_GT(sum.misses, 0u);
  EXPECT_GT(sum.load_failures, 0u);
  EXPECT_EQ(sum.quarantined_models, 1u);
  size_t active_shards = 0;
  for (const ModelRegistryShardStats& s : stats.shards) {
    if (s.hits + s.misses > 0) ++active_shards;
  }
  EXPECT_GT(active_shards, 1u);
  EXPECT_EQ(stats.resident_models, registry.resident_models());
  EXPECT_EQ(stats.cache_bytes, registry.resident_bytes());
}

TEST_F(RegistryShardTest, CacheBytesGaugeMatchesResidency) {
  ModelRegistry registry = OpenWith(ModelRegistry::Options{});
  PublishTrained(registry, {1, 2});
  for (int64_t id : {1, 2}) ASSERT_TRUE(registry.Get(id).ok());
  ASSERT_GT(registry.resident_bytes(), 0u);

  obs::MetricsSnapshot snapshot;
  registry.CollectMetrics(&snapshot);
  const obs::MetricSample* gauge =
      snapshot.Find("vupred_registry_cache_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value,
                   static_cast<double>(registry.resident_bytes()));
  EXPECT_DOUBLE_EQ(snapshot.Value("vupred_registry_resident_models", {}, -1),
                   static_cast<double>(registry.resident_models()));
}

class RegistryCompactTest : public RegistryShardTest {
 protected:
  /// Commits a generation of `algorithm` models for ids 1..n and returns
  /// the trained forecasters, indexed by id - 1.
  std::vector<VehicleForecaster> CommitCompactFleet(
      ModelRegistry& registry, int64_t n,
      Algorithm algorithm = Algorithm::kLinearRegression) {
    std::vector<VehicleForecaster> trained;
    std::map<int64_t, const VehicleForecaster*> fleet;
    trained.reserve(static_cast<size_t>(n));  // Stable addresses.
    for (int64_t id = 1; id <= n; ++id) {
      trained.push_back(TrainForecaster(MakeDataset(id), algorithm));
      fleet[id] = &trained.back();
    }
    EXPECT_TRUE(
        PublishFleet(registry, fleet, TestMeta(7, "LinearRegression")).ok());
    return trained;
  }
};

TEST_F(RegistryCompactTest, ServingIsBitExactToTrained) {
  for (Algorithm algorithm :
       {Algorithm::kLinearRegression, Algorithm::kLasso, Algorithm::kSvr,
        Algorithm::kGradientBoosting}) {
    fs::remove_all(dir_);
    ModelRegistry registry = OpenWith(ModelRegistry::Options{});
    const std::vector<VehicleForecaster> trained =
        CommitCompactFleet(registry, 3, algorithm);
    ASSERT_EQ(trained.size(), 3u);
    for (int64_t id = 1; id <= 3; ++id) {
      StatusOr<std::shared_ptr<const VehicleForecaster>> served =
          registry.Get(id);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      VehicleDataset ds = MakeDataset(id);
      for (size_t t = 205; t <= ds.num_days(); t += 4) {
        // The compact contract is bitwise, not just close.
        EXPECT_EQ(trained[static_cast<size_t>(id - 1)]
                      .PredictTarget(ds, t)
                      .value(),
                  served.value()->PredictTarget(ds, t).value())
            << AlgorithmToString(algorithm) << " vehicle " << id
            << " target " << t;
      }
    }
  }
}

TEST_F(RegistryCompactTest, MissingBundleIsNotFoundNotQuarantined) {
  ModelRegistry registry = OpenWith(ModelRegistry::Options{});
  CommitCompactFleet(registry, 2);
  ASSERT_TRUE(fs::remove(registry.BundlePath(1)));

  // The manifest lists the deleted bundle, but absence is the degradation
  // path, not corruption: NotFound, no quarantine, no breaker.
  Status status = registry.Get(1).status();
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_FALSE(registry.IsQuarantined(1));
  EXPECT_EQ(registry.breaker_state(1), BreakerState::kClosed);
  EXPECT_TRUE(registry.Get(2).ok());
}

TEST_F(RegistryCompactTest, BitRottedCompactBundleQuarantines) {
  ModelRegistry registry = OpenWith(ModelRegistry::Options{});
  CommitCompactFleet(registry, 2);

  // Flip one payload byte: the generation MANIFEST covers every bundle,
  // so verification must catch it before the decoder ever runs.
  const std::string path = registry.BundlePath(2);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(40);
    f.write(&byte, 1);
  }

  Status status = registry.Get(2).status();
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_TRUE(registry.IsQuarantined(2));
  ModelRegistryStats stats = registry.stats();
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_EQ(registry.breaker_state(2), BreakerState::kClosed)
      << "corruption is a publisher fault, not a load-path fault";
  // The rest of the fleet is unaffected.
  EXPECT_TRUE(registry.Get(1).ok());
}

TEST_F(RegistryCompactTest, TruncatedCompactBundleQuarantines) {
  ModelRegistry registry = OpenWith(ModelRegistry::Options{});
  CommitCompactFleet(registry, 1);

  const std::string path = registry.BundlePath(1);
  const size_t size = fs::file_size(path);
  fs::resize_file(path, size / 2);

  Status status = registry.Get(1).status();
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_TRUE(registry.IsQuarantined(1));
}

TEST_F(RegistryCompactTest, ManifestMismatchOnAnIntactBundleQuarantines) {
  ModelRegistry registry = OpenWith(ModelRegistry::Options{});
  CommitCompactFleet(registry, 3);
  // Leave every bundle intact but make the MANIFEST disagree with two of
  // them: vehicle 1's CRC and vehicle 2's size.
  const std::string gen = fs::path(registry.BundlePath(1)).parent_path();
  StatusOr<GenerationManifest> listed = ReadManifestFile(gen);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  GenerationManifest edited;
  for (const ManifestEntry& entry : listed.value().entries()) {
    ManifestEntry e = entry;
    if (e.file == ModelRegistry::BundleFileName(1)) {
      const std::string bytes =
          ReadFileCapped(gen + "/" + e.file, 1 << 20).value();
      ASSERT_EQ(e.crc32, CheckCrc32Trailer(bytes.data(), bytes.size()));
      e.crc32 ^= 1;
    }
    if (e.file == ModelRegistry::BundleFileName(2)) e.size += 8;
    ASSERT_TRUE(edited.Add(e.file, e.size, e.crc32).ok());
  }
  ASSERT_TRUE(WriteManifestFile(gen, edited).ok());

  ModelRegistry reopened = OpenWith(ModelRegistry::Options{});
  const Status crc = reopened.Get(1).status();
  EXPECT_TRUE(crc.IsNotFound()) << crc.ToString();
  EXPECT_NE(crc.message().find("crc32"), std::string::npos) << crc.ToString();
  const Status size = reopened.Get(2).status();
  EXPECT_TRUE(size.IsNotFound()) << size.ToString();
  EXPECT_NE(size.message().find("size"), std::string::npos)
      << size.ToString();
  EXPECT_TRUE(reopened.IsQuarantined(1));
  EXPECT_TRUE(reopened.IsQuarantined(2));
  EXPECT_TRUE(reopened.Get(3).ok());
  EXPECT_EQ(reopened.stats().quarantines, 2u);
  EXPECT_EQ(reopened.stats().load_failures, 0u);
}

TEST_F(RegistryCompactTest, SameSizeBundleSwapQuarantines) {
  ModelRegistry registry = OpenWith(ModelRegistry::Options{});
  CommitCompactFleet(registry, 8);
  // Vehicle 7's valid bundle copied over vehicle 8's: same size, intact
  // framing, wrong vehicle. Only the MANIFEST's per-file trailer tells the
  // two apart.
  ASSERT_EQ(fs::file_size(registry.BundlePath(7)),
            fs::file_size(registry.BundlePath(8)));
  fs::copy_file(registry.BundlePath(7), registry.BundlePath(8),
                fs::copy_options::overwrite_existing);

  const Status status = registry.Get(8).status();
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_NE(status.message().find("crc32"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(registry.IsQuarantined(8));
  EXPECT_TRUE(registry.Get(7).ok());
  EXPECT_EQ(registry.stats().quarantines, 1u);
  EXPECT_EQ(registry.stats().load_failures, 0u);
}

TEST_F(RegistryCompactTest, ResidentModelIsChargedItsWholeBundle) {
  ModelRegistry registry = OpenWith(ModelRegistry::Options{});
  CommitCompactFleet(registry, 1, Algorithm::kSvr);
  StatusOr<std::shared_ptr<const VehicleForecaster>> model = registry.Get(1);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // The model scores in place over the bundle buffer it owns, so the
  // byte budget must see that buffer.
  EXPECT_GE(model.value()->ResidentBytes(),
            fs::file_size(registry.BundlePath(1)));
  EXPECT_EQ(registry.resident_bytes(), model.value()->ResidentBytes());
}

}  // namespace
}  // namespace vup::serve
