// Ordering tests of the serving fallback chain
// vehicle -> global -> (Last-Value | error): missing, quarantined, corrupt
// and breaker-open bundles, with the served level, the prediction and the
// labeled fallback counters asserted for every hop, and the cold-start
// chain from a generated fleet through TrainPooled to a served prediction.
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/record_file.h"
#include "core/experiment.h"
#include "core/forecaster.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "testing/registry.h"

namespace vup::serve {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

/// Distinct per-tag weekday pattern so each trained model is identifiable
/// by its prediction on the shared request dataset.
VehicleDataset MakeDataset(int64_t tag, int n = 220) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    double level = 2.0 + static_cast<double>(tag % 7);
    r.hours = wd < 5 ? level + wd + 0.05 * (i % 3) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = tag;
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

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

class HierarchyFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_hierarchy_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    request_ds_ = std::make_unique<VehicleDataset>(MakeDataset(1));
  }

  ModelRegistry OpenRegistry() {
    StatusOr<ModelRegistry> registry = ModelRegistry::Open({dir_, 8});
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  ModelRegistry OpenWithBreaker(const Clock* clock) {
    ModelRegistry::Options opts;
    opts.directory = dir_;
    opts.cache_capacity = 8;
    opts.clock = clock;
    opts.breaker.failure_threshold = 3;
    opts.breaker.jitter_seed = 42;
    StatusOr<ModelRegistry> registry = ModelRegistry::Open(std::move(opts));
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  /// Publishes one generation holding, for each `model_id -> tag`, a model
  /// trained on MakeDataset(tag); the tag picks a distinct usage level, so
  /// the serving model is provable from the returned reference
  /// predictions, by model id.
  std::map<int64_t, double> PublishTagged(
      ModelRegistry* registry, const std::map<int64_t, int64_t>& tags) {
    std::map<int64_t, VehicleForecaster> models;
    std::map<int64_t, const VehicleForecaster*> fleet;
    std::map<int64_t, double> predictions;
    for (const auto& [model_id, tag] : tags) {
      const VehicleForecaster& model =
          models.emplace(model_id, TrainForecaster(MakeDataset(tag)))
              .first->second;
      fleet[model_id] = &model;
      predictions[model_id] =
          model.PredictTarget(*request_ds_, Target()).value();
    }
    EXPECT_TRUE(PublishFleet(*registry, fleet).ok());
    return predictions;
  }

  void CorruptBundle(const ModelRegistry& registry, int64_t model_id) {
    std::ofstream out(registry.BundlePath(model_id), std::ios::trunc);
    out << "vupred-forecaster v1\nalgorithm Alien\n";
  }

  /// Trips vehicle 1's breaker: its bundle becomes unreadable and three
  /// direct loads fail.
  void TripBreaker(ModelRegistry* registry) {
    ASSERT_TRUE(BreakBundle(registry->BundlePath(1)).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_FALSE(registry->Get(1).ok());
    }
    ASSERT_EQ(registry->breaker_state(1), BreakerState::kOpen);
  }

  PredictionService MakeService(ModelRegistry* registry,
                                bool degrade_to_baseline = true) {
    PredictionService::Options opts;
    opts.degrade_to_baseline = degrade_to_baseline;
    return PredictionService(registry, nullptr, opts);
  }

  size_t Target() const { return request_ds_->num_days(); }

  PredictionRequest Request(int64_t vehicle_id = 1) const {
    return PredictionRequest(vehicle_id, request_ds_.get(), Target());
  }

  std::string dir_;
  std::unique_ptr<VehicleDataset> request_ds_;
};

TEST_F(HierarchyFallbackTest, OwnModelPreferredOverGlobal) {
  ModelRegistry registry = OpenRegistry();
  const double own =
      PublishTagged(&registry, {{1, 1}, {kGlobalModelId, 13}}).at(1);

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kVehicle);
  EXPECT_EQ(Bits(resp.prediction), Bits(own));
  EXPECT_FALSE(resp.degraded);
  PredictionService::FallbackSnapshot counts = service.fallback_counts();
  EXPECT_EQ(counts.global + counts.baseline, 0u);
}

TEST_F(HierarchyFallbackTest, MissingVehicleServedByGlobal) {
  ModelRegistry registry = OpenRegistry();
  const double global =
      PublishTagged(&registry, {{2, 2}, {kGlobalModelId, 13}})
          .at(kGlobalModelId);

  PredictionService service = MakeService(&registry);
  // Vehicle 1 has no bundle, and neither has vehicle 99, which the
  // generation has never seen: both are served by the global model.
  for (int64_t vehicle_id : {int64_t{1}, int64_t{99}}) {
    PredictionResponse resp = service.Predict(Request(vehicle_id));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.level, ServedLevel::kGlobal);
    EXPECT_EQ(Bits(resp.prediction), Bits(global));
    EXPECT_FALSE(resp.degraded);
  }
  EXPECT_EQ(service.fallback_counts().global, 2u);
  EXPECT_EQ(service.fallback_counts().baseline, 0u);
}

TEST_F(HierarchyFallbackTest, QuarantinedVehicleServedByGlobal) {
  ModelRegistry registry = OpenRegistry();
  const double global =
      PublishTagged(&registry, {{1, 1}, {kGlobalModelId, 13}})
          .at(kGlobalModelId);
  CorruptBundle(registry, 1);

  PredictionService service = MakeService(&registry);
  for (int i = 0; i < 2; ++i) {  // The first load quarantines, the second
                                 // is blocked by the quarantine.
    PredictionResponse resp = service.Predict(Request());
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.level, ServedLevel::kGlobal);
    EXPECT_EQ(Bits(resp.prediction), Bits(global));
  }
  EXPECT_TRUE(registry.IsQuarantined(1));
  EXPECT_EQ(registry.stats().quarantine_blocks, 2u);
  EXPECT_EQ(service.fallback_counts().global, 2u);
}

TEST_F(HierarchyFallbackTest, NoGlobalBundleDegradesToBaseline) {
  ModelRegistry registry = OpenRegistry();
  PublishTagged(&registry, {{2, 2}});

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kBaseline);
  EXPECT_TRUE(resp.degraded);
  EXPECT_DOUBLE_EQ(resp.prediction, request_ds_->hours().back());
  EXPECT_EQ(service.fallback_counts().baseline, 1u);
  EXPECT_EQ(service.fallback_counts().global, 0u);
  // The unlisted global bundle is never asked for: the only miss is the
  // vehicle's own lookup.
  EXPECT_EQ(registry.stats().misses, 1u);
}

TEST_F(HierarchyFallbackTest, NoGlobalBundleWithoutDegradeIsNotFound) {
  ModelRegistry registry = OpenRegistry();
  PredictionService service =
      MakeService(&registry, /*degrade_to_baseline=*/false);
  PredictionResponse resp = service.Predict(Request());
  EXPECT_TRUE(resp.status.IsNotFound()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kNone);
  EXPECT_EQ(service.fallback_counts().baseline, 0u);
  EXPECT_EQ(registry.stats().misses, 1u);
}

TEST_F(HierarchyFallbackTest, CorruptGlobalBundleDegradesToBaseline) {
  ModelRegistry registry = OpenRegistry();
  PublishTagged(&registry, {{kGlobalModelId, 13}});
  CorruptBundle(registry, kGlobalModelId);

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kBaseline);
  EXPECT_TRUE(resp.degraded);
  EXPECT_TRUE(registry.IsQuarantined(kGlobalModelId));
  EXPECT_EQ(service.fallback_counts().global, 0u);
  EXPECT_EQ(service.fallback_counts().baseline, 1u);
}

TEST_F(HierarchyFallbackTest, BreakerOpenVehicleServedByGlobal) {
  FakeClock clock;
  ModelRegistry registry = OpenWithBreaker(&clock);
  const double global =
      PublishTagged(&registry, {{1, 1}, {kGlobalModelId, 13}})
          .at(kGlobalModelId);
  TripBreaker(&registry);

  // While the breaker is open the vehicle level returns Unavailable; the
  // request must be served by the global model, not by Last-Value.
  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kGlobal);
  EXPECT_EQ(Bits(resp.prediction), Bits(global));
  EXPECT_FALSE(resp.degraded);
  EXPECT_EQ(service.fallback_counts().global, 1u);
  EXPECT_EQ(service.fallback_counts().baseline, 0u);
}

TEST_F(HierarchyFallbackTest, BreakerOpenWithoutGlobalStaysUnavailable) {
  FakeClock clock;
  ModelRegistry registry = OpenWithBreaker(&clock);
  PublishTagged(&registry, {{1, 1}});
  TripBreaker(&registry);

  // Breaker-open is not NotFound: even with degradation enabled the
  // response must stay Unavailable rather than silently serving stale
  // Last-Value numbers for a vehicle that *has* a (suspect) model.
  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  EXPECT_TRUE(resp.status.IsUnavailable()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kNone);
  EXPECT_FALSE(resp.degraded);
  EXPECT_EQ(service.fallback_counts().baseline, 0u);
}

TEST_F(HierarchyFallbackTest, CountersExportedAsLabeledFamily) {
  ModelRegistry registry = OpenRegistry();
  PublishTagged(&registry, {{kGlobalModelId, 13}});

  PredictionService service = MakeService(&registry);
  ASSERT_TRUE(service.Predict(Request()).status.ok());  // -> global.
  ASSERT_TRUE(service.Predict(Request()).status.ok());  // -> global.

  obs::MetricsSnapshot snapshot;
  service.CollectMetrics(&snapshot);
  size_t samples = 0;
  for (const obs::MetricFamily& family : snapshot.families) {
    if (family.name == "vupred_registry_fallback_total") {
      samples += family.samples.size();
    }
  }
  EXPECT_EQ(samples, 2u);  // global and baseline only.
  const obs::MetricSample* global_sample =
      snapshot.Find("vupred_registry_fallback_total", {{"level", "global"}});
  ASSERT_NE(global_sample, nullptr);
  EXPECT_DOUBLE_EQ(global_sample->value, 2.0);
  const obs::MetricSample* baseline_sample =
      snapshot.Find("vupred_registry_fallback_total", {{"level", "baseline"}});
  ASSERT_NE(baseline_sample, nullptr);
  EXPECT_DOUBLE_EQ(baseline_sample->value, 0.0);
}

// A generation published by an older build may list more pooled bundles
// under negative ids and a sidecar file this build does not read. It
// still opens, the extra files are listed but never served, and its global
// bundle serves a vehicle without its own.
TEST_F(HierarchyFallbackTest, ExtraPooledBundlesAndSidecarsAreIgnored) {
  ModelRegistry registry = OpenRegistry();
  const VehicleForecaster global = TrainForecaster(MakeDataset(13));
  const VehicleForecaster pooled = TrainForecaster(MakeDataset(11));
  {
    StatusOr<GenerationPublisher> pub = registry.NewGeneration();
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    ASSERT_TRUE(pub.value().Add(-1000, pooled).ok());
    ASSERT_TRUE(pub.value().Add(-2002, pooled).ok());
    ASSERT_TRUE(pub.value().Add(kGlobalModelId, global).ok());
    std::ofstream sidecar(pub.value().staging_dir() + "/extra.meta",
                          std::ios::binary);
    sidecar << EncodeRecords("vupred-extra v2", {{"seed", {"42"}}});
    sidecar.close();
    ASSERT_TRUE(pub.value().Commit(RegistryMeta()).ok());
  }
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.ListVehicleIds(),
            (std::vector<int64_t>{kGlobalModelId, -2002, -1000}));

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kGlobal);
  EXPECT_EQ(Bits(resp.prediction),
            Bits(global.PredictTarget(*request_ds_, Target()).value()));
}

// The real cold-start chain, nothing hand-built: pool a generated fleet's
// vehicles without one of them, publish the pooled model as the global
// bundle with the other vehicles' own bundles, and serve the vehicle the
// generation has never trained on.
TEST_F(HierarchyFallbackTest, ColdStartVehicleServedByTheOfflineGlobalModel) {
  const Fleet fleet = Fleet::Generate(FleetConfig::Small(8, 42));
  std::vector<VehicleDataset> datasets;
  for (size_t i = 0; i < fleet.size(); ++i) {
    StatusOr<VehicleDataset> ds = PrepareVehicleDataset(fleet, i);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    datasets.push_back(std::move(ds.value()));
  }
  const VehicleDataset& cold = datasets.back();

  ForecasterConfig config;
  config.algorithm = Algorithm::kLasso;
  config.windowing.lookback_w = 21;
  config.selection.top_k = 7;
  constexpr size_t kTrainWindow = 60;

  ModelRegistry registry = OpenRegistry();
  StatusOr<GenerationPublisher> publisher = registry.NewGeneration();
  ASSERT_TRUE(publisher.ok()) << publisher.status().ToString();
  std::vector<PooledTrainingSpan> spans;
  for (size_t i = 0; i + 1 < datasets.size(); ++i) {
    const VehicleDataset& ds = datasets[i];
    const size_t n = ds.num_days();
    VehicleForecaster own(config);
    if (n <= kTrainWindow || !own.Train(ds, n - kTrainWindow, n).ok()) {
      continue;  // Too short: served by the global model.
    }
    ASSERT_TRUE(publisher.value().Add(ds.info().vehicle_id, own).ok());
    spans.push_back({&ds, n - kTrainWindow, n});
  }
  ASSERT_GT(spans.size(), 1u);
  StatusOr<VehicleForecaster> offline =
      VehicleForecaster::TrainPooled(spans, config);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  ASSERT_TRUE(publisher.value().Add(kGlobalModelId, offline.value()).ok());
  ASSERT_TRUE(publisher.value().Commit(RegistryMeta()).ok());
  ASSERT_TRUE(registry.Reload().ok());

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(
      PredictionRequest(cold.info().vehicle_id, &cold, cold.num_days()));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kGlobal);
  EXPECT_FALSE(resp.degraded);
  EXPECT_EQ(service.fallback_counts().global, 1u);
  // Bitwise: the served bundle is the offline pooled model itself.
  StatusOr<double> expected = offline.value().PredictTarget(cold,
                                                            cold.num_days());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(Bits(resp.prediction), Bits(expected.value()));
}

TEST_F(HierarchyFallbackTest, ServedLevelNamesAreStable) {
  EXPECT_EQ(ServedLevelToString(ServedLevel::kNone), "none");
  EXPECT_EQ(ServedLevelToString(ServedLevel::kVehicle), "vehicle");
  EXPECT_EQ(ServedLevelToString(ServedLevel::kGlobal), "global");
  EXPECT_EQ(ServedLevelToString(ServedLevel::kBaseline), "baseline");
}

}  // namespace
}  // namespace vup::serve
