// Exhaustive ordering tests of the serving fallback chain
// vehicle -> cluster -> type -> global -> (baseline | error), including
// corrupt and breaker-open bundles at each level, with the served level
// and the labeled fallback counters asserted for every hop, and the whole
// cold-start chain from a generated fleet to a served prediction.
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_meta.h"
#include "cluster/pooled.h"
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

class HierarchyFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_hierarchy_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);

    // Hand-built clustering: vehicles 1 and 2 in cluster 0 (type 2),
    // vehicle 3 in cluster 1 (type 4). 1-D standardized profile space.
    meta_.seed = 42;
    meta_.acf_lags = 14;
    meta_.scaling.mean = {0.0};
    meta_.scaling.std = {1.0};
    meta_.centroids = {{0.0}, {1.0}};
    meta_.vehicles = {{1, 0, 2}, {2, 0, 2}, {3, 1, 4}};

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

  PredictionService MakeService(ModelRegistry* registry,
                                bool degrade_to_baseline = true) {
    PredictionService::Options opts;
    opts.degrade_to_baseline = degrade_to_baseline;
    opts.hierarchy = &meta_;
    return PredictionService(registry, nullptr, opts);
  }

  size_t Target() const { return request_ds_->num_days(); }

  PredictionRequest Request(int type_hint = -1) const {
    PredictionRequest request(1, request_ds_.get(), Target());
    request.vehicle_type_hint = type_hint;
    return request;
  }

  std::string dir_;
  cluster::ClustersMeta meta_;
  std::unique_ptr<VehicleDataset> request_ds_;
};

TEST_F(HierarchyFallbackTest, OwnModelPreferredOverWholeChain) {
  ModelRegistry registry = OpenRegistry();
  const double own =
      PublishTagged(&registry, {{1, 1},
                                {cluster::ClusterModelId(0), 11},
                                {cluster::TypeModelId(2), 12},
                                {cluster::kGlobalModelId, 13}})
          .at(1);

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kVehicle);
  EXPECT_DOUBLE_EQ(resp.prediction, own);
  EXPECT_FALSE(resp.degraded);
  PredictionService::FallbackSnapshot counts = service.fallback_counts();
  EXPECT_EQ(counts.cluster + counts.type + counts.global + counts.baseline,
            0u);
}

TEST_F(HierarchyFallbackTest, MissingVehicleServedByCluster) {
  ModelRegistry registry = OpenRegistry();
  const double pooled =
      PublishTagged(&registry, {{cluster::ClusterModelId(0), 11},
                                {cluster::TypeModelId(2), 12},
                                {cluster::kGlobalModelId, 13}})
          .at(cluster::ClusterModelId(0));

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kCluster);
  EXPECT_DOUBLE_EQ(resp.prediction, pooled);
  EXPECT_FALSE(resp.degraded);
  EXPECT_EQ(service.fallback_counts().cluster, 1u);
  EXPECT_EQ(service.fallback_counts().type, 0u);
}

TEST_F(HierarchyFallbackTest, MissingClusterServedByType) {
  ModelRegistry registry = OpenRegistry();
  const double pooled =
      PublishTagged(&registry, {{cluster::TypeModelId(2), 12},
                                {cluster::kGlobalModelId, 13}})
          .at(cluster::TypeModelId(2));

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kType);
  EXPECT_DOUBLE_EQ(resp.prediction, pooled);
  EXPECT_EQ(service.fallback_counts().type, 1u);
  EXPECT_EQ(service.fallback_counts().cluster, 0u);
}

TEST_F(HierarchyFallbackTest, MissingTypeServedByGlobal) {
  ModelRegistry registry = OpenRegistry();
  const double pooled =
      PublishTagged(&registry, {{cluster::kGlobalModelId, 13}})
          .at(cluster::kGlobalModelId);

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kGlobal);
  EXPECT_DOUBLE_EQ(resp.prediction, pooled);
  EXPECT_EQ(service.fallback_counts().global, 1u);
}

TEST_F(HierarchyFallbackTest, ExhaustedChainDegradesToBaseline) {
  ModelRegistry registry = OpenRegistry();
  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kBaseline);
  EXPECT_TRUE(resp.degraded);
  EXPECT_DOUBLE_EQ(resp.prediction, request_ds_->hours().back());
  EXPECT_EQ(service.fallback_counts().baseline, 1u);
}

TEST_F(HierarchyFallbackTest, ExhaustedChainWithoutDegradeIsNotFound) {
  ModelRegistry registry = OpenRegistry();
  PredictionService service =
      MakeService(&registry, /*degrade_to_baseline=*/false);
  PredictionResponse resp = service.Predict(Request());
  EXPECT_TRUE(resp.status.IsNotFound()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kNone);
  EXPECT_EQ(service.fallback_counts().baseline, 0u);
}

TEST_F(HierarchyFallbackTest, TypeHintServesVehicleUnknownToClustering) {
  ModelRegistry registry = OpenRegistry();
  const double pooled =
      PublishTagged(&registry, {{cluster::TypeModelId(2), 12},
                                {cluster::kGlobalModelId, 13}})
          .at(cluster::TypeModelId(2));

  PredictionService service = MakeService(&registry);
  // Vehicle 99 is not in clusters.meta: cluster level unresolvable, and
  // without a hint the type level is skipped too -> global.
  PredictionRequest no_hint(99, request_ds_.get(), Target());
  PredictionResponse resp = service.Predict(no_hint);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.level, ServedLevel::kGlobal);

  // With the hint, the type model serves the cold-start vehicle.
  PredictionRequest hinted(99, request_ds_.get(), Target());
  hinted.vehicle_type_hint = 2;
  resp = service.Predict(hinted);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.level, ServedLevel::kType);
  EXPECT_DOUBLE_EQ(resp.prediction, pooled);
  EXPECT_EQ(service.fallback_counts().type, 1u);
  EXPECT_EQ(service.fallback_counts().global, 1u);
}

TEST_F(HierarchyFallbackTest, CorruptClusterBundleFallsThroughToType) {
  ModelRegistry registry = OpenRegistry();
  const double pooled =
      PublishTagged(&registry, {{cluster::ClusterModelId(0), 11},
                                {cluster::TypeModelId(2), 12}})
          .at(cluster::TypeModelId(2));
  CorruptBundle(registry, cluster::ClusterModelId(0));

  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kType);
  EXPECT_DOUBLE_EQ(resp.prediction, pooled);
  EXPECT_EQ(service.fallback_counts().cluster, 0u);
  EXPECT_EQ(service.fallback_counts().type, 1u);
}

TEST_F(HierarchyFallbackTest, BreakerOpenVehicleServedByClusterNotBaseline) {
  FakeClock clock;
  ModelRegistry registry = OpenWithBreaker(&clock);
  const double pooled =
      PublishTagged(&registry, {{1, 1}, {cluster::ClusterModelId(0), 11}})
          .at(cluster::ClusterModelId(0));
  ASSERT_TRUE(BreakBundle(registry.BundlePath(1)).ok());

  // Trip the vehicle's breaker: three direct load failures.
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(registry.Get(1).ok());
  }
  ASSERT_EQ(registry.breaker_state(1), BreakerState::kOpen);

  // While the breaker is open the vehicle level returns Unavailable; the
  // chain must degrade to the cluster model, not to Last-Value.
  PredictionService service = MakeService(&registry);
  PredictionResponse resp = service.Predict(Request());
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kCluster);
  EXPECT_DOUBLE_EQ(resp.prediction, pooled);
  EXPECT_FALSE(resp.degraded);
  EXPECT_EQ(service.fallback_counts().cluster, 1u);
  EXPECT_EQ(service.fallback_counts().baseline, 0u);
}

TEST_F(HierarchyFallbackTest, BreakerOpenWithoutPooledModelsStaysUnavailable) {
  FakeClock clock;
  ModelRegistry registry = OpenWithBreaker(&clock);
  PublishTagged(&registry, {{1, 1}});
  ASSERT_TRUE(BreakBundle(registry.BundlePath(1)).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(registry.Get(1).ok());
  }
  ASSERT_EQ(registry.breaker_state(1), BreakerState::kOpen);

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
  PublishTagged(&registry, {{cluster::ClusterModelId(0), 11}});

  PredictionService service = MakeService(&registry);
  ASSERT_TRUE(service.Predict(Request()).status.ok());  // -> cluster.
  ASSERT_TRUE(service.Predict(Request()).status.ok());  // -> cluster.
  PredictionRequest unknown(99, request_ds_.get(), Target());
  PredictionResponse resp = service.Predict(unknown);  // -> baseline.
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.level, ServedLevel::kBaseline);

  obs::MetricsSnapshot snapshot;
  service.CollectMetrics(&snapshot);
  const obs::MetricSample* cluster_sample =
      snapshot.Find("vupred_registry_fallback_total", {{"level", "cluster"}});
  ASSERT_NE(cluster_sample, nullptr);
  EXPECT_DOUBLE_EQ(cluster_sample->value, 2.0);
  const obs::MetricSample* baseline_sample =
      snapshot.Find("vupred_registry_fallback_total", {{"level", "baseline"}});
  ASSERT_NE(baseline_sample, nullptr);
  EXPECT_DOUBLE_EQ(baseline_sample->value, 1.0);
  const obs::MetricSample* type_sample =
      snapshot.Find("vupred_registry_fallback_total", {{"level", "type"}});
  ASSERT_NE(type_sample, nullptr);
  EXPECT_DOUBLE_EQ(type_sample->value, 0.0);
}

// The real cold-start chain, nothing hand-built: cluster a generated
// fleet, train the pooled hierarchy without one vehicle, publish it with
// the other vehicles' own bundles and clusters.meta, and serve the vehicle
// the hierarchy has never trained on.
TEST_F(HierarchyFallbackTest, ColdStartVehicleServedByItsOfflineClusterModel) {
  const Fleet fleet = Fleet::Generate(FleetConfig::Small(8, 42));
  std::vector<VehicleDataset> datasets;
  for (size_t i = 0; i < fleet.size(); ++i) {
    StatusOr<VehicleDataset> ds = PrepareVehicleDataset(fleet, i);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    datasets.push_back(std::move(ds.value()));
  }
  cluster::KMeansConfig kmeans_config;
  kmeans_config.k = 2;
  kmeans_config.seed = 42;
  StatusOr<cluster::ClustersMeta> meta = cluster::BuildFleetClustering(
      datasets, cluster::ProfileConfig(), kmeans_config);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();

  // The cold vehicle: the highest id whose cluster keeps a warm member.
  std::map<int, size_t> cluster_sizes;
  for (const cluster::VehicleAssignment& v : meta.value().vehicles) {
    ++cluster_sizes[v.cluster_id];
  }
  int64_t cold_id = -1;
  int cold_cluster = -1;
  for (const cluster::VehicleAssignment& v : meta.value().vehicles) {
    if (cluster_sizes[v.cluster_id] >= 2) {  // Ascending ids: last wins.
      cold_id = v.vehicle_id;
      cold_cluster = v.cluster_id;
    }
  }
  ASSERT_GE(cold_id, 0) << "every cluster is a singleton";
  const VehicleDataset* cold = nullptr;
  std::vector<VehicleDataset> warm;
  for (const VehicleDataset& ds : datasets) {
    if (ds.info().vehicle_id == cold_id) {
      cold = &ds;
    } else {
      warm.push_back(ds);
    }
  }
  ASSERT_NE(cold, nullptr);

  cluster::PooledTrainingOptions options;
  options.forecaster.algorithm = Algorithm::kLasso;
  options.forecaster.windowing.lookback_w = 21;
  options.forecaster.selection.top_k = 7;
  options.train_window = 60;
  options.holdout_days = 0;  // Serving models train through the last day.
  StatusOr<std::vector<cluster::PooledModel>> pooled =
      cluster::TrainPooledHierarchy(warm, meta.value(), options);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  const VehicleForecaster* offline = nullptr;
  for (const cluster::PooledModel& model : pooled.value()) {
    if (model.model_id == cluster::ClusterModelId(cold_cluster)) {
      offline = &model.forecaster;
    }
  }
  ASSERT_NE(offline, nullptr);

  ModelRegistry registry = OpenRegistry();
  StatusOr<GenerationPublisher> publisher = registry.NewGeneration();
  ASSERT_TRUE(publisher.ok()) << publisher.status().ToString();
  size_t warm_published = 0;
  for (const VehicleDataset& ds : warm) {
    const size_t n = ds.num_days();
    VehicleForecaster own(options.forecaster);
    if (n <= options.train_window ||
        !own.Train(ds, n - options.train_window, n).ok()) {
      continue;  // Too short: served by the hierarchy.
    }
    ASSERT_TRUE(publisher.value().Add(ds.info().vehicle_id, own).ok());
    ++warm_published;
  }
  EXPECT_GT(warm_published, 0u);
  for (const cluster::PooledModel& model : pooled.value()) {
    ASSERT_TRUE(publisher.value().Add(model.model_id, model.forecaster).ok());
  }
  ASSERT_TRUE(cluster::WriteClustersMetaFile(publisher.value().staging_dir(),
                                             meta.value())
                  .ok());
  ASSERT_TRUE(publisher.value().Commit(RegistryMeta()).ok());
  ASSERT_TRUE(registry.Reload().ok());

  PredictionService::Options opts;
  opts.hierarchy = &meta.value();
  PredictionService service(&registry, nullptr, opts);
  PredictionResponse resp =
      service.Predict(PredictionRequest(cold_id, cold, cold->num_days()));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.level, ServedLevel::kCluster);
  EXPECT_FALSE(resp.degraded);
  EXPECT_EQ(service.fallback_counts().cluster, 1u);
  // Bitwise: the served bundle is the offline cluster model itself.
  StatusOr<double> expected = offline->PredictTarget(*cold, cold->num_days());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(std::bit_cast<uint64_t>(resp.prediction),
            std::bit_cast<uint64_t>(expected.value()));
}

TEST_F(HierarchyFallbackTest, ServedLevelNamesAreStable) {
  EXPECT_EQ(ServedLevelToString(ServedLevel::kVehicle), "vehicle");
  EXPECT_EQ(ServedLevelToString(ServedLevel::kCluster), "cluster");
  EXPECT_EQ(ServedLevelToString(ServedLevel::kType), "type");
  EXPECT_EQ(ServedLevelToString(ServedLevel::kGlobal), "global");
  EXPECT_EQ(ServedLevelToString(ServedLevel::kBaseline), "baseline");
}

}  // namespace
}  // namespace vup::serve
