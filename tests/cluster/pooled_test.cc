#include "cluster/pooled.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

namespace vup::cluster {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

/// Weekday worker at `level` hours; odd types to spread the type models.
VehicleDataset MakeDataset(int64_t vehicle_id, int type, double level,
                           int n = 200) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    r.hours = wd < 5 ? level + 0.2 * wd + 0.05 * (i % 3) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 10;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = vehicle_id;
  info.type = static_cast<VehicleType>(type);
  return VehicleDataset::Build(info, recs, Italy()).value();
}

/// Small two-behavior fleet: ids 1..3 light users of type 1, ids 4..6
/// heavy users of type 4.
std::vector<VehicleDataset> MakeFleet() {
  std::vector<VehicleDataset> fleet;
  for (int64_t id = 1; id <= 3; ++id) {
    fleet.push_back(MakeDataset(id, 1, 2.0 + 0.2 * static_cast<double>(id)));
  }
  for (int64_t id = 4; id <= 6; ++id) {
    fleet.push_back(MakeDataset(id, 4, 9.0 + 0.2 * static_cast<double>(id)));
  }
  return fleet;
}

ForecasterConfig LassoConfig() {
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLasso;
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  return cfg;
}

TEST(BuildFleetClusteringTest, SeparatesBehaviorsDeterministically) {
  std::vector<VehicleDataset> fleet = MakeFleet();
  ProfileConfig pconfig;
  KMeansConfig kconfig;
  kconfig.k = 2;
  StatusOr<ClustersMeta> meta =
      BuildFleetClustering(fleet, pconfig, kconfig);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_EQ(meta.value().vehicles.size(), 6u);
  EXPECT_EQ(meta.value().k(), 2u);
  // Light and heavy users split cleanly.
  const int light = meta.value().ClusterOf(1).value();
  const int heavy = meta.value().ClusterOf(4).value();
  EXPECT_NE(light, heavy);
  for (int64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(meta.value().ClusterOf(id).value(), light) << "vehicle " << id;
  }
  for (int64_t id = 4; id <= 6; ++id) {
    EXPECT_EQ(meta.value().ClusterOf(id).value(), heavy) << "vehicle " << id;
  }

  // Same inputs, same bytes -- and input order must not matter.
  StatusOr<ClustersMeta> again =
      BuildFleetClustering(fleet, pconfig, kconfig);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().Serialize(), meta.value().Serialize());

  std::vector<VehicleDataset> shuffled = fleet;
  std::rotate(shuffled.begin(), shuffled.begin() + 3, shuffled.end());
  std::swap(shuffled[0], shuffled[2]);
  StatusOr<ClustersMeta> reordered =
      BuildFleetClustering(shuffled, pconfig, kconfig);
  ASSERT_TRUE(reordered.ok());
  EXPECT_EQ(reordered.value().Serialize(), meta.value().Serialize());
}

TEST(BuildFleetClusteringTest, RejectsBadInput) {
  ProfileConfig pconfig;
  KMeansConfig kconfig;
  EXPECT_TRUE(BuildFleetClustering({}, pconfig, kconfig)
                  .status()
                  .IsInvalidArgument());

  std::vector<VehicleDataset> dup = {MakeDataset(1, 0, 3.0),
                                     MakeDataset(1, 0, 4.0)};
  EXPECT_TRUE(BuildFleetClustering(dup, pconfig, kconfig)
                  .status()
                  .IsInvalidArgument());
}

TEST(TrainPooledHierarchyTest, ProducesExpectedModelIds) {
  std::vector<VehicleDataset> fleet = MakeFleet();
  ProfileConfig pconfig;
  KMeansConfig kconfig;
  kconfig.k = 2;
  StatusOr<ClustersMeta> meta =
      BuildFleetClustering(fleet, pconfig, kconfig);
  ASSERT_TRUE(meta.ok());

  PooledTrainingOptions options;
  options.forecaster = LassoConfig();
  StatusOr<std::vector<PooledModel>> models =
      TrainPooledHierarchy(fleet, meta.value(), options);
  ASSERT_TRUE(models.ok()) << models.status().ToString();

  std::vector<int64_t> ids;
  for (const PooledModel& m : models.value()) ids.push_back(m.model_id);
  // Ascending by model id: global, type 4, type 1, cluster 1, cluster 0.
  std::vector<int64_t> expected = {kGlobalModelId, TypeModelId(4),
                                   TypeModelId(1), ClusterModelId(1),
                                   ClusterModelId(0)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ids, expected);

  // Every pooled model predicts any member vehicle and survives a
  // Save/Load round trip with identical predictions.
  const VehicleDataset& probe = fleet[0];
  const size_t target = probe.num_days() - 1;
  for (const PooledModel& m : models.value()) {
    StatusOr<double> before = m.forecaster.PredictTarget(probe, target);
    ASSERT_TRUE(before.ok()) << "model " << m.model_id;
    std::stringstream buffer;
    ASSERT_TRUE(m.forecaster.Save(buffer).ok());
    StatusOr<VehicleForecaster> loaded = VehicleForecaster::Load(buffer);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    StatusOr<double> after = loaded.value().PredictTarget(probe, target);
    ASSERT_TRUE(after.ok());
    EXPECT_DOUBLE_EQ(after.value(), before.value());
  }
}

TEST(TrainPooledHierarchyTest, SkipsVehiclesOutsideMetaOrTooShort) {
  std::vector<VehicleDataset> fleet = MakeFleet();
  ProfileConfig pconfig;
  KMeansConfig kconfig;
  kconfig.k = 2;
  StatusOr<ClustersMeta> meta =
      BuildFleetClustering(fleet, pconfig, kconfig);
  ASSERT_TRUE(meta.ok());

  // A stranger vehicle and a too-short vehicle must not contribute (and
  // must not fail the run).
  fleet.push_back(MakeDataset(99, 7, 5.0));           // Not in meta.
  fleet.push_back(MakeDataset(7, 1, 3.0, /*n=*/10));  // Too short.
  PooledTrainingOptions options;
  options.forecaster = LassoConfig();
  StatusOr<std::vector<PooledModel>> models =
      TrainPooledHierarchy(fleet, meta.value(), options);
  ASSERT_TRUE(models.ok());
  for (const PooledModel& m : models.value()) {
    EXPECT_NE(m.model_id, TypeModelId(7));  // Only the stranger has type 7.
  }
}

TEST(EvaluateHierarchyTest, ReportsFinitePerLevelErrors) {
  std::vector<VehicleDataset> fleet = MakeFleet();
  ProfileConfig pconfig;
  KMeansConfig kconfig;
  kconfig.k = 2;
  StatusOr<ClustersMeta> meta =
      BuildFleetClustering(fleet, pconfig, kconfig);
  ASSERT_TRUE(meta.ok());

  // One vehicle too short for the schedule: counted as skipped.
  fleet.push_back(MakeDataset(50, 1, 4.0, /*n=*/20));
  PooledTrainingOptions options;
  options.forecaster = LassoConfig();
  options.holdout_days = 28;
  StatusOr<HierarchyEvaluation> eval =
      EvaluateHierarchy(fleet, meta.value(), options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();

  EXPECT_EQ(eval.value().per_vehicle.vehicles, 6u);
  EXPECT_EQ(eval.value().per_cluster.vehicles, 6u);
  EXPECT_EQ(eval.value().global.vehicles, 6u);
  EXPECT_GE(eval.value().vehicles_skipped, 1u);
  for (const HierarchyLevelReport* report :
       {&eval.value().per_vehicle, &eval.value().per_cluster,
        &eval.value().global}) {
    EXPECT_TRUE(std::isfinite(report->mean_pe));
    EXPECT_TRUE(std::isfinite(report->median_pe));
    EXPECT_GE(report->mean_pe, 0.0);
    ASSERT_EQ(report->per_vehicle_pe.size(), 6u);
    for (double pe : report->per_vehicle_pe) {
      EXPECT_TRUE(std::isfinite(pe));
    }
  }
}

TEST(EvaluateHierarchyTest, NoEvaluableVehicleIsAnError) {
  std::vector<VehicleDataset> fleet = MakeFleet();
  ProfileConfig pconfig;
  KMeansConfig kconfig;
  kconfig.k = 2;
  StatusOr<ClustersMeta> meta =
      BuildFleetClustering(fleet, pconfig, kconfig);
  ASSERT_TRUE(meta.ok());

  // A holdout longer than every series leaves nothing to score: no PE
  // exists, so there is no report to print as 0.00 %.
  PooledTrainingOptions options;
  options.forecaster = LassoConfig();
  options.holdout_days = 500;
  EXPECT_TRUE(EvaluateHierarchy(fleet, meta.value(), options)
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace vup::cluster
