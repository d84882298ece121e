#ifndef VUPRED_CLUSTER_POOLED_H_
#define VUPRED_CLUSTER_POOLED_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster_meta.h"
#include "cluster/kmeans.h"
#include "cluster/profile.h"
#include "common/statusor.h"
#include "core/forecaster.h"
#include "pipeline/dataset.h"

namespace vup::cluster {

/// Extracts profiles, standardizes them, runs seeded k-means and returns
/// the persistable ClustersMeta. Vehicles are recorded in ascending
/// vehicle_id order; everything is deterministic in (datasets, configs),
/// independent of the order of `datasets`.
StatusOr<ClustersMeta> BuildFleetClustering(
    const std::vector<VehicleDataset>& datasets,
    const ProfileConfig& profile_config, const KMeansConfig& kmeans_config);

/// Pooled-training schedule shared by every hierarchy level, so the
/// per-vehicle / per-cluster / global comparison is apples to apples:
/// each vehicle contributes the same training span [train_end -
/// train_window, train_end) with train_end = num_days - holdout_days, and
/// the trailing holdout_days targets are never trained on.
struct PooledTrainingOptions {
  ForecasterConfig forecaster;
  size_t train_window = 140;
  size_t holdout_days = 28;
};

/// One trained pooled bundle, keyed by its reserved registry model id
/// (ClusterModelId / TypeModelId / kGlobalModelId).
struct PooledModel {
  int64_t model_id = 0;
  VehicleForecaster forecaster;
};

/// Trains the pooled hierarchy: one model per cluster present in `meta`,
/// one per vehicle type present, and one global model over every vehicle.
/// Vehicles whose series is too short for the schedule are skipped (a
/// cluster whose members all skip produces no model; serving falls
/// through to the next level). Returned ascending by model_id.
StatusOr<std::vector<PooledModel>> TrainPooledHierarchy(
    const std::vector<VehicleDataset>& datasets, const ClustersMeta& meta,
    const PooledTrainingOptions& options);

/// PE of one hierarchy level over the shared holdout protocol.
struct HierarchyLevelReport {
  double mean_pe = 0.0;
  double median_pe = 0.0;
  size_t vehicles = 0;
  std::vector<double> per_vehicle_pe;
};

/// Per-vehicle vs per-cluster vs global comparison: every vehicle's
/// trailing holdout_days targets are predicted (without refit) by its own
/// model, its cluster's pooled model, and the global pooled model trained
/// on the same schedule.
struct HierarchyEvaluation {
  HierarchyLevelReport per_vehicle;
  HierarchyLevelReport per_cluster;
  HierarchyLevelReport global;
  size_t vehicles_skipped = 0;  // Too short for the schedule.
};

/// FailedPrecondition when no vehicle is evaluable under the schedule: a
/// report over zero vehicles has no PE to give.
StatusOr<HierarchyEvaluation> EvaluateHierarchy(
    const std::vector<VehicleDataset>& datasets, const ClustersMeta& meta,
    const PooledTrainingOptions& options);

}  // namespace vup::cluster

#endif  // VUPRED_CLUSTER_POOLED_H_
