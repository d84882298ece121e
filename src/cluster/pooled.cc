#include "cluster/pooled.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common/string_util.h"
#include "ml/metrics.h"
#include "obs/trace.h"

namespace vup::cluster {

namespace {

/// The shared training span of one vehicle under the schedule, or nullopt
/// when the series is too short to honor it.
struct Span {
  size_t train_begin = 0;
  size_t train_end = 0;
};

std::optional<Span> ScheduleSpan(const VehicleDataset& ds,
                                 const PooledTrainingOptions& options) {
  const size_t w = options.forecaster.windowing.lookback_w;
  if (ds.num_days() < options.holdout_days) return std::nullopt;
  const size_t train_end = ds.num_days() - options.holdout_days;
  if (train_end < w + 2) return std::nullopt;
  const size_t train_begin =
      std::max(w, train_end - std::min(train_end - w, options.train_window));
  if (train_end - train_begin < 2) return std::nullopt;
  return Span{train_begin, train_end};
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1
             ? values[mid]
             : 0.5 * (values[mid - 1] + values[mid]);
}

void FinishReport(HierarchyLevelReport* report) {
  report->vehicles = report->per_vehicle_pe.size();
  double sum = 0.0;
  for (double pe : report->per_vehicle_pe) sum += pe;
  report->mean_pe = sum / static_cast<double>(report->vehicles);
  report->median_pe = MedianOf(report->per_vehicle_pe);
}

}  // namespace

StatusOr<ClustersMeta> BuildFleetClustering(
    const std::vector<VehicleDataset>& datasets,
    const ProfileConfig& profile_config, const KMeansConfig& kmeans_config) {
  obs::TraceSpan span("cluster.build");
  if (datasets.empty()) {
    return Status::InvalidArgument("no datasets to cluster");
  }

  // Profiles in ascending vehicle_id order, so the meta does not depend on
  // the order of `datasets`.
  std::vector<const VehicleDataset*> ordered;
  ordered.reserve(datasets.size());
  for (const VehicleDataset& ds : datasets) ordered.push_back(&ds);
  std::sort(ordered.begin(), ordered.end(),
            [](const VehicleDataset* a, const VehicleDataset* b) {
              return a->info().vehicle_id < b->info().vehicle_id;
            });
  for (size_t i = 1; i < ordered.size(); ++i) {
    if (ordered[i]->info().vehicle_id == ordered[i - 1]->info().vehicle_id) {
      return Status::InvalidArgument("duplicate vehicle_id in fleet");
    }
  }

  std::vector<UsageProfile> profiles;
  profiles.reserve(ordered.size());
  {
    obs::TraceSpan extract_span("cluster.profiles");
    for (const VehicleDataset* ds : ordered) {
      VUP_ASSIGN_OR_RETURN(UsageProfile profile,
                           ExtractProfile(*ds, profile_config));
      profiles.push_back(std::move(profile));
    }
  }

  VUP_ASSIGN_OR_RETURN(ProfileScaling scaling, ProfileScaling::Fit(profiles));
  std::vector<std::vector<double>> points;
  points.reserve(profiles.size());
  for (const UsageProfile& p : profiles) {
    VUP_ASSIGN_OR_RETURN(std::vector<double> point, scaling.Apply(p));
    points.push_back(std::move(point));
  }

  StatusOr<KMeansResult> result = [&] {
    obs::TraceSpan kmeans_span("cluster.kmeans");
    return KMeans(points, kmeans_config);
  }();
  VUP_RETURN_IF_ERROR(result.status());

  ClustersMeta meta;
  meta.seed = kmeans_config.seed;
  meta.acf_lags = profile_config.acf_lags;
  meta.inertia = result.value().inertia;
  meta.scaling = std::move(scaling);
  meta.centroids = std::move(result.value().centroids);
  meta.vehicles.reserve(profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    VehicleAssignment v;
    v.vehicle_id = profiles[i].vehicle_id;
    v.cluster_id = result.value().assignments[i];
    v.vehicle_type = profiles[i].vehicle_type;
    meta.vehicles.push_back(v);
  }
  return meta;
}

StatusOr<std::vector<PooledModel>> TrainPooledHierarchy(
    const std::vector<VehicleDataset>& datasets, const ClustersMeta& meta,
    const PooledTrainingOptions& options) {
  obs::TraceSpan span("cluster.train_pooled");

  // Group the trainable member spans per pooled model id. Ordered map +
  // ascending-vehicle iteration keeps stacking order deterministic.
  std::map<int64_t, std::vector<PooledTrainingSpan>> groups;
  std::vector<const VehicleDataset*> ordered;
  ordered.reserve(datasets.size());
  for (const VehicleDataset& ds : datasets) ordered.push_back(&ds);
  std::sort(ordered.begin(), ordered.end(),
            [](const VehicleDataset* a, const VehicleDataset* b) {
              return a->info().vehicle_id < b->info().vehicle_id;
            });

  for (const VehicleDataset* ds : ordered) {
    std::optional<Span> span_of = ScheduleSpan(*ds, options);
    if (!span_of.has_value()) continue;
    StatusOr<int> cluster = meta.ClusterOf(ds->info().vehicle_id);
    if (!cluster.ok()) continue;  // Not part of the clustered fleet.
    PooledTrainingSpan member{ds, span_of->train_begin, span_of->train_end};
    groups[ClusterModelId(cluster.value())].push_back(member);
    groups[TypeModelId(static_cast<int>(ds->info().type))].push_back(member);
    groups[kGlobalModelId].push_back(member);
  }

  std::vector<PooledModel> models;
  models.reserve(groups.size());
  for (const auto& [model_id, members] : groups) {
    StatusOr<VehicleForecaster> pooled =
        VehicleForecaster::TrainPooled(members, options.forecaster);
    if (!pooled.ok()) continue;  // Too few records at this level: no model.
    models.push_back(PooledModel{model_id, std::move(pooled.value())});
  }
  return models;
}

StatusOr<HierarchyEvaluation> EvaluateHierarchy(
    const std::vector<VehicleDataset>& datasets, const ClustersMeta& meta,
    const PooledTrainingOptions& options) {
  obs::TraceSpan span("cluster.evaluate");
  VUP_ASSIGN_OR_RETURN(std::vector<PooledModel> pooled,
                       TrainPooledHierarchy(datasets, meta, options));
  auto find_model = [&pooled](int64_t id) -> const VehicleForecaster* {
    for (const PooledModel& m : pooled) {
      if (m.model_id == id) return &m.forecaster;
    }
    return nullptr;
  };

  HierarchyEvaluation eval;
  for (const VehicleDataset& ds : datasets) {
    std::optional<Span> span_of = ScheduleSpan(ds, options);
    StatusOr<int> cluster = meta.ClusterOf(ds.info().vehicle_id);
    if (!span_of.has_value() || !cluster.ok()) {
      ++eval.vehicles_skipped;
      continue;
    }

    // Per-vehicle model on the same schedule.
    VehicleForecaster own(options.forecaster);
    Status trained = own.Train(ds, span_of->train_begin, span_of->train_end);
    const VehicleForecaster* cluster_model =
        find_model(ClusterModelId(cluster.value()));
    const VehicleForecaster* global_model = find_model(kGlobalModelId);
    if (!trained.ok() || cluster_model == nullptr ||
        global_model == nullptr) {
      ++eval.vehicles_skipped;
      continue;
    }

    std::vector<double> actuals, own_pred, cluster_pred, global_pred;
    bool complete = true;
    for (size_t t = span_of->train_end; t < ds.num_days(); ++t) {
      StatusOr<double> p_own = own.PredictTarget(ds, t);
      StatusOr<double> p_cluster = cluster_model->PredictTarget(ds, t);
      StatusOr<double> p_global = global_model->PredictTarget(ds, t);
      if (!p_own.ok() || !p_cluster.ok() || !p_global.ok()) {
        complete = false;
        break;
      }
      actuals.push_back(ds.hours()[t]);
      own_pred.push_back(p_own.value());
      cluster_pred.push_back(p_cluster.value());
      global_pred.push_back(p_global.value());
    }
    if (!complete || actuals.empty()) {
      ++eval.vehicles_skipped;
      continue;
    }
    const double pe_own = PercentageError(own_pred, actuals);
    const double pe_cluster = PercentageError(cluster_pred, actuals);
    const double pe_global = PercentageError(global_pred, actuals);
    if (!std::isfinite(pe_own) || !std::isfinite(pe_cluster) ||
        !std::isfinite(pe_global)) {
      ++eval.vehicles_skipped;  // Degenerate all-zero holdout.
      continue;
    }
    eval.per_vehicle.per_vehicle_pe.push_back(pe_own);
    eval.per_cluster.per_vehicle_pe.push_back(pe_cluster);
    eval.global.per_vehicle_pe.push_back(pe_global);
  }
  if (eval.per_vehicle.per_vehicle_pe.empty()) {
    return Status::FailedPrecondition(StrFormat(
        "no vehicle was evaluable under the holdout schedule (%zu skipped)",
        eval.vehicles_skipped));
  }
  FinishReport(&eval.per_vehicle);
  FinishReport(&eval.per_cluster);
  FinishReport(&eval.global);
  return eval;
}

}  // namespace vup::cluster
