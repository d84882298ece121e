#include "serve/validator.h"

#include <cmath>
#include <optional>
#include <span>

#include "common/string_util.h"
#include "core/forecaster.h"
#include "ml/metrics.h"
#include "serve/manifest.h"
#include "serve/model_registry.h"

namespace vup::serve {

namespace {

/// The probe dataset of `vehicle_id`: its own when listed, else (for a
/// pooled model under a negative id, which scores any vehicle's windows)
/// the first dataset on offer.
const VehicleDataset* ProbeDataset(
    const std::map<int64_t, const VehicleDataset*>& probe_data,
    int64_t vehicle_id) {
  auto it = probe_data.find(vehicle_id);
  if (it != probe_data.end()) return it->second;
  if (vehicle_id < 0 && !probe_data.empty()) {
    return probe_data.begin()->second;
  }
  return nullptr;
}

/// The bundles the MANIFEST of the live generation `dir` lists, each
/// checked against its entry. One that does not match is skipped, as the
/// registry quarantines it rather than serve it.
StatusOr<std::map<int64_t, VehicleForecaster>> LoadLiveBundles(
    const std::string& dir) {
  VUP_ASSIGN_OR_RETURN(const GenerationManifest manifest,
                       ReadManifestFile(dir));
  std::map<int64_t, VehicleForecaster> models;
  for (const ManifestEntry& entry : manifest.entries()) {
    std::optional<int64_t> id = ModelRegistry::ParseBundleFileName(entry.file);
    if (!id.has_value()) continue;
    StatusOr<VehicleForecaster> model = LoadListedBundle(dir, entry);
    if (model.ok()) models.emplace(*id, std::move(model).value());
  }
  return models;
}

}  // namespace

std::string ValidationReport::Summary() const {
  return StrFormat(
      "%zu models checked: %zu deserialize failures, %zu probe failures, "
      "%zu non-finite outputs, %zu bound breaches; holdout PE staged %.4f "
      "vs live %.4f over %zu points%s",
      models_checked, deserialize_failures, probe_failures,
      nonfinite_outputs, bound_breaches, staged_pe, live_pe, holdout_points,
      pe_guardrail_breached ? " (GUARDRAIL BREACHED)" : "");
}

StatusOr<ValidationReport> ValidateGeneration(
    const std::string& staged_dir, const std::string& live_dir,
    const std::map<int64_t, const VehicleDataset*>& probe_data,
    const ValidationOptions& options) {
  if (options.probe_targets < 0 || options.holdout_days < 0) {
    return Status::InvalidArgument("validation spans must be >= 0");
  }
  ValidationReport report;

  // Pass 1: every bundle the staged MANIFEST lists must match its entry,
  // deserialize and survive its probes.
  VUP_ASSIGN_OR_RETURN(const GenerationManifest manifest,
                       ReadManifestFile(staged_dir));
  std::map<int64_t, VehicleForecaster> staged;
  for (const ManifestEntry& entry : manifest.entries()) {
    const std::string& name = entry.file;
    std::optional<int64_t> id = ModelRegistry::ParseBundleFileName(name);
    if (!id.has_value()) continue;
    ++report.models_checked;
    StatusOr<VehicleForecaster> model = LoadListedBundle(staged_dir, entry);
    if (!model.ok()) {
      ++report.deserialize_failures;
      report.failures.push_back(name + " does not deserialize: " +
                                model.status().ToString());
      continue;
    }
    const VehicleDataset* ds = ProbeDataset(probe_data, *id);
    if (ds == nullptr || options.probe_targets == 0) continue;
    // Deterministic sanity probes: the most recent one-step-ahead targets,
    // including the true forecast target at index num_days().
    const size_t n = ds->num_days();
    const size_t probes =
        std::min<size_t>(static_cast<size_t>(options.probe_targets), n + 1);
    for (size_t k = 0; k < probes; ++k) {
      const size_t target = n - k;
      StatusOr<double> predicted = model.value().PredictTarget(*ds, target);
      if (!predicted.ok()) {
        ++report.probe_failures;
        report.failures.push_back(StrFormat(
            "%s probe at target %zu failed: %s", name.c_str(), target,
            predicted.status().ToString().c_str()));
        continue;
      }
      if (!std::isfinite(predicted.value())) {
        ++report.nonfinite_outputs;
        report.failures.push_back(StrFormat(
            "%s probe at target %zu is non-finite", name.c_str(), target));
      } else if (std::abs(predicted.value()) > options.max_abs_hours) {
        ++report.bound_breaches;
        report.failures.push_back(StrFormat(
            "%s probe at target %zu is %.2fh (bound %.2fh)", name.c_str(),
            target, predicted.value(), options.max_abs_hours));
      }
    }
    staged.emplace(*id, std::move(model).value());
  }

  // Pass 2: holdout PE guardrail against the live generation. Both fleets
  // score the same recent targets with known actuals; only vehicles with a
  // bundle on both sides and a probe dataset participate.
  if (!live_dir.empty() && options.holdout_days > 0) {
    StatusOr<std::map<int64_t, VehicleForecaster>> live_or =
        LoadLiveBundles(live_dir);
    if (!live_or.ok()) return live_or.status();
    std::map<int64_t, VehicleForecaster> live = std::move(live_or).value();
    std::vector<double> staged_pred, live_pred, actual;
    for (auto& [id, staged_model] : staged) {
      if (id < 0) continue;  // Pooled models are covered via their members.
      auto live_it = live.find(id);
      if (live_it == live.end()) continue;
      auto ds_it = probe_data.find(id);
      if (ds_it == probe_data.end()) continue;
      const VehicleDataset& ds = *ds_it->second;
      const size_t n = ds.num_days();
      const size_t span =
          std::min<size_t>(static_cast<size_t>(options.holdout_days), n);
      for (size_t k = 1; k <= span; ++k) {
        const size_t target = n - k;
        StatusOr<double> s = staged_model.PredictTarget(ds, target);
        StatusOr<double> l = live_it->second.PredictTarget(ds, target);
        if (!s.ok() || !l.ok()) continue;
        if (!std::isfinite(s.value()) || !std::isfinite(l.value())) continue;
        staged_pred.push_back(s.value());
        live_pred.push_back(l.value());
        actual.push_back(ds.hours()[target]);
      }
    }
    report.holdout_points = actual.size();
    if (!actual.empty()) {
      report.staged_pe = PercentageError(
          std::span<const double>(staged_pred), std::span<const double>(actual));
      report.live_pe = PercentageError(
          std::span<const double>(live_pred), std::span<const double>(actual));
      const double allowed = std::max(report.live_pe, options.min_live_pe) *
                             options.max_pe_regression_ratio;
      if (report.staged_pe > allowed) {
        report.pe_guardrail_breached = true;
        report.failures.push_back(StrFormat(
            "holdout PE guardrail: staged %.4f exceeds allowed %.4f "
            "(live %.4f x %.2f)",
            report.staged_pe, allowed, report.live_pe,
            options.max_pe_regression_ratio));
      }
    }
  }
  return report;
}

}  // namespace vup::serve
