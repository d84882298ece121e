#ifndef VUPRED_SERVE_VALIDATOR_H_
#define VUPRED_SERVE_VALIDATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "pipeline/dataset.h"

namespace vup::serve {

/// Publish-gate knobs. The defaults are deliberately loose: the gate
/// exists to catch a broken generation (corrupt bundle, exploding model,
/// regression against the live fleet), not to second-guess a merely
/// mediocre one.
struct ValidationOptions {
  /// Deterministic sanity probes per model: the last `probe_targets`
  /// one-step-ahead targets of the vehicle's dataset are scored.
  int probe_targets = 3;
  /// A probe output above this (in absolute hours) is a bound breach --
  /// daily utilization beyond 48h is physically impossible twice over.
  double max_abs_hours = 48.0;
  /// Holdout span for the staged-vs-live guardrail: the last
  /// `holdout_days` targets with actuals are scored by both generations.
  int holdout_days = 14;
  /// Staged PE may be at most this multiple of the live PE before the
  /// guardrail trips.
  double max_pe_regression_ratio = 1.25;
  /// Floor for the live PE in the ratio test, so a near-perfect live
  /// generation cannot make any real successor look like a regression.
  double min_live_pe = 0.5;
};

/// Everything the gate measured, whether or not it passed. `failures`
/// carries one human-readable line per defect for logs and CLI output.
struct ValidationReport {
  size_t models_checked = 0;
  size_t deserialize_failures = 0;  // Bundles Load refused.
  size_t probe_failures = 0;        // Probes that returned an error.
  size_t nonfinite_outputs = 0;     // Probes that produced NaN/inf.
  size_t bound_breaches = 0;        // Probes outside [-max, max] hours.
  size_t holdout_points = 0;        // Holdout targets both fleets scored.
  double staged_pe = 0.0;           // Holdout percentage error, staged.
  double live_pe = 0.0;             // Holdout percentage error, live.
  bool pe_guardrail_breached = false;
  std::vector<std::string> failures;

  bool ok() const {
    return deserialize_failures == 0 && probe_failures == 0 &&
           nonfinite_outputs == 0 && bound_breaches == 0 &&
           !pe_guardrail_breached;
  }

  std::string Summary() const;
};

/// Validates every staged model bundle before the generation may be
/// promoted. `staged_dir` is a finalized generation: each bundle its
/// MANIFEST lists is checked against its entry (size and CRC-32 trailer)
/// and decoded -- a mismatch is a deserialize failure -- and then scored
/// on deterministic sanity probes against `probe_data` (keyed by vehicle
/// id; pooled models -- negative reserved ids -- are probed on the first
/// dataset). When `live_dir` is non-empty, a shared holdout is scored
/// against the bundles the live MANIFEST lists to enforce the PE
/// guardrail; a live bundle that does not match its entry is skipped, as
/// the registry quarantines it. Files a MANIFEST does not list are never
/// read.
///
/// Returns the report even when the gate fails -- callers decide via
/// report.ok(). A Status error means the gate itself could not run (a
/// MANIFEST missing or damaged), not that a model failed it.
StatusOr<ValidationReport> ValidateGeneration(
    const std::string& staged_dir, const std::string& live_dir,
    const std::map<int64_t, const VehicleDataset*>& probe_data,
    const ValidationOptions& options = {});

}  // namespace vup::serve

#endif  // VUPRED_SERVE_VALIDATOR_H_
