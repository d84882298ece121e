#ifndef VUPRED_SERVE_PREDICTION_SERVICE_H_
#define VUPRED_SERVE_PREDICTION_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "pipeline/dataset.h"
#include "serve/guarded_publish.h"
#include "serve/model_registry.h"
#include "serve/serving_stats.h"

namespace vup::serve {

/// Registry id of the fleet-wide pooled model `vupred publish` stages
/// next to the per-vehicle bundles (file vehicle_-3000.cfcst), far below
/// any real vehicle id.
inline constexpr int64_t kGlobalModelId = -3000;

/// Which level of the fallback chain actually served a prediction.
enum class ServedLevel : int {
  kNone = 0,      // Nothing served (error response).
  kVehicle = 1,   // The vehicle's own model.
  kGlobal = 2,    // The fleet-wide pooled model.
  kBaseline = 3,  // Last-Value degradation.
};

std::string_view ServedLevelToString(ServedLevel level);

/// One scoring request: predict the utilization hours of `dataset` row
/// `target_index` (which may equal dataset->num_days() for the one-step-
/// ahead forecast) using the model registered for `vehicle_id`.
///
/// The dataset is the vehicle's recent feature window; it must outlive the
/// call and is not modified.
struct PredictionRequest {
  PredictionRequest() = default;
  PredictionRequest(int64_t vehicle_id_in, const VehicleDataset* dataset_in,
                    size_t target_index_in,
                    Deadline deadline_in = Deadline())
      : vehicle_id(vehicle_id_in),
        dataset(dataset_in),
        target_index(target_index_in),
        deadline(deadline_in) {}

  int64_t vehicle_id = 0;
  const VehicleDataset* dataset = nullptr;
  size_t target_index = 0;
  /// Scoring must start before this deadline; expired requests return
  /// DeadlineExceeded without fetching a model or occupying a pool
  /// worker. Defaults to no deadline.
  Deadline deadline;
};

/// Outcome of one request. `status` is OK when `prediction` is usable;
/// `degraded` marks predictions served by the Last-Value fallback because
/// the vehicle has no registered model. Shed requests carry Unavailable,
/// expired ones DeadlineExceeded.
struct PredictionResponse {
  int64_t vehicle_id = 0;
  Status status;
  double prediction = 0.0;
  bool degraded = false;
  double latency_seconds = 0.0;
  /// Fallback level that produced `prediction` (kVehicle when the
  /// vehicle's own model served; kNone on error responses).
  ServedLevel level = ServedLevel::kNone;
};

/// What to do with a batch that does not fit the admission queue.
enum class OverloadPolicy {
  kBlock = 0,       // Back-pressure: wait for in-flight work to drain.
  kShedNewest = 1,  // Reject the newest (latest-arriving) excess requests.
  kShedOldest = 2,  // Reject the oldest requests, prefer fresh work.
};

/// The online scoring path: stateless request/response layer over a
/// ModelRegistry and a shared ThreadPool.
///
/// Batched requests are grouped per vehicle so each group fetches its model
/// once, then the groups are scored concurrently on the pool (inline when
/// no pool is supplied or the pool is shut down). Responses come back in
/// request order regardless of scheduling.
///
/// Overload: with `admission_capacity` > 0 at most that many admitted
/// requests are queued-or-scoring at once. A batch that does not fit is
/// handled per `overload_policy`: kBlock applies back-pressure (admission
/// waits, group by group, for in-flight work to drain; a group larger than
/// the whole capacity waits for an empty queue, so it always makes
/// progress); the shed policies decide up front -- deterministically, in
/// request order -- which requests get the available slots and reject the
/// rest with Unavailable (counted in ServingStats::shed). The inline path
/// (no pool, or pool shut down) bypasses admission entirely: inline callers
/// provide their own back-pressure and nothing is ever dropped there.
///
/// Degradation: when the registry has no bundle for a vehicle and
/// `degrade_to_baseline` is set, the request is served by the Last-Value
/// baseline over the dataset's history (mirroring the fleet runner's
/// degrade-before-quarantine policy) and flagged `degraded`.
///
/// Global fallback: a vehicle whose own model is missing (NotFound) *or*
/// breaker-degraded (Unavailable) is served by the global pooled model
/// (kGlobalModelId) when the active MANIFEST lists it, before any
/// baseline. Every request served below the vehicle level increments
/// vupred_registry_fallback_total{level=...}. Without a listed, loadable
/// global bundle the per-vehicle status applies (NotFound then degrades
/// to Last-Value; breaker-open stays Unavailable).
class PredictionService {
 public:
  struct Options {
    bool degrade_to_baseline = true;
    /// Clamp predictions to the physical range [0, 24] hours (matches the
    /// offline forecaster default).
    bool clamp_predictions = true;
    /// Maximum admitted (queued or scoring) requests; 0 = unbounded.
    size_t admission_capacity = 0;
    OverloadPolicy overload_policy = OverloadPolicy::kBlock;
    /// Time source for deadline checks; null means Clock::Real().
    const Clock* clock = nullptr;
    /// Canary rollout: when `canary.staged` is set, requests whose vehicle
    /// falls in the seeded hash-slice are *shadow-scored* against the
    /// staged registry after the live answer is produced. The live answer
    /// is always the one returned -- the canary only observes. Divergence,
    /// non-finite staged outputs and staged-only errors accumulate in
    /// canary_counts(); EvaluateCanary() turns them into the promotion
    /// verdict. The staged registry must outlive the service.
    CanaryOptions canary;
  };

  /// Requests served below the vehicle level, per level, since
  /// construction (the counters behind
  /// vupred_registry_fallback_total{level=...}).
  struct FallbackSnapshot {
    size_t global = 0;
    size_t baseline = 0;
  };

  /// `registry` must outlive the service; `pool` may be null (inline
  /// scoring).
  PredictionService(ModelRegistry* registry, ThreadPool* pool);
  PredictionService(ModelRegistry* registry, ThreadPool* pool,
                    Options options);

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Scores one request inline (deadline honored, admission bypassed).
  PredictionResponse Predict(const PredictionRequest& request);

  /// Scores a batch: admission control, then grouping per vehicle and one
  /// pool task per group.
  std::vector<PredictionResponse> PredictBatch(
      std::span<const PredictionRequest> requests);

  ServingStatsSnapshot stats() const { return stats_.Snapshot(); }
  FallbackSnapshot fallback_counts() const;

  /// Point-in-time copy of the canary shadow counters (all zero when no
  /// canary is configured).
  CanarySnapshot canary_counts() const;

  /// Guardrail verdict over the accumulated canary evidence.
  CanaryVerdict EvaluateCanary() const;
  std::string LatencyHistogramToString() const {
    return stats_.HistogramToString();
  }

  /// Appends the vupred_serve_* families and the labeled
  /// vupred_registry_fallback_total family to `out`.
  void CollectMetrics(obs::MetricsSnapshot* out,
                      const obs::LabelSet& labels = {}) const;

 private:
  /// Scores requests[i] for each i in `positions` (all the same vehicle),
  /// writing responses[i]. Requests whose deadline has expired fail fast;
  /// the model (own or global) is resolved once and only if some request
  /// is still live.
  void ScoreGroup(std::span<const PredictionRequest> requests,
                  const std::vector<size_t>& positions,
                  std::vector<PredictionResponse>* responses);

  /// Resolves the model serving this group: the vehicle's own bundle, or
  /// -- when that is missing/breaker-open -- the listed global bundle. On
  /// failure returns the *vehicle-level* status (the fallback adds an
  /// option, not new error modes).
  struct ResolvedModel {
    std::shared_ptr<const VehicleForecaster> model;
    Status status;
    ServedLevel level = ServedLevel::kNone;
  };
  ResolvedModel ResolveModel(const PredictionRequest& request);

  /// The same resolution against an arbitrary registry -- the live
  /// one for serving, the staged one for canary shadow scoring.
  ResolvedModel ResolveModelFrom(ModelRegistry* registry,
                                 const PredictionRequest& request);

  /// Scores `request` against the staged registry and accumulates the
  /// divergence from `live_prediction`. Never touches the response.
  void ShadowScore(const PredictionRequest& request, double live_prediction);

  PredictionResponse ScoreOne(const VehicleForecaster* model,
                              const Status& model_status, ServedLevel level,
                              const PredictionRequest& request);

  const Clock& clock() const {
    return options_.clock != nullptr ? *options_.clock : Clock::Real();
  }

  /// Blocks until `count` more requests fit the admission queue (kBlock
  /// policy). Oversized groups are admitted as soon as the queue is empty.
  void AdmitBlocking(size_t count);

  /// Returns `count` admission slots and wakes blocked admitters.
  void ReleaseAdmission(size_t count);

  ModelRegistry* registry_;
  ThreadPool* pool_;
  Options options_;
  ServingStats stats_;

  /// Per-service fallback counters (obs instruments so CollectMetrics can
  /// export them labeled without double bookkeeping).
  struct FallbackCounters {
    obs::Counter global;
    obs::Counter baseline;
  };
  FallbackCounters fallback_;

  /// Canary shadow counters (only touched when options_.canary.enabled()).
  struct CanaryCounters {
    obs::Counter shadow_scores;
    obs::Counter divergence_breaches;
    obs::Counter nonfinite_outputs;
    obs::Counter shadow_errors;
  };
  CanaryCounters canary_;
  mutable std::mutex canary_mu_;  // Guards the divergence extrema below.
  double canary_max_abs_divergence_ = 0.0;
  double canary_sum_abs_divergence_ = 0.0;

  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  size_t queued_ = 0;  // Admitted requests not yet finished.
};

}  // namespace vup::serve

#endif  // VUPRED_SERVE_PREDICTION_SERVICE_H_
