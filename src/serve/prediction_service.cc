#include "serve/prediction_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "ml/baselines.h"
#include "obs/trace.h"

namespace vup::serve {

namespace {

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace

std::string_view ServedLevelToString(ServedLevel level) {
  switch (level) {
    case ServedLevel::kNone:
      return "none";
    case ServedLevel::kVehicle:
      return "vehicle";
    case ServedLevel::kGlobal:
      return "global";
    case ServedLevel::kBaseline:
      return "baseline";
  }
  return "?";
}

PredictionService::PredictionService(ModelRegistry* registry,
                                     ThreadPool* pool)
    : PredictionService(registry, pool, Options()) {}

PredictionService::PredictionService(ModelRegistry* registry,
                                     ThreadPool* pool, Options options)
    : registry_(registry), pool_(pool), options_(options) {
  VUP_CHECK(registry_ != nullptr);
}

PredictionService::ResolvedModel PredictionService::ResolveModel(
    const PredictionRequest& request) {
  return ResolveModelFrom(registry_, request);
}

PredictionService::ResolvedModel PredictionService::ResolveModelFrom(
    ModelRegistry* registry, const PredictionRequest& request) {
  ResolvedModel resolved;
  StatusOr<std::shared_ptr<const VehicleForecaster>> own =
      registry->Get(request.vehicle_id);
  if (own.ok()) {
    resolved.model = std::move(own.value());
    resolved.level = ServedLevel::kVehicle;
    return resolved;
  }
  resolved.status = own.status();

  // The global model stands in for a missing bundle (NotFound) and for a
  // breaker-degraded vehicle (Unavailable): an open per-vehicle breaker
  // means *that bundle* is suspect, not the pooled model. Any other error
  // is reported as-is. A generation that does not list the global bundle
  // is not asked for it, so the registry counts no miss for it.
  if ((!own.status().IsNotFound() && !own.status().IsUnavailable()) ||
      !registry->Contains(kGlobalModelId)) {
    return resolved;
  }
  StatusOr<std::shared_ptr<const VehicleForecaster>> global =
      registry->Get(kGlobalModelId);
  if (global.ok()) {
    resolved.model = std::move(global.value());
    resolved.level = ServedLevel::kGlobal;
  }
  // Otherwise the vehicle-level status decides what happens next
  // (NotFound may still degrade to the baseline in ScoreOne).
  return resolved;
}

PredictionResponse PredictionService::ScoreOne(
    const VehicleForecaster* model, const Status& model_status,
    ServedLevel level, const PredictionRequest& request) {
  obs::TraceSpan score_span("serve.score");
  ServingStats::InFlight gauge(&stats_);
  const auto start = std::chrono::steady_clock::now();

  PredictionResponse response;
  response.vehicle_id = request.vehicle_id;
  if (request.dataset == nullptr) {
    response.status =
        Status::InvalidArgument("request carries no dataset window");
  } else if (model != nullptr) {
    StatusOr<double> prediction =
        model->PredictTarget(*request.dataset, request.target_index);
    if (prediction.ok()) {
      response.prediction = prediction.value();
      response.level = level;
      if (level == ServedLevel::kGlobal) fallback_.global.Increment(1);
    } else {
      response.status = prediction.status();
    }
  } else if (model_status.IsNotFound() && options_.degrade_to_baseline) {
    // No registered model: serve the Last-Value baseline over the history
    // preceding the target, the same naive fallback the fleet runner
    // degrades to before quarantining.
    const VehicleDataset& ds = *request.dataset;
    if (request.target_index == 0 ||
        request.target_index > ds.num_days()) {
      response.status = Status::InvalidArgument(
          "baseline fallback needs at least one past day");
    } else {
      std::span<const double> history(ds.hours().data(),
                                      request.target_index);
      StatusOr<double> prediction = LastValueBaseline().Predict(history);
      if (prediction.ok()) {
        response.prediction = prediction.value();
        response.degraded = true;
        response.level = ServedLevel::kBaseline;
        fallback_.baseline.Increment(1);
      } else {
        response.status = prediction.status();
      }
    }
  } else {
    response.status = model_status;
  }

  if (response.status.ok() && options_.clamp_predictions) {
    response.prediction = std::clamp(response.prediction, 0.0, 24.0);
  }
  response.latency_seconds = Elapsed(start);
  stats_.RecordRequest(response.latency_seconds, response.status.ok(),
                       response.degraded);

  // Canary shadow scoring rides AFTER the live answer is final: the staged
  // generation observes real traffic for the hash-slice of vehicles but
  // can never change what this request returns.
  if (options_.canary.enabled() && response.status.ok() &&
      InCanarySlice(options_.canary.seed, options_.canary.fraction,
                    request.vehicle_id)) {
    ShadowScore(request, response.prediction);
  }
  return response;
}

void PredictionService::ShadowScore(const PredictionRequest& request,
                                    double live_prediction) {
  canary_.shadow_scores.Increment(1);
  ResolvedModel staged = ResolveModelFrom(options_.canary.staged, request);
  if (staged.model == nullptr) {
    // The live side served this request; a staged side that cannot is a
    // regression, whatever the error code.
    canary_.shadow_errors.Increment(1);
    return;
  }
  StatusOr<double> predicted =
      staged.model->PredictTarget(*request.dataset, request.target_index);
  if (!predicted.ok()) {
    canary_.shadow_errors.Increment(1);
    return;
  }
  // Finiteness first: clamping would silently fold an inf into 24h.
  if (!std::isfinite(predicted.value())) {
    canary_.nonfinite_outputs.Increment(1);
    return;
  }
  double staged_prediction = predicted.value();
  if (options_.clamp_predictions) {
    staged_prediction = std::clamp(staged_prediction, 0.0, 24.0);
  }
  const double divergence = std::abs(staged_prediction - live_prediction);
  {
    std::lock_guard<std::mutex> lock(canary_mu_);
    canary_max_abs_divergence_ =
        std::max(canary_max_abs_divergence_, divergence);
    canary_sum_abs_divergence_ += divergence;
  }
  if (divergence > options_.canary.divergence_hours) {
    canary_.divergence_breaches.Increment(1);
  }
}

CanarySnapshot PredictionService::canary_counts() const {
  CanarySnapshot snapshot;
  snapshot.shadow_scores = canary_.shadow_scores.value();
  snapshot.divergence_breaches = canary_.divergence_breaches.value();
  snapshot.nonfinite_outputs = canary_.nonfinite_outputs.value();
  snapshot.shadow_errors = canary_.shadow_errors.value();
  std::lock_guard<std::mutex> lock(canary_mu_);
  snapshot.max_abs_divergence = canary_max_abs_divergence_;
  snapshot.sum_abs_divergence = canary_sum_abs_divergence_;
  return snapshot;
}

CanaryVerdict PredictionService::EvaluateCanary() const {
  return JudgeCanary(canary_counts(), options_.canary);
}

void PredictionService::ScoreGroup(
    std::span<const PredictionRequest> requests,
    const std::vector<size_t>& positions,
    std::vector<PredictionResponse>* responses) {
  if (positions.empty()) return;

  // Expired requests fail fast, before any model IO; the model is fetched
  // only when at least one request in the group is still live.
  std::vector<size_t> live;
  live.reserve(positions.size());
  for (size_t position : positions) {
    const PredictionRequest& request = requests[position];
    if (request.deadline.Expired(clock())) {
      PredictionResponse& response = (*responses)[position];
      response.vehicle_id = request.vehicle_id;
      response.status = Status::DeadlineExceeded(StrFormat(
          "deadline expired before scoring vehicle %lld",
          static_cast<long long>(request.vehicle_id)));
      stats_.RecordDeadlineExceeded();
    } else {
      live.push_back(position);
    }
  }
  if (live.empty()) return;

  // One model resolution per vehicle group (own bundle, or the global
  // one); the shared_ptr keeps the model alive across the group even if
  // the LRU evicts it or a Reload swaps the generation meanwhile.
  ResolvedModel resolved = [&] {
    obs::TraceSpan span("serve.fetch");
    return ResolveModel(requests[live.front()]);
  }();
  for (size_t position : live) {
    (*responses)[position] = ScoreOne(resolved.model.get(), resolved.status,
                                      resolved.level, requests[position]);
  }
}

PredictionService::FallbackSnapshot PredictionService::fallback_counts()
    const {
  FallbackSnapshot snapshot;
  snapshot.global = static_cast<size_t>(fallback_.global.value());
  snapshot.baseline = static_cast<size_t>(fallback_.baseline.value());
  return snapshot;
}

void PredictionService::CollectMetrics(obs::MetricsSnapshot* out,
                                       const obs::LabelSet& labels) const {
  stats_.Collect(out, labels);
  obs::MetricFamily family;
  family.name = "vupred_registry_fallback_total";
  family.help =
      "Predictions served below the vehicle level: global model or "
      "Last-Value baseline.";
  family.type = obs::MetricType::kCounter;
  const FallbackSnapshot counts = fallback_counts();
  const std::pair<const char*, size_t> levels[] = {
      {"global", counts.global},
      {"baseline", counts.baseline},
  };
  for (const auto& [level, count] : levels) {
    obs::MetricSample sample;
    sample.labels = labels;
    sample.labels.emplace_back("level", level);
    sample.value = static_cast<double>(count);
    family.samples.push_back(std::move(sample));
  }
  out->families.push_back(std::move(family));

  // Canary families exist only while a canary is configured, so a plain
  // service's metric set is unchanged.
  if (options_.canary.enabled()) {
    const CanarySnapshot canary = canary_counts();
    obs::MetricFamily shadow;
    shadow.name = "vupred_publish_canary_shadow_total";
    shadow.help = "Requests shadow-scored against the staged generation.";
    shadow.type = obs::MetricType::kCounter;
    obs::MetricSample shadow_sample;
    shadow_sample.labels = labels;
    shadow_sample.value = static_cast<double>(canary.shadow_scores);
    shadow.samples.push_back(std::move(shadow_sample));
    out->families.push_back(std::move(shadow));

    obs::MetricFamily breaches;
    breaches.name = "vupred_publish_canary_breaches_total";
    breaches.help = "Canary guardrail breaches, by kind.";
    breaches.type = obs::MetricType::kCounter;
    const std::pair<const char*, uint64_t> kinds[] = {
        {"divergence", canary.divergence_breaches},
        {"nonfinite", canary.nonfinite_outputs},
        {"error", canary.shadow_errors},
    };
    for (const auto& [kind, count] : kinds) {
      obs::MetricSample sample;
      sample.labels = labels;
      sample.labels.emplace_back("kind", kind);
      sample.value = static_cast<double>(count);
      breaches.samples.push_back(std::move(sample));
    }
    out->families.push_back(std::move(breaches));
  }
}

PredictionResponse PredictionService::Predict(
    const PredictionRequest& request) {
  std::vector<PredictionResponse> responses(1);
  ScoreGroup(std::span<const PredictionRequest>(&request, 1), {0},
             &responses);
  return responses[0];
}

void PredictionService::AdmitBlocking(size_t count) {
  std::unique_lock<std::mutex> lock(admission_mu_);
  // A group larger than the whole capacity is admitted once the queue is
  // empty -- oversize work makes progress instead of deadlocking.
  admission_cv_.wait(lock, [&] {
    return queued_ == 0 ||
           queued_ + count <= options_.admission_capacity;
  });
  queued_ += count;
}

void PredictionService::ReleaseAdmission(size_t count) {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    queued_ -= std::min(count, queued_);
  }
  admission_cv_.notify_all();
}

std::vector<PredictionResponse> PredictionService::PredictBatch(
    std::span<const PredictionRequest> requests) {
  std::vector<PredictionResponse> responses(requests.size());
  if (requests.empty()) return responses;

  // Inline path: no pool, or the pool is already shut down. Admission is
  // bypassed -- the caller is the only producer and provides its own
  // back-pressure, so nothing may be dropped here.
  const bool pooled = pool_ != nullptr && pool_->accepting();

  // Shed policies decide up front which requests get the available slots.
  // This happens before any group is submitted, so for a synchronous
  // caller the shed set is a pure function of batch layout and capacity:
  // same batch, same seed, same counters.
  std::vector<char> shed(requests.size(), 0);
  const bool shedding =
      pooled && options_.admission_capacity > 0 &&
      options_.overload_policy != OverloadPolicy::kBlock;
  size_t admitted = requests.size();
  {
    obs::TraceSpan admission_span("serve.admission");
    if (shedding) {
      std::lock_guard<std::mutex> lock(admission_mu_);
      const size_t available =
          options_.admission_capacity > queued_
              ? options_.admission_capacity - queued_
              : 0;
      if (requests.size() > available) {
        admitted = available;
        const size_t excess = requests.size() - available;
        if (options_.overload_policy == OverloadPolicy::kShedNewest) {
          for (size_t i = available; i < requests.size(); ++i) shed[i] = 1;
        } else {  // kShedOldest: drop the head, keep the freshest work.
          for (size_t i = 0; i < excess; ++i) shed[i] = 1;
        }
      }
      queued_ += admitted;
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!shed[i]) continue;
      responses[i].vehicle_id = requests[i].vehicle_id;
      responses[i].status = Status::Unavailable(StrFormat(
          "request shed by admission control (capacity %zu, policy %s)",
          options_.admission_capacity,
          options_.overload_policy == OverloadPolicy::kShedNewest
              ? "shed-newest"
              : "shed-oldest"));
      stats_.RecordShed();
    }
  }

  // Group the admitted request positions per vehicle (ordered map:
  // deterministic group submission order).
  std::map<int64_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!shed[i]) groups[requests[i].vehicle_id].push_back(i);
  }

  if (!pooled) {
    for (const auto& [id, positions] : groups) {
      ScoreGroup(requests, positions, &responses);
    }
    return responses;
  }

  const bool blocking =
      options_.admission_capacity > 0 &&
      options_.overload_policy == OverloadPolicy::kBlock;

  // Per-batch completion latch: a shared pool may carry other callers'
  // tasks, so ThreadPool::Wait() would over-wait here.
  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = groups.size();
  auto mark_done = [&] {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) done_cv.notify_all();
  };

  for (const auto& [id, positions] : groups) {
    if (blocking) AdmitBlocking(positions.size());
    const std::vector<size_t>* group = &positions;
    const size_t group_size = positions.size();
    const bool release = blocking || shedding;
    Status submitted = pool_->Submit([this, requests, group, group_size,
                                      release, &responses,
                                      &mark_done]() -> Status {
      ScoreGroup(requests, *group, &responses);
      if (release) ReleaseAdmission(group_size);
      mark_done();
      return Status::OK();
    });
    if (!submitted.ok()) {
      // Pool shut down under us: score inline rather than dropping the
      // group.
      ScoreGroup(requests, positions, &responses);
      if (blocking || shedding) ReleaseAdmission(group_size);
      mark_done();
    }
  }

  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  return responses;
}

}  // namespace vup::serve
