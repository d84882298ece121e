#include "serve/serving_stats.h"

#include <algorithm>

#include "common/string_util.h"

namespace vup::serve {

namespace {

/// Shared latency ladder instance backing BucketBoundsSeconds.
const std::vector<double>& ServeBounds() {
  static const std::vector<double>& bounds =
      *new std::vector<double>(obs::Histogram::LatencyBoundsSeconds());
  return bounds;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : histogram_(ServeBounds()) {}

std::span<const double> LatencyHistogram::BucketBoundsSeconds() {
  return ServeBounds();
}

std::string LatencyHistogram::ToString() const {
  const obs::HistogramData data = histogram_.Snapshot();
  std::string out;
  for (size_t i = 0; i < data.counts.size(); ++i) {
    if (data.counts[i] == 0) continue;
    if (i < data.bounds.size()) {
      out += StrFormat("  <=%.3fms %zu\n", data.bounds[i] * 1e3,
                       static_cast<size_t>(data.counts[i]));
    } else {
      out += StrFormat("  >%.3fms %zu\n", data.bounds.back() * 1e3,
                       static_cast<size_t>(data.counts[i]));
    }
  }
  return out;
}

void ServingStats::RecordRequest(double latency_seconds, bool ok,
                                 bool degraded) {
  std::lock_guard<std::mutex> lock(mu_);
  histogram_.Record(latency_seconds);
  requests_.Increment();
  if (!ok) failures_.Increment();
  if (degraded) degraded_.Increment();
}

void ServingStats::RecordShed() {
  std::lock_guard<std::mutex> lock(mu_);
  requests_.Increment();
  shed_.Increment();
}

void ServingStats::RecordDeadlineExceeded() {
  std::lock_guard<std::mutex> lock(mu_);
  requests_.Increment();
  deadline_exceeded_.Increment();
}

ServingStatsSnapshot ServingStats::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServingStatsSnapshot snap;
  snap.requests = static_cast<size_t>(requests_.value());
  snap.failures = static_cast<size_t>(failures_.value());
  snap.degraded = static_cast<size_t>(degraded_.value());
  snap.shed = static_cast<size_t>(shed_.value());
  snap.deadline_exceeded = static_cast<size_t>(deadline_exceeded_.value());
  snap.in_flight = static_cast<size_t>(in_flight_.value());
  snap.p50_seconds = histogram_.Quantile(0.50);
  snap.p95_seconds = histogram_.Quantile(0.95);
  snap.p99_seconds = histogram_.Quantile(0.99);
  return snap;
}

void ServingStats::Collect(obs::MetricsSnapshot* out,
                           const obs::LabelSet& labels) const {
  obs::HistogramData latency;
  uint64_t requests, failures, degraded, shed, deadline_exceeded;
  double in_flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    latency = histogram_.histogram().Snapshot();
    requests = requests_.value();
    failures = failures_.value();
    degraded = degraded_.value();
    shed = shed_.value();
    deadline_exceeded = deadline_exceeded_.value();
    in_flight = in_flight_.value();
  }
  auto counter = [&](const char* name, const char* help, uint64_t value) {
    obs::MetricFamily family;
    family.name = name;
    family.help = help;
    family.type = obs::MetricType::kCounter;
    obs::MetricSample sample;
    sample.labels = labels;
    sample.value = static_cast<double>(value);
    family.samples.push_back(std::move(sample));
    out->families.push_back(std::move(family));
  };
  counter("vupred_serve_requests_total",
          "Finished prediction requests (any outcome).", requests);
  counter("vupred_serve_failures_total",
          "Requests finished with a non-OK status.", failures);
  counter("vupred_serve_degraded_total",
          "Requests served by the Last-Value fallback.", degraded);
  counter("vupred_serve_shed_total",
          "Requests rejected by admission control.", shed);
  counter("vupred_serve_deadline_exceeded_total",
          "Requests expired before scoring started.", deadline_exceeded);

  obs::MetricFamily gauge;
  gauge.name = "vupred_serve_in_flight";
  gauge.help = "Requests currently being scored.";
  gauge.type = obs::MetricType::kGauge;
  obs::MetricSample gauge_sample;
  gauge_sample.labels = labels;
  gauge_sample.value = in_flight;
  gauge.samples.push_back(std::move(gauge_sample));
  out->families.push_back(std::move(gauge));

  obs::MetricFamily histogram;
  histogram.name = "vupred_serve_request_seconds";
  histogram.help =
      "Scoring latency of scored requests; shed and deadline-exceeded "
      "requests count in vupred_serve_requests_total but get no sample.";
  histogram.type = obs::MetricType::kHistogram;
  obs::MetricSample histogram_sample;
  histogram_sample.labels = labels;
  histogram_sample.histogram = std::move(latency);
  histogram.samples.push_back(std::move(histogram_sample));
  out->families.push_back(std::move(histogram));
}

std::string ServingStats::HistogramToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_.ToString();
}

}  // namespace vup::serve
