#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vup::obs {

namespace {

bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsAlnum(char c) { return IsAlpha(c) || (c >= '0' && c <= '9'); }

/// Canonical instrument key: name + sorted "label=value" pairs. The value
/// separator is U+001F (unit separator), which cannot appear in a valid
/// label name, so distinct label sets never collide.
std::string InstrumentKey(std::string_view name, const LabelSet& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

LabelSet SortedLabels(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

bool ValidLabels(const LabelSet& labels) {
  for (size_t i = 0; i < labels.size(); ++i) {
    if (!IsValidLabelName(labels[i].first)) return false;
    if (i > 0 && labels[i].first == labels[i - 1].first) return false;
  }
  return true;
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  if (!IsAlpha(name[0]) && name[0] != '_' && name[0] != ':') return false;
  for (char c : name) {
    if (!IsAlnum(c) && c != '_' && c != ':') return false;
  }
  return true;
}

bool IsValidLabelName(std::string_view name) {
  if (name.empty()) return false;
  if (!IsAlpha(name[0]) && name[0] != '_') return false;
  for (char c : name) {
    if (!IsAlnum(c) && c != '_') return false;
  }
  return true;
}

std::string_view MetricTypeToString(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

// ---- Histogram --------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  // A misconfigured ladder is a programming error, but observability code
  // must not crash the process: fall back to one catch-all bucket.
  bool ok = !bounds_.empty();
  for (size_t i = 0; ok && i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i])) ok = false;
    if (i > 0 && bounds_[i] <= bounds_[i - 1]) ok = false;
  }
  if (!ok) {
    bounds_ = {std::numeric_limits<double>::max()};
    buckets_ = std::deque<std::atomic<uint64_t>>(2);
  }
}

std::vector<double> Histogram::LatencyBoundsSeconds() {
  // The 1-2-5 ladder from 10 us to 5 s lifted out of serve/serving_stats:
  // sub-millisecond model scoring and multi-second cold loads both land in
  // informative buckets.
  return {10e-6,  20e-6,  50e-6,  100e-6, 200e-6, 500e-6,
          1e-3,   2e-3,   5e-3,   10e-3,  20e-3,  50e-3,
          100e-3, 200e-3, 500e-3, 1.0,    2.0,    5.0};
}

std::vector<double> Histogram::ExponentialBounds(double first, double factor,
                                                 size_t count) {
  std::vector<double> bounds;
  if (!(first > 0) || !(factor > 1) || count == 0) return {1.0};
  bounds.reserve(count);
  double bound = first;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

void Histogram::Record(double value) {
  if (!std::isfinite(value) || value < 0) value = 0;
  size_t bucket = bounds_.size();  // Overflow by default.
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::Snapshot() const {
  HistogramData data;
  data.bounds = bounds_;
  data.counts.reserve(buckets_.size());
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    data.counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = sum_.load(std::memory_order_relaxed);
  return data;
}

double HistogramData::Quantile(double q) const {
  // Nearest-rank over the bucket counts; the total is derived from the
  // buckets themselves so a mid-flight snapshot stays internally
  // consistent.
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();
}

// ---- MetricsSnapshot --------------------------------------------------

void MetricsSnapshot::Normalize() {
  std::stable_sort(families.begin(), families.end(),
                   [](const MetricFamily& a, const MetricFamily& b) {
                     return a.name < b.name;
                   });
  std::vector<MetricFamily> merged;
  for (MetricFamily& family : families) {
    if (!merged.empty() && merged.back().name == family.name) {
      for (MetricSample& sample : family.samples) {
        merged.back().samples.push_back(std::move(sample));
      }
    } else {
      merged.push_back(std::move(family));
    }
  }
  for (MetricFamily& family : merged) {
    std::stable_sort(family.samples.begin(), family.samples.end(),
                     [](const MetricSample& a, const MetricSample& b) {
                       return a.labels < b.labels;
                     });
  }
  families = std::move(merged);
}

const MetricSample* MetricsSnapshot::Find(std::string_view name,
                                          const LabelSet& labels) const {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const MetricFamily& family : families) {
    if (family.name != name) continue;
    for (const MetricSample& sample : family.samples) {
      LabelSet sample_labels = sample.labels;
      std::sort(sample_labels.begin(), sample_labels.end());
      if (sample_labels == sorted) return &sample;
    }
  }
  return nullptr;
}

double MetricsSnapshot::Value(std::string_view name, const LabelSet& labels,
                              double fallback) const {
  const MetricSample* sample = Find(name, labels);
  return sample != nullptr ? sample->value : fallback;
}

// ---- MetricsRegistry --------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Instrument* MetricsRegistry::GetOrCreate(
    std::string_view name, std::string_view help, MetricType type,
    const LabelSet& labels, const std::function<void(Instrument*)>& make) {
  if (!IsValidMetricName(name)) return nullptr;
  LabelSet sorted = SortedLabels(labels);
  if (!ValidLabels(sorted)) return nullptr;
  const std::string key = InstrumentKey(name, sorted);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instruments_.find(key);
  if (it != instruments_.end()) {
    return it->second->type == type ? it->second.get() : nullptr;
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->name = std::string(name);
  instrument->help = std::string(help);
  instrument->type = type;
  instrument->labels = std::move(sorted);
  make(instrument.get());
  Instrument* raw = instrument.get();
  instruments_.emplace(key, std::move(instrument));
  return raw;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help,
                                     const LabelSet& labels) {
  Instrument* instrument =
      GetOrCreate(name, help, MetricType::kCounter, labels,
                  [](Instrument* i) { i->counter = std::make_unique<Counter>(); });
  return instrument != nullptr ? instrument->counter.get() : nullptr;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 const LabelSet& labels) {
  Instrument* instrument =
      GetOrCreate(name, help, MetricType::kGauge, labels,
                  [](Instrument* i) { i->gauge = std::make_unique<Gauge>(); });
  return instrument != nullptr ? instrument->gauge.get() : nullptr;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         std::vector<double> bounds,
                                         const LabelSet& labels) {
  Instrument* instrument = GetOrCreate(
      name, help, MetricType::kHistogram, labels, [&](Instrument* i) {
        i->histogram = std::make_unique<Histogram>(std::move(bounds));
      });
  return instrument != nullptr ? instrument->histogram.get() : nullptr;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, instrument] : instruments_) {
      MetricSample sample;
      sample.labels = instrument->labels;
      switch (instrument->type) {
        case MetricType::kCounter:
          sample.value = static_cast<double>(instrument->counter->value());
          break;
        case MetricType::kGauge:
          sample.value = instrument->gauge->value();
          break;
        case MetricType::kHistogram:
          sample.histogram = instrument->histogram->Snapshot();
          break;
      }
      MetricFamily family;
      family.name = instrument->name;
      family.help = instrument->help;
      family.type = instrument->type;
      family.samples.push_back(std::move(sample));
      snapshot.families.push_back(std::move(family));
    }
  }
  snapshot.Normalize();
  return snapshot;
}

size_t MetricsRegistry::num_instruments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instruments_.size();
}

}  // namespace vup::obs
