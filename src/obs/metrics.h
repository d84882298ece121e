#ifndef VUPRED_OBS_METRICS_H_
#define VUPRED_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vup::obs {

/// Label set of one instrument, e.g. {{"pool", "fleet"}}. Kept sorted by
/// key inside the registry so the same logical set always maps to the same
/// instrument and exports deterministically.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// True for a legal Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool IsValidMetricName(std::string_view name);

/// True for a legal Prometheus label name: [a-zA-Z_][a-zA-Z0-9_]*.
bool IsValidLabelName(std::string_view name);

/// Monotonic counter. Thread-safe; increments are lock-free.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value that can go up and down. Thread-safe.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-only view of a histogram's state, for snapshots and quantiles.
struct HistogramData {
  std::vector<double> bounds;    // Finite bucket upper bounds, ascending.
  std::vector<uint64_t> counts;  // One per bound, plus the overflow bucket.
  uint64_t count = 0;
  double sum = 0.0;

  /// Upper bound of the bucket containing quantile `q` in [0, 1] by the
  /// nearest-rank definition. Conservative: never under-reports a sample
  /// that fits the finite buckets. Returns 0 when empty; the last finite
  /// bound for the overflow bucket.
  double Quantile(double q) const;
};

/// Fixed-bound histogram with atomic per-bucket counts: safe to Record
/// from any number of threads and to snapshot concurrently. Generalizes
/// the latency histogram that used to live in serve/serving_stats.
///
/// Samples above the last bound land in an overflow bucket; non-finite or
/// negative samples are clamped to 0 (observability must not crash on a
/// garbage measurement).
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// The 1-2-5 ladder from 10 microseconds to 5 seconds used for request
  /// and task latencies across the project.
  static std::vector<double> LatencyBoundsSeconds();

  /// `count` bounds starting at `first`, each `factor` times the previous.
  /// first > 0, factor > 1, count >= 1.
  static std::vector<double> ExponentialBounds(double first, double factor,
                                               size_t count);

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::span<const double> bounds() const { return bounds_; }

  /// Consistent-enough copy for export (relaxed reads; exact once writers
  /// are quiescent).
  HistogramData Snapshot() const;

  /// Convenience: Snapshot().Quantile(q).
  double Quantile(double q) const { return Snapshot().Quantile(q); }

 private:
  std::vector<double> bounds_;
  std::deque<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1 entries.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricType { kCounter = 0, kGauge = 1, kHistogram = 2 };

std::string_view MetricTypeToString(MetricType type);

/// One exported time series: a label set plus either a scalar value
/// (counter, gauge) or histogram data.
struct MetricSample {
  LabelSet labels;
  double value = 0.0;
  HistogramData histogram;  // Only meaningful for kHistogram families.
};

/// All samples of one metric name.
struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<MetricSample> samples;
};

/// A point-in-time export of a registry, to which owners of their own
/// stats (ServingStats, ModelRegistry) append families through their
/// Collect/CollectMetrics. Normalize() before exporting.
struct MetricsSnapshot {
  std::vector<MetricFamily> families;

  /// Merges families with the same name (first family's help/type win) and
  /// sorts families by name and samples by label set, so exports are
  /// byte-deterministic regardless of collection order.
  void Normalize();

  /// The sample of `name` with exactly `labels`, or nullptr.
  const MetricSample* Find(std::string_view name,
                           const LabelSet& labels = {}) const;

  /// Scalar value of `name`/`labels`; `fallback` when absent.
  double Value(std::string_view name, const LabelSet& labels = {},
               double fallback = 0.0) const;
};

/// Process-wide home for instruments. Get* methods create on first use and
/// return the same stable pointer for the same (name, labels) afterwards,
/// so call sites may look instruments up on the hot path or cache the
/// pointer -- both are safe. Instruments live as long as the registry.
///
/// The same name with different label sets forms a labeled family; the
/// same name must always carry the same instrument type (a lookup with a
/// conflicting type returns nullptr, and callers treat a null instrument
/// as "metrics disabled").
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the CLI exports from.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name, std::string_view help,
                      const LabelSet& labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  const LabelSet& labels = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          std::vector<double> bounds,
                          const LabelSet& labels = {});

  /// Owned instruments, normalized.
  MetricsSnapshot Snapshot() const;

  size_t num_instruments() const;

 private:
  struct Instrument {
    std::string name;
    std::string help;
    MetricType type;
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Finds or creates the instrument; nullptr on an invalid name/labels or
  /// a type conflict with an existing registration. Caller fills exactly
  /// one of the unique_ptrs on creation via `make`.
  Instrument* GetOrCreate(std::string_view name, std::string_view help,
                          MetricType type, const LabelSet& labels,
                          const std::function<void(Instrument*)>& make);

  mutable std::mutex mu_;
  // Key: name + serialized sorted labels. deque-backed values would still
  // need the map for lookup; unique_ptr keeps pointers stable.
  std::map<std::string, std::unique_ptr<Instrument>> instruments_;
};

}  // namespace vup::obs

#endif  // VUPRED_OBS_METRICS_H_
