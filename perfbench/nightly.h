// The nightly refit -> publish -> reload cycle, and the seeded fleet it
// (and every other workload) draws its vehicles from.
#ifndef VUPRED_PERFBENCH_NIGHTLY_H_
#define VUPRED_PERFBENCH_NIGHTLY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/forecaster.h"
#include "harness.h"
#include "serve/model_registry.h"

namespace vup::bench {

/// A seeded synthetic fleet and the prepared datasets of its eligible
/// vehicles (the paper's cleaning and enrichment pipeline runs here).
struct FleetData {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<ExperimentRunner> runner;
  std::vector<int64_t> ids;
  std::vector<const VehicleDataset*> datasets;
};

/// Generates the `fleet_size`-vehicle fleet of kFleetSeed and prepares up
/// to `max_vehicles` eligible vehicles with at least `min_days` of history.
StatusOr<FleetData> PrepareFleet(size_t fleet_size, size_t max_vehicles,
                                 size_t min_days = 500);

/// Largest |served - offline| a compact bundle may show: the compact
/// format stores LR weights as f64 (bitwise) and the other algorithms as
/// f32 within a 0.05 h ceiling.
double CompactTolerance(Algorithm algorithm);

/// Outside-timed Crc32 and LoadCompact of the compact bundle `registry`
/// serves for `vehicle_id`, read into memory first (untimed). `ok` is false
/// when the bundle did not decode.
struct BundleTimes {
  double crc_s = 0.0;
  double decode_s = 0.0;
  bool ok = false;
};
BundleTimes TimeCompactBundle(const serve::ModelRegistry& registry,
                              int64_t vehicle_id);

/// The nightly loop: each night refits every vehicle on the pool with a
/// sliding window ending yesterday, predicts today, publishes the night's
/// generation with compact twins, reloads a prefer_compact reading
/// registry and prunes to two old generations. Forecasters persist across
/// nights, as a real refit service keeps them.
///
/// Every night checks that the reload succeeded, that the reader serves
/// the generation just committed with no quarantine, and that the served
/// predictions equal the ones just trained (compact tolerance).
class NightlyLoop {
 public:
  /// Samples, in seconds unless stated, over every night run so far.
  struct Samples {
    std::vector<double> night, refit, train, predict, add, commit, reload,
        prune, get_miss, get_hit, crc, decode, save_text, save_compact,
        bundle_bytes;
    size_t nights = 0;
    size_t predictions = 0;
    size_t failed = 0;
    uint64_t requests = 0;  // Requests served from the reading registry.
    uint64_t groups = 0;    // Distinct vehicles among them.
    double layer_sum = 0.0;  // refit + adds + commit + reload, per night.
  };

  /// Runs over the first `max_vehicles` vehicles of `fleet`; night 0
  /// predicts the day `max_nights + skip_days` days before each series
  /// ends. `fleet` and `pool` must outlive the loop. `registry_dir` is
  /// created.
  static StatusOr<std::unique_ptr<NightlyLoop>> Create(
      const FleetData& fleet, size_t max_vehicles, size_t max_nights,
      size_t skip_days, const std::string& registry_dir, ThreadPool* pool);

  /// Runs night `k` (0-based, < max_nights). `detail` adds the
  /// outside-timed layer probes (save, CRC, decode, bundle size) of one
  /// vehicle after the night. Correctness failures go to `result`.
  void Night(size_t k, bool detail, RunResult* result);

  /// Fleet-mean Percentage Error of the predictions of nights < `nights`.
  double FleetPe(size_t nights) const;

  /// Checks the reading registry's counter identities: hits + misses equal
  /// the Gets issued, and the shard slices sum to the totals.
  void CheckCounters(RunResult* result) const;

  /// Sets every per-layer metric the loop measures, tagged `source`.
  void SetLayerMetrics(const std::string& source, RunResult* result) const;

  const Samples& samples() const { return samples_; }
  /// Forgets the timing samples so far (warm-up nights); predictions for
  /// FleetPe are kept.
  void ClearSamples() { samples_ = Samples(); }
  size_t num_vehicles() const { return vehicles_.size(); }
  size_t max_nights() const { return max_nights_; }

 private:
  struct Vehicle {
    int64_t id = 0;
    const VehicleDataset* ds = nullptr;
    size_t first_target = 0;  // Target day of night 0.
    std::unique_ptr<VehicleForecaster> forecaster;
    double prediction = 0.0;
    double train_s = 0.0, predict_s = 0.0;
    Status status;
    std::vector<double> predictions, actuals;
  };

  NightlyLoop(ThreadPool* pool, size_t max_nights)
      : pool_(pool), max_nights_(max_nights) {}

  ThreadPool* pool_;
  size_t max_nights_;
  ForecasterConfig config_;
  size_t train_window_ = 140;
  std::vector<Vehicle> vehicles_;
  std::optional<serve::ModelRegistry> writer_;
  std::optional<serve::ModelRegistry> reader_;
  serve::RegistryMeta meta_;
  Samples samples_;
  uint64_t reader_gets_ = 0;  // Gets issued on reader_, never cleared.
};

}  // namespace vup::bench

#endif  // VUPRED_PERFBENCH_NIGHTLY_H_
