// Shared plumbing of the vupred benchmark: run options, timing, raw-sample
// percentiles, the seeded vehicle-id streams, counter reads and the result
// record every workload fills in.
#ifndef VUPRED_PERFBENCH_HARNESS_H_
#define VUPRED_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_registry.h"

namespace vup::bench {

using SteadyClock = std::chrono::steady_clock;

/// Pool width of every workload: one client thread plus three workers fill
/// the four cores the benchmark is sized for.
inline constexpr size_t kWorkers = 3;

/// Generator seed of the synthetic fleet every workload draws from. The
/// fleet is the benchmark's fixed data set, as the paper has one real
/// fleet; the run's --seed draws what a workload sends into it.
inline constexpr uint64_t kFleetSeed = 42;

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetups = 3;

/// Slack within which the outside-timed layer times must add up to the
/// batch or night wall time they decompose (share of that wall time).
inline constexpr double kLayerSumSlack = 0.25;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // Private, empty scratch directory of this run.
};

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Times one call of `fn` in seconds.
template <typename Fn>
double TimeIt(Fn&& fn) {
  const auto start = SteadyClock::now();
  fn();
  return SecondsSince(start);
}

/// Latency summary computed from raw samples (never from a bucket ladder).
struct Percentiles {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;       // The highest percentile in {99, 90} that keeps
  double tail_pct = 0.0;   // at least 10 samples beyond it.
  size_t beyond_tail = 0;  // Samples strictly after the tail rank.
};

/// Nearest-rank percentiles of `samples` (sorted in place). `tail_pct` is 0
/// when fewer than 100 samples leave no percentile with 10 beyond it.
Percentiles ComputePercentiles(std::vector<double>* samples);

double Mean(const std::vector<double>& values);


/// Result of one run: the correctness verdict, the operation counts and
/// the named metrics. Metrics keep insertion order for the log.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string source;  // Where a per-layer number was measured.
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // Failed correctness gates.
  std::vector<Metric> metrics;

  /// Records a correctness gate; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  /// Sets (or replaces) a metric.
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& source = "workload");
  bool correct() const { return errors.empty(); }
};

/// Seeded vehicle-id stream over ids 1..n. Ranks are drawn from Zipf(s) or
/// uniformly and mapped to ids through a seeded permutation, so popular
/// vehicles are spread over every registry shard.
class IdStream {
 public:
  IdStream(size_t n, double zipf_s, uint64_t seed);

  /// Next vehicle id; records the rank for the top-share check.
  int64_t Next();

  /// Share of all drawn ids that were among the top 1% of ranks.
  double MeasuredTopShare() const;
  /// The same share under the exact distribution.
  double AnalyticTopShare() const { return analytic_top_share_; }
  uint64_t draws() const { return draws_; }
  /// Largest |measured - analytic| accepted after `draws` samples: six
  /// binomial standard deviations plus 0.1 percentage point.
  double TopShareTolerance() const;

 private:
  Rng rng_;
  std::vector<double> cdf_;  // Empty for the uniform stream.
  std::vector<int64_t> rank_to_id_;
  size_t top_ranks_ = 1;
  double analytic_top_share_ = 0.0;
  uint64_t draws_ = 0;
  uint64_t top_draws_ = 0;
};

/// The program counters the per-layer metrics read, sampled at one point so
/// a phase reports the difference of two samples.
struct CounterSample {
  double warm_hits = 0, warm_cold = 0;
  double kernel_hits = 0, kernel_misses = 0;
  double window_advances = 0, window_rebuilds = 0;
  double pool_task_seconds = 0;
  uint64_t pool_tasks = 0;

  static CounterSample Take(const std::string& pool_label);
};

/// Adds pool.task_us and pool.busy_share over a phase of `wall` seconds.
void SetPoolMetrics(const CounterSample& before, const CounterSample& after,
                    double wall, const std::string& source, RunResult* result);

/// Adds the training counter ratios (warm start, kernel cache, window
/// advance) over a phase.
void SetTrainingMetrics(const CounterSample& before, const CounterSample& after,
                        const std::string& source, RunResult* result);

/// Self-time shares of the Train stages ("window", "select", "scale",
/// "train" under every "fit" span) of a tracer's tree, as
/// core.window_share, core.select_share, core.scale_share, ml.fit_share.
void SetStageShares(const obs::Tracer& tracer, const std::string& source,
                    RunResult* result);

/// Checks that every per-shard slice of a registry's counters sums to the
/// registry total.
void CheckShardSums(const serve::ModelRegistryStats& stats, RunResult* result);

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMb();

/// One line naming compiler, build type, flags and hardware threads.
std::string EnvironmentLine();

/// Runs `setup` `times` times (each from scratch) and returns the median
/// wall time; the last set-up's state is the one the workload measures.
double MedianSetupSeconds(int times, const std::function<void()>& setup);

}  // namespace vup::bench

#endif  // VUPRED_PERFBENCH_HARNESS_H_
