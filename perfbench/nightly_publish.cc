// nightly_publish: a small fleet refit, published and reloaded every night;
// and the short version of the same cycle that gives the other workloads
// the per-layer numbers of layers they do not touch.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/string_util.h"
#include "workloads.h"

namespace vup::bench {

namespace {

constexpr size_t kFleetSize = 24;
constexpr size_t kVehicles = 12;
constexpr size_t kMaxNights = 200;
constexpr size_t kMinNights = 100;  // p90 keeps 10 nights beyond it.
constexpr size_t kTraceBlock = 12;  // Nights per block of a traced run.
constexpr size_t kStretches = 100;  // --seed picks one of 100 stretches.
// History a vehicle needs: lookback + training window + every stretch.
constexpr size_t kMinDays = 140 + 140 + kMaxNights + kStretches;
constexpr char kPool[] = "bench";

constexpr size_t kProbeVehicles = 4;
constexpr size_t kProbeNights = 12;

/// Runs nights [first, last) or until `budget` seconds have passed and at
/// least `min_nights` ran; returns the index after the last night run.
size_t RunNights(NightlyLoop* loop, size_t first, size_t min_nights,
                 double budget, bool detail, RunResult* result) {
  const auto start = SteadyClock::now();
  size_t k = first;
  while (k < loop->max_nights() &&
         (k - first < min_nights || SecondsSince(start) < budget)) {
    loop->Night(k++, detail, result);
  }
  return k;
}

void CheckLayerSum(const NightlyLoop& loop, RunResult* result) {
  double nights = 0.0;
  for (double s : loop.samples().night) nights += s;
  const double gap = std::fabs(nights - loop.samples().layer_sum) / nights;
  result->Check(gap <= kLayerSumSlack,
                StrFormat("refit + adds + commit + reload cover %.1f%% of the "
                          "night wall time",
                          100.0 * loop.samples().layer_sum / nights));
}

}  // namespace

void RunLayerProbe(const FleetData& fleet, const std::string& dir,
                   ThreadPool* pool, RunResult* result) {
  StatusOr<std::unique_ptr<NightlyLoop>> loop =
      NightlyLoop::Create(fleet, kProbeVehicles, kProbeNights, 0, dir, pool);
  if (!loop.ok()) {
    result->Check(false, "probe: " + loop.status().ToString());
    return;
  }
  obs::Tracer tracer;
  obs::Tracer::SetActive(&tracer);
  const CounterSample before = CounterSample::Take(kPool);
  const auto start = SteadyClock::now();
  for (size_t k = 0; k < kProbeNights; ++k) {
    loop.value()->Night(k, true, result);
  }
  const double wall = SecondsSince(start);
  obs::Tracer::SetActive(nullptr);
  const CounterSample after = CounterSample::Take(kPool);
  loop.value()->CheckCounters(result);
  CheckLayerSum(*loop.value(), result);
  loop.value()->SetLayerMetrics("probe", result);
  SetPoolMetrics(before, after, wall, "probe", result);
  SetTrainingMetrics(before, after, "probe", result);
  SetStageShares(tracer, "probe", result);
}

void RunNightly(const RunOptions& options, RunResult* result) {
  ThreadPool pool(ThreadPool::Options(kWorkers, 64, kPool));
  FleetData fleet;
  std::unique_ptr<NightlyLoop> loop;
  Status setup_status;
  int setups = 0;
  // Set-up: fleet and datasets, the two registries, and night 0 (the
  // first refit builds every sliding window from scratch).
  const double setup_s = MedianSetupSeconds(options.trace ? 1 : kSetups, [&] {
    loop.reset();
    fleet = FleetData();
    std::error_code ec;
    std::filesystem::remove_all(
        options.workdir + "/nightly_" + std::to_string(setups - 1), ec);
    const std::string dir =
        options.workdir + "/nightly_" + std::to_string(setups++);
    StatusOr<FleetData> prepared =
        PrepareFleet(kFleetSize, kVehicles, kMinDays);
    setup_status = prepared.status();
    if (!prepared.ok()) return;
    fleet = std::move(prepared).value();
    StatusOr<std::unique_ptr<NightlyLoop>> created =
        NightlyLoop::Create(fleet, kVehicles, kMaxNights,
                            options.seed % kStretches, dir, &pool);
    setup_status = created.status();
    if (!created.ok()) return;
    loop = std::move(created).value();
    loop->Night(0, false, result);
    loop->ClearSamples();
  });
  if (!setup_status.ok()) {
    result->Check(false, "setup: " + setup_status.ToString());
    return;
  }
  std::printf("nightly_publish: %zu vehicles of a %zu-vehicle fleet, nights "
              "end %llu days before the series end, default config, compact "
              "twins, keep 2 generations\n",
              loop->num_vehicles(), kFleetSize,
              static_cast<unsigned long long>(options.seed % kStretches));

  const CounterSample before = CounterSample::Take(kPool);
  const auto start = SteadyClock::now();
  obs::Tracer tracer;
  double untraced = 0.0, traced = 0.0;  // Summed night wall times.
  if (!options.trace) {
    RunNights(loop.get(), 1, kMinNights, options.seconds, false, result);
  } else {
    // Four blocks of nights, untraced-traced-traced-untraced, so that drift
    // weighs on both sides of the tracing overhead alike.
    size_t k = 1;
    for (int block = 0; block < 4; ++block) {
      const bool on = block == 1 || block == 2;
      obs::Tracer::SetActive(on ? &tracer : nullptr);
      const size_t first = loop->samples().night.size();
      k = RunNights(loop.get(), k, kTraceBlock, 0.0, true, result);
      for (size_t i = first; i < loop->samples().night.size(); ++i) {
        (on ? traced : untraced) += loop->samples().night[i];
      }
    }
    obs::Tracer::SetActive(nullptr);
  }
  const double wall = SecondsSince(start);
  const CounterSample after = CounterSample::Take(kPool);
  const NightlyLoop::Samples& s = loop->samples();
  result->attempted = s.nights;
  result->failed = s.failed;
  loop->CheckCounters(result);
  CheckLayerSum(*loop, result);
  const double warm_decisions = (after.warm_hits - before.warm_hits) +
                                (after.warm_cold - before.warm_cold);
  result->Check(warm_decisions == 0,
                "warm-start hits + cold starts != warm-capable fits (0)");

  std::vector<double> nights = s.night;
  const Percentiles p = ComputePercentiles(&nights);
  std::printf("nights: n=%zu p50=%.2fms p%.0f=%.2fms (%zu beyond) wall=%.2fs\n",
              p.count, p.p50 * 1e3, p.tail_pct, p.tail * 1e3, p.beyond_tail,
              wall);

  if (!options.trace) {
    const double pe = loop->FleetPe(kMinNights);
    std::printf("fleet-mean PE over nights 0..%zu: %.4f%%\n", kMinNights - 1,
                pe);
    result->Set("setup_s", setup_s, "s");
    result->Set("peak_rss_mb", PeakRssMb(), "MiB");
    result->Set("predict_rps", static_cast<double>(s.predictions) / wall,
                "predictions/s");
    result->Set("op_p50_ms", p.p50 * 1e3, "ms");
    result->Set("op_tail_ms", p.tail * 1e3, "ms");
    result->Set("pe_pct", pe, "%");
    return;
  }

  loop->SetLayerMetrics("workload", result);
  SetPoolMetrics(before, after, wall, "workload", result);
  SetTrainingMetrics(before, after, "workload", result);
  SetStageShares(tracer, "workload", result);
  result->Set("trace.layer_gap_pct",
              100.0 * std::fabs(untraced + traced - s.layer_sum) /
                  (untraced + traced),
              "%");
  result->Set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced,
              "%");
  std::printf("tracing overhead: traced %.3fs - untraced %.3fs = %.3fs over "
              "%zu nights each\n",
              traced, untraced, traced - untraced, 2 * kTraceBlock);
}

}  // namespace vup::bench
