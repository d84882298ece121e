// walkforward_eval: the paper's Section 4.1 walk-forward evaluation (default
// SVR forecaster, sliding TW = w = 140, K = 20, retrain every target) over
// the eligible vehicles of the 40-vehicle fleet, one pool task per vehicle,
// in whole passes over the fleet until the run time is spent. The seed
// draws the evaluation's as-of date and the order of the vehicles.
#include <cmath>
#include <cstdio>
#include <deque>

#include "common/string_util.h"
#include "core/evaluation.h"
#include "ml/metrics.h"
#include "workloads.h"

namespace vup::bench {

namespace {

constexpr size_t kFleetSize = 40;
constexpr size_t kAsOfDays = 60;  // The series end 0..59 days early.
constexpr char kPool[] = "bench";

/// One vehicle's full walk-forward loop, timed call by call.
struct VehicleTask {
  size_t vehicle = 0;
  std::vector<double> train_s, predict_s;
  std::vector<double> predictions, actuals;
  double wall_s = 0.0;
  Status status;
};

/// Mirrors EvaluateVehicle's schedule (next-day scenario, sliding window)
/// so the first pass's PE can be checked against it bitwise.
void WalkForward(const VehicleDataset& ds, const EvaluationConfig& config,
                 VehicleTask* task) {
  const auto start = SteadyClock::now();
  const size_t n = ds.num_days();
  const size_t w = config.forecaster.windowing.lookback_w;
  const size_t first = std::max(w + 8, n - config.eval_days);
  VehicleForecaster forecaster(config.forecaster);
  for (size_t t = first; t < n && task->status.ok(); ++t) {
    const size_t begin = std::max(w, t - std::min(t - w, config.train_window));
    task->train_s.push_back(
        TimeIt([&] { task->status = forecaster.Train(ds, begin, t); }));
    if (!task->status.ok()) break;
    StatusOr<double> p = 0.0;
    task->predict_s.push_back(TimeIt([&] {
      obs::TraceSpan span("predict");
      p = forecaster.PredictTarget(ds, t);
    }));
    task->status = p.status();
    if (p.ok()) {
      task->predictions.push_back(p.value());
      task->actuals.push_back(ds.hours()[t]);
    }
  }
  task->wall_s = SecondsSince(start);
}

/// Submits vehicle tasks round-robin over `sample` until `done(tasks
/// submitted)` says stop, then waits for them; returns the wall time.
double RunTasks(const std::vector<const VehicleDataset*>& sample,
                const EvaluationConfig& config, ThreadPool* pool,
                std::deque<VehicleTask>* tasks,
                const std::function<bool(size_t)>& done) {
  const auto start = SteadyClock::now();
  for (size_t i = 0; !done(i); ++i) {
    tasks->emplace_back();
    VehicleTask* task = &tasks->back();
    task->vehicle = i % sample.size();
    const VehicleDataset* ds = sample[task->vehicle];
    Status submitted = pool->Submit([ds, &config, task]() -> Status {
      obs::TraceSpan span("walkforward.vehicle");
      WalkForward(*ds, config, task);
      return task->status;
    });
    if (!submitted.ok()) task->status = submitted;
  }
  (void)pool->Wait();  // Task statuses are checked by the caller.
  return SecondsSince(start);
}

/// `ds` without its last `days` days: the same history as of an earlier
/// date.
StatusOr<VehicleDataset> EndEarly(const VehicleDataset& ds, size_t days) {
  VUP_ASSIGN_OR_RETURN(Table table, ds.ToTable());
  const size_t keep = ds.num_days() - days;
  return VehicleDataset::FromTable(
      ds.info(), table.Filter([keep](size_t row) { return row < keep; }),
      ds.country());
}

}  // namespace

void RunWalkforward(const RunOptions& options, RunResult* result) {
  const EvaluationConfig config;  // The paper's defaults.
  const size_t as_of = options.seed % kAsOfDays;
  FleetData fleet;
  std::deque<VehicleDataset> truncated;
  Status setup_status;
  const double setup_s =
      MedianSetupSeconds(options.trace ? 1 : kSetups, [&] {
        fleet = FleetData();
        StatusOr<FleetData> prepared = PrepareFleet(kFleetSize, kFleetSize);
        setup_status = prepared.status();
        if (!prepared.ok()) return;
        fleet = std::move(prepared).value();
        truncated.clear();
        for (const VehicleDataset* ds : fleet.datasets) {
          StatusOr<VehicleDataset> cut = EndEarly(*ds, as_of);
          if (!cut.ok()) {
            setup_status = cut.status();
            return;
          }
          truncated.push_back(std::move(cut).value());
        }
      });
  if (!setup_status.ok()) {
    result->Check(false, "setup: " + setup_status.ToString());
    return;
  }
  std::vector<const VehicleDataset*> sample;
  for (const VehicleDataset& ds : truncated) sample.push_back(&ds);
  Rng rng(SplitMix64(options.seed));
  rng.Shuffle(&sample);
  const size_t vehicles = sample.size();
  std::printf("walkforward_eval: %zu eligible vehicles of %zu, series end "
              "%zu days early, eval_days=%zu TW=%zu w=%zu K=%zu "
              "algorithm=%s\n",
              vehicles, kFleetSize, as_of, config.eval_days,
              config.train_window,
              config.forecaster.windowing.lookback_w,
              config.forecaster.selection.top_k,
              std::string(AlgorithmToString(config.forecaster.algorithm))
                  .c_str());

  // Queue of one: the client hands out the next vehicle as soon as a
  // worker takes one, so the pool idles only at the end of the last pass.
  ThreadPool pool(ThreadPool::Options(kWorkers, 1, kPool));
  {
    // Untimed warm-up, one vehicle per worker: first-touch allocation and
    // page faults stay out of the measurement.
    std::deque<VehicleTask> warm;
    RunTasks(sample, config, &pool, &warm,
             [](size_t i) { return i >= kWorkers; });
  }
  std::deque<VehicleTask> tasks;
  obs::Tracer tracer;
  double wall = 0.0, traced_wall = 0.0;
  const CounterSample before = CounterSample::Take(kPool);
  if (!options.trace) {
    const auto start = SteadyClock::now();
    wall = RunTasks(sample, config, &pool, &tasks, [&](size_t i) {
      return i % vehicles == 0 && i > 0 &&
             SecondsSince(start) >= options.seconds;
    });
  } else {
    // Four single passes, untraced-traced-traced-untraced, so that drift
    // and warm-up weigh on both sides of the tracing overhead alike.
    for (int pass = 0; pass < 4; ++pass) {
      const bool traced = pass == 1 || pass == 2;
      obs::Tracer::SetActive(traced ? &tracer : nullptr);
      (traced ? traced_wall : wall) +=
          RunTasks(sample, config, &pool, &tasks,
                   [&](size_t i) { return i >= vehicles; });
    }
    obs::Tracer::SetActive(nullptr);
  }
  const CounterSample after = CounterSample::Take(kPool);

  std::vector<double> fits, predicts;
  double task_wall = 0.0, layer_sum = 0.0;
  for (const VehicleTask& task : tasks) {
    result->Check(task.status.ok(), "walk-forward: " + task.status.ToString());
    result->failed += task.status.ok() ? 0 : 1;
    fits.insert(fits.end(), task.train_s.begin(), task.train_s.end());
    predicts.insert(predicts.end(), task.predict_s.begin(),
                    task.predict_s.end());
    task_wall += task.wall_s;
    for (double s : task.train_s) layer_sum += s;
    for (double s : task.predict_s) layer_sum += s;
  }
  result->attempted = fits.size();

  // First pass: the paper's fleet-mean PE, and the bitwise gate against
  // EvaluateVehicle on one seeded vehicle.
  std::vector<double> pes;
  for (size_t v = 0; v < vehicles; ++v) {
    const VehicleTask& task = tasks[v];
    const double pe = PercentageError(task.predictions, task.actuals);
    if (std::isfinite(pe)) pes.push_back(pe);
    result->Check(task.predictions.size() == config.eval_days,
                  StrFormat("vehicle %zu made %zu of %zu predictions", v,
                            task.predictions.size(), config.eval_days));
  }
  const size_t sampled = options.seed % vehicles;
  StatusOr<VehicleEvaluation> reference =
      EvaluateVehicle(*sample[sampled], config);
  const double own_pe =
      PercentageError(tasks[sampled].predictions, tasks[sampled].actuals);
  result->Check(reference.ok() && reference.value().pe == own_pe,
                StrFormat("vehicle %zu PE %.17g != EvaluateVehicle %.17g",
                          sampled, own_pe,
                          reference.ok() ? reference.value().pe : NAN));

  // Warm start is off by default: no fit may be counted as warm-capable.
  const bool warm = config.forecaster.warm_start.enabled &&
                    AlgorithmSupportsWarmStart(config.forecaster.algorithm);
  const double warm_decisions = (after.warm_hits - before.warm_hits) +
                                (after.warm_cold - before.warm_cold);
  result->Check(warm_decisions == (warm ? static_cast<double>(fits.size()) : 0),
                "warm-start hits + cold starts != warm-capable fits");
  const double gap = std::fabs(task_wall - layer_sum) / task_wall;
  result->Check(gap <= kLayerSumSlack,
                StrFormat("Train + PredictTarget cover %.1f%% of task time",
                          100.0 * layer_sum / task_wall));

  const double fit_mean = Mean(fits);
  const Percentiles fit = ComputePercentiles(&fits);
  std::printf("fits: n=%zu p50=%.3fms p%.0f=%.3fms (%zu beyond) wall=%.2fs "
              "tasks=%zu\n",
              fit.count, fit.p50 * 1e3, fit.tail_pct, fit.tail * 1e3,
              fit.beyond_tail, wall, tasks.size());
  std::printf("first pass: %zu vehicles, fleet-mean PE %.4f%%, vehicle %zu "
              "PE matches EvaluateVehicle\n",
              pes.size(), Mean(pes), sampled);

  if (!options.trace) {
    result->Set("setup_s", setup_s, "s");
    result->Set("peak_rss_mb", PeakRssMb(), "MiB");
    // Whole passes: every run times the same fits, in the seed's order.
    result->Set("predict_rps", static_cast<double>(predicts.size()) / wall,
                "predictions/s");
    result->Set("op_p50_ms", fit.p50 * 1e3, "ms");
    result->Set("op_tail_ms", fit.tail * 1e3, "ms");
    result->Set("pe_pct", Mean(pes), "%");
    return;
  }

  // Traced run: the layers this workload does not touch come from the
  // probe cycle, the rest from the four passes above.
  RunLayerProbe(fleet, options.workdir + "/probe", &pool, result);
  SetPoolMetrics(before, after, wall + traced_wall, "workload", result);
  SetTrainingMetrics(before, after, "workload", result);
  SetStageShares(tracer, "workload", result);
  result->Set("forecaster.train_ms", fit_mean * 1e3, "ms");
  result->Set("forecaster.predict_us", Mean(predicts) * 1e6, "us");
  result->Set("trace.layer_gap_pct", 100.0 * gap, "%");
  result->Set("trace.overhead_pct", 100.0 * (traced_wall - wall) / wall, "%");
  std::printf("tracing overhead: traced %.3fs - untraced %.3fs = %.3fs for "
              "two passes each\n",
              traced_wall, wall, traced_wall - wall);
}

}  // namespace vup::bench
