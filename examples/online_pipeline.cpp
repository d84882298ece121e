// Online pipeline: the full production loop of Section 2 end to end --
// on-board engine simulation emits raw CAN messages, the controller
// aggregates them into 10-minute reports, the lossy uplink delivers what it
// can, the batch preparation steps (aggregate to days, clean, enrich) turn
// the delivered stream into a dataset, and the learning pipeline turns
// that dataset into a next-day forecast.
//
// Build & run:  ./build/examples/example_online_pipeline

#include <cstdio>
#include <set>
#include <tuple>
#include <vector>

#include "core/forecaster.h"
#include "core/intervals.h"
#include "core/evaluation.h"
#include "pipeline/aggregate.h"
#include "pipeline/cleaning.h"
#include "pipeline/dataset.h"
#include "telemetry/device.h"
#include "telemetry/fleet.h"

int main() {
  using namespace vup;

  Fleet fleet = Fleet::Generate(FleetConfig::Small(20, 61));
  const size_t vehicle_index = 2;
  VehicleDailySeries truth = fleet.GenerateDailySeries(vehicle_index);
  EngineSimulator engine = fleet.MakeEngineSimulator(vehicle_index);
  OnboardDevice device(ConnectivityConfig{}, 9);

  // Stream 240 days of raw telemetry through the stack.
  const size_t day0 = 200, n_days = 240;
  bool engine_on = false;
  std::vector<AggregatedReport> delivered;
  for (size_t d = day0; d < day0 + n_days; ++d) {
    auto messages =
        engine.SimulateDay(truth.days[d].date, truth.days[d].hours);
    auto reports = AggregateDay(messages, truth.info.vehicle_id,
                                truth.days[d].date, &engine_on);
    auto arrived = device.Deliver(reports);
    delivered.insert(delivered.end(), arrived.begin(), arrived.end());
  }
  // A re-delivery after an outage repeats a (vehicle, date, slot) already
  // received; aggregation keeps the last copy of each slot.
  std::set<std::tuple<int64_t, int32_t, int>> slots;
  std::set<int64_t> vehicles;
  for (const AggregatedReport& r : delivered) {
    slots.emplace(r.vehicle_id, r.date.day_number(), r.slot);
    vehicles.insert(r.vehicle_id);
  }
  std::printf("server: %zu reports from %zu vehicle(s), %zu re-deliveries, "
              "%lld lost on the uplink\n",
              slots.size(), vehicles.size(), delivered.size() - slots.size(),
              static_cast<long long>(device.lost_count()));

  // Preparation: aggregate to days, clean over the window, enrich.
  Date start = truth.days[day0].date;
  Date end = truth.days[day0 + n_days - 1].date;
  CleaningReport cleaning;
  StatusOr<std::vector<DailyUsageRecord>> cleaned =
      CleanDailyRecords(AggregateReportsDaily(delivered), start, end,
                        CleaningOptions(), &cleaning);
  if (!cleaned.ok()) {
    std::printf("cleaning failed: %s\n",
                cleaned.status().ToString().c_str());
    return 1;
  }
  StatusOr<VehicleDataset> ds_or = VehicleDataset::Build(
      truth.info, cleaned.value(), fleet.CountryOf(truth.info));
  if (!ds_or.ok()) {
    std::printf("dataset build failed: %s\n",
                ds_or.status().ToString().c_str());
    return 1;
  }
  const VehicleDataset& ds = ds_or.value();
  std::printf("dataset: %zu days x %zu features for %s\n", ds.num_days(),
              ds.num_features(), ds.info().ToString().c_str());

  // Walk-forward evaluation on the delivered data calibrates a confidence
  // band; then forecast tomorrow.
  EvaluationConfig eval;
  eval.eval_days = 40;
  eval.retrain_every = 10;
  eval.train_window = 120;
  eval.forecaster.algorithm = Algorithm::kGradientBoosting;
  eval.forecaster.windowing.lookback_w = 60;
  eval.forecaster.selection.top_k = 15;
  StatusOr<VehicleEvaluation> ev = EvaluateVehicle(ds, eval);
  if (!ev.ok()) {
    std::printf("evaluation failed: %s\n", ev.status().ToString().c_str());
    return 1;
  }
  std::printf("walk-forward PE over the last 40 ingested days: %.1f%%\n",
              ev.value().pe);

  ResidualIntervalEstimator bands(0.9);
  if (!bands.Fit(ev.value()).ok()) {
    std::printf("not enough residuals for bands\n");
    return 1;
  }
  VehicleForecaster forecaster(eval.forecaster);
  size_t n = ds.num_days();
  if (!forecaster.Train(ds, n - 120, n).ok()) return 1;
  double point = forecaster.PredictTarget(ds, n).value();
  ForecastInterval interval = bands.IntervalFor(point).value();
  std::printf("forecast for %s: %.1f h (90%% band %.1f .. %.1f)\n",
              ds.dates().back().AddDays(1).ToString().c_str(),
              interval.point, interval.lower, interval.upper);
  return 0;
}
