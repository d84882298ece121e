// Ablation behind the serving fallback chain (DESIGN.md section 12): a
// request is served by the vehicle's own model, else by the global pooled
// model, else by Last-Value. Each pooled level must beat the next level
// down with a paired interval that excludes 0, or it is not served.
//
// For every vehicle of a fixed fleet the bench scores the trailing holdout
// with the vehicle's own model, the global pooled model, a pool of the
// vehicles of its type, Last-Value (LV) and the 30-day moving average
// (MA). The pooled levels are scored twice:
//   warm  the pool includes the vehicle (a vehicle whose bundle is lost);
//   cold  leave-one-vehicle-out: the pool excludes it (a vehicle that has
//         just connected and has no model of its own yet).
// Every vehicle is scored at every level, so the comparisons are paired:
// a bootstrap 95% interval over the per-vehicle PE differences, "decided"
// when it excludes 0.
//
// The configuration was fixed before the first run: Lasso, w=21, K=7 (the
// `vupred publish` defaults), a 140-day training span ending where a
// 28-day holdout begins, fleets of 40 and 120 vehicles at seeds 42, 7 and
// 11, and 10 000 resamples at one fixed bootstrap seed. Pooled models
// stack their members in ascending vehicle id.
//
// A vehicle is evaluated only when every level scores its whole holdout
// with a finite PE; a vehicle alone of its type has no cold type pool and
// is skipped (the reasons are counted).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "core/experiment.h"
#include "core/forecaster.h"
#include "ml/metrics.h"

namespace vup {
namespace {

constexpr size_t kTrainWindow = 140;
constexpr size_t kHoldoutDays = 28;
constexpr size_t kResamples = 10000;
constexpr uint64_t kBootstrapSeed = 1;

ForecasterConfig Config(Algorithm algorithm) {
  ForecasterConfig cfg;
  cfg.algorithm = algorithm;
  cfg.windowing.lookback_w = 21;
  cfg.selection.top_k = 7;
  return cfg;
}

/// One vehicle with its training span [train_begin, train_end); the
/// holdout is [train_end, num_days).
struct Member {
  int64_t vehicle_id = 0;
  VehicleType type = VehicleType::kRefuseCompactor;
  const VehicleDataset* dataset = nullptr;
  size_t train_begin = 0;
  size_t train_end = 0;
};

/// The columns of the per-vehicle table.
enum Level {
  kOwn,
  kGlobalWarm,
  kGlobalCold,
  kTypeWarm,
  kTypeCold,
  kLastValue,
  kMovingAverage,
  kNumLevels
};
constexpr const char* kLevelNames[kNumLevels] = {
    "own", "global", "global_cold", "type", "type_cold", "LV", "MA"};

/// The member of `ds` under the fixed schedule, or false when its series
/// is too short for it.
bool MakeMember(const VehicleInfo& info, const VehicleDataset* ds,
                Member* out) {
  const size_t w = Config(Algorithm::kLasso).windowing.lookback_w;
  if (ds->num_days() < kHoldoutDays) return false;
  const size_t train_end = ds->num_days() - kHoldoutDays;
  if (train_end < w + 2) return false;
  const size_t train_begin =
      std::max(w, train_end - std::min(train_end - w, kTrainWindow));
  if (train_end - train_begin < 2) return false;
  *out = Member{info.vehicle_id, info.type, ds, train_begin, train_end};
  return true;
}

/// One pooled model over the members `keep` accepts; NotFound when it
/// accepts none.
template <typename Keep>
StatusOr<VehicleForecaster> TrainPool(const std::vector<Member>& members,
                                      Keep keep) {
  std::vector<PooledTrainingSpan> spans;
  for (const Member& m : members) {
    if (keep(m)) spans.push_back({m.dataset, m.train_begin, m.train_end});
  }
  if (spans.empty()) return Status::NotFound("empty pool");
  return VehicleForecaster::TrainPooled(spans, Config(Algorithm::kLasso));
}

/// PE of `model` over the member's holdout; FailedPrecondition when the
/// holdout is all zero (PE undefined).
StatusOr<double> HoldoutPe(const VehicleForecaster& model, const Member& m) {
  std::vector<double> predicted, actual;
  for (size_t t = m.train_end; t < m.dataset->num_days(); ++t) {
    VUP_ASSIGN_OR_RETURN(double p, model.PredictTarget(*m.dataset, t));
    predicted.push_back(p);
    actual.push_back(m.dataset->hours()[t]);
  }
  const double pe = PercentageError(predicted, actual);
  if (!std::isfinite(pe)) {
    return Status::FailedPrecondition("holdout PE undefined");
  }
  return pe;
}

/// Mean of a - b over vehicles with its paired bootstrap 95% interval.
struct Interval {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool decided() const { return lo > 0.0 || hi < 0.0; }
};

Interval PairedBootstrap(const std::vector<double>& a,
                         const std::vector<double>& b) {
  const size_t n = a.size();
  std::vector<double> diffs(n);
  Interval out;
  for (size_t i = 0; i < n; ++i) {
    diffs[i] = a[i] - b[i];
    out.mean += diffs[i];
  }
  out.mean /= static_cast<double>(n);
  Rng rng(kBootstrapSeed);
  std::vector<double> means(kResamples);
  for (double& mean : means) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += diffs[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1))];
    }
    mean = sum / static_cast<double>(n);
  }
  std::sort(means.begin(), means.end());
  const size_t tail = kResamples / 40;  // 2.5% on each side.
  out.lo = means[tail];
  out.hi = means[kResamples - 1 - tail];
  return out;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The comparisons each configuration decides: each pooled level against
/// the next level down, and the own model against global.
struct Comparison {
  const char* name;
  Level a;
  Level b;
};
constexpr Comparison kComparisons[] = {
    {"own - global (warm)", kOwn, kGlobalWarm},
    {"type - global (warm)", kTypeWarm, kGlobalWarm},
    {"type - global (cold)", kTypeCold, kGlobalCold},
    {"global - LV (warm)", kGlobalWarm, kLastValue},
    {"global - LV (cold)", kGlobalCold, kLastValue},
    {"global - MA (cold)", kGlobalCold, kMovingAverage},
};

struct ConfigResult {
  size_t vehicles = 0;
  uint64_t seed = 0;
  size_t evaluated = 0;
  double mean_pe[kNumLevels] = {};
  std::vector<Interval> intervals;
};

ConfigResult RunConfig(size_t vehicles, uint64_t seed) {
  ConfigResult result;
  result.vehicles = vehicles;
  result.seed = seed;
  Fleet fleet = Fleet::Generate(FleetConfig::Small(vehicles, seed));
  ExperimentRunner runner(&fleet);
  ExperimentOptions opts;
  opts.max_vehicles = vehicles;
  const std::vector<size_t> selected = runner.SelectVehicles(opts);

  std::map<std::string, size_t> skipped;
  std::vector<Member> members;
  for (size_t index : selected) {
    StatusOr<const VehicleDataset*> ds = runner.Dataset(index);
    Member m;
    if (!ds.ok() || !MakeMember(fleet.vehicle(index), ds.value(), &m)) {
      ++skipped["series too short"];
      continue;
    }
    members.push_back(m);
  }
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) {
              return a.vehicle_id < b.vehicle_id;
            });

  StatusOr<VehicleForecaster> global_warm =
      TrainPool(members, [](const Member&) { return true; });
  std::map<VehicleType, StatusOr<VehicleForecaster>> type_warm;
  for (const Member& m : members) {
    if (type_warm.count(m.type) > 0) continue;
    type_warm.emplace(m.type, TrainPool(members, [&m](const Member& o) {
                        return o.type == m.type;
                      }));
  }

  std::printf("\nfleet=%zu seed=%llu selected=%zu\n", vehicles,
              static_cast<unsigned long long>(seed), selected.size());
  std::printf("%8s %-18s", "vehicle", "type");
  for (const char* name : kLevelNames) std::printf(" %11s", name);
  std::printf("\n");

  std::vector<double> pe[kNumLevels];
  for (const Member& m : members) {
    VehicleForecaster own(Config(Algorithm::kLasso));
    Status trained = own.Train(*m.dataset, m.train_begin, m.train_end);
    StatusOr<VehicleForecaster> global_cold = TrainPool(
        members, [&m](const Member& o) { return o.vehicle_id != m.vehicle_id; });
    StatusOr<VehicleForecaster> type_cold =
        TrainPool(members, [&m](const Member& o) {
          return o.type == m.type && o.vehicle_id != m.vehicle_id;
        });
    VehicleForecaster lv(Config(Algorithm::kLastValue));
    VehicleForecaster ma(Config(Algorithm::kMovingAverage));
    // Baselines train trivially: they read the history at predict time.
    VUP_CHECK(lv.Train(*m.dataset, m.train_begin, m.train_end).ok());
    VUP_CHECK(ma.Train(*m.dataset, m.train_begin, m.train_end).ok());

    if (!type_cold.ok()) {
      ++skipped["alone of its type (no cold type pool)"];
      continue;
    }
    const StatusOr<VehicleForecaster>* models[kNumLevels] = {
        nullptr,     &global_warm, &global_cold, &type_warm.at(m.type),
        &type_cold,  nullptr,      nullptr};
    const VehicleForecaster* fitted[kNumLevels] = {&own, nullptr, nullptr,
                                                   nullptr, nullptr, &lv,
                                                   &ma};
    double row[kNumLevels];
    std::string failure;
    if (!trained.ok()) failure = "own model failed to train";
    for (int level = 0; level < kNumLevels && failure.empty(); ++level) {
      if (models[level] != nullptr) {
        if (!models[level]->ok()) {
          failure = "pooled model failed to train";
          break;
        }
        fitted[level] = &models[level]->value();
      }
      StatusOr<double> level_pe = HoldoutPe(*fitted[level], m);
      if (!level_pe.ok()) {
        failure = "holdout not scorable";
        break;
      }
      row[level] = level_pe.value();
    }
    if (!failure.empty()) {
      ++skipped[failure];
      continue;
    }
    std::printf("%8lld %-18s", static_cast<long long>(m.vehicle_id),
                std::string(VehicleTypeToString(m.type)).c_str());
    for (int level = 0; level < kNumLevels; ++level) {
      pe[level].push_back(row[level]);
      std::printf(" %11.2f", row[level]);
    }
    std::printf("\n");
  }

  result.evaluated = pe[kOwn].size();
  std::printf("%8s %-18s", "mean", "");
  for (int level = 0; level < kNumLevels; ++level) {
    result.mean_pe[level] = result.evaluated > 0 ? Mean(pe[level]) : NAN;
    std::printf(" %11.2f", result.mean_pe[level]);
  }
  std::printf("\nevaluated=%zu", result.evaluated);
  for (const auto& [reason, count] : skipped) {
    std::printf("  skipped %zu: %s", count, reason.c_str());
  }
  std::printf("\n");
  if (result.evaluated == 0) return result;

  std::printf("%-22s %9s %21s  %s\n", "comparison (PE)", "mean",
              "95% interval", "verdict");
  for (const Comparison& c : kComparisons) {
    const Interval interval = PairedBootstrap(pe[c.a], pe[c.b]);
    result.intervals.push_back(interval);
    std::printf("%-22s %+9.2f  [%+8.2f, %+8.2f]  %s\n", c.name,
                interval.mean, interval.lo, interval.hi,
                interval.decided() ? "decided" : "undecided");
  }
  return result;
}

void Run() {
  bench::PrintHeader(
      "Ablation: serving fallback levels (own, global, type, LV, MA)",
      "Section 1 design decision (per-vehicle models; pooled models are "
      "\"too generic\")");
  std::printf("Lasso w=21 K=7, train span %zu days, holdout %zu days, "
              "%zu bootstrap resamples (seed %llu)\n",
              kTrainWindow, kHoldoutDays, kResamples,
              static_cast<unsigned long long>(kBootstrapSeed));

  std::vector<ConfigResult> results;
  for (size_t vehicles : {size_t{40}, size_t{120}}) {
    for (uint64_t seed : {uint64_t{42}, uint64_t{7}, uint64_t{11}}) {
      results.push_back(RunConfig(vehicles, seed));
    }
  }

  std::printf("\nsummary: mean PE per level\n%-13s %4s", "fleet/seed", "n");
  for (const char* name : kLevelNames) std::printf(" %11s", name);
  std::printf("\n");
  for (const ConfigResult& r : results) {
    std::printf("%4zu / %-6llu %4zu", r.vehicles,
                static_cast<unsigned long long>(r.seed), r.evaluated);
    for (double mean : r.mean_pe) std::printf(" %11.2f", mean);
    std::printf("\n");
  }
  std::printf("\nsummary: paired differences, mean [95%% interval], "
              "* = decided\n%-22s", "comparison (PE)");
  for (const ConfigResult& r : results) {
    std::printf(" %4zu/%-22llu", r.vehicles,
                static_cast<unsigned long long>(r.seed));
  }
  std::printf("\n");
  for (size_t c = 0; c < std::size(kComparisons); ++c) {
    std::printf("%-22s", kComparisons[c].name);
    for (const ConfigResult& r : results) {
      if (c >= r.intervals.size()) {
        std::printf(" %-27s", "n/a");
        continue;
      }
      const Interval& i = r.intervals[c];
      std::printf(" %+6.1f [%+6.1f,%+6.1f]%s  ", i.mean, i.lo, i.hi,
                  i.decided() ? "*" : " ");
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace vup

int main() {
  vup::Run();
  return 0;
}
