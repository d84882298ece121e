// vupred command-line tool: the library's workflows without writing C++.
//
//   vupred generate     Write synthetic per-vehicle dataset CSVs.
//   vupred train        Train one per-vehicle forecaster and persist it.
//   vupred predict      Score a persisted forecaster on a dataset.
//   vupred evaluate     Walk-forward hold-out evaluation (Section 4.1).
//   vupred fleet        Fleet experiment, optionally fault-injected and
//                       parallelized (--jobs=N).
//   vupred publish      Train the fleet and publish model bundles into a
//                       serving registry directory, optionally gated by
//                       --validate and --canary-fraction; --rollback
//                       reverts the last journaled promotion.
//
// `vupred <command> --help` prints the command's usage. Unknown flags,
// malformed numbers and unknown names are rejected with exit code 2.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_meta.h"
#include "cluster/pooled.h"
#include "common/check.h"
#include "common/string_util.h"
#include "core/evaluation.h"
#include "core/experiment.h"
#include "core/forecaster.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/guarded_publish.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/validator.h"
#include "table/csv.h"
#include "telemetry/fault_injector.h"
#include "telemetry/fleet.h"

namespace vup {
namespace {

// Flags whose value must parse as an integer, or as a number, in every
// command that takes them. Main rejects a malformed value with exit code 2
// before the command runs, so GetInt and GetDouble never fall back on a
// typo.
const std::vector<std::string> kIntegerFlags = {
    "vehicles", "seed", "fault-seed", "max-vehicles", "eval-days",
    "retrain-every", "train-window", "lookback", "topk", "jobs",
    "clusters", "acf-lags", "train-days", "keep-generations"};
const std::vector<std::string> kNumberFlags = {"canary-fraction"};

bool Contains(const std::vector<std::string>& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// Minimal --key=value flag parser with an allowlist check.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        extra_.push_back(arg);
        continue;
      }
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  long long GetInt(const std::string& key, long long fallback) const {
    VUP_CHECK(Contains(kIntegerFlags, key)) << key;
    auto it = values_.find(key);
    return it == values_.end() ? fallback : ParseInt(it->second).value();
  }

  double GetDouble(const std::string& key, double fallback) const {
    VUP_CHECK(Contains(kNumberFlags, key)) << key;
    auto it = values_.find(key);
    return it == values_.end() ? fallback : ParseDouble(it->second).value();
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  const std::vector<std::string>& extra() const { return extra_; }

  /// Flags not in `allowed` (--help is always allowed).
  std::vector<std::string> UnknownKeys(
      const std::vector<std::string>& allowed) const {
    std::vector<std::string> unknown;
    for (const auto& [key, value] : values_) {
      if (key != "help" && !Contains(allowed, key)) unknown.push_back(key);
    }
    return unknown;
  }

  /// The first numeric flag whose value does not parse; empty when none.
  std::string MalformedKey() const {
    for (const auto& [key, value] : values_) {
      if ((Contains(kIntegerFlags, key) && !ParseInt(value).ok()) ||
          (Contains(kNumberFlags, key) && !ParseDouble(value).ok())) {
        return key;
      }
    }
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> extra_;
};

/// Reads a seed flag (`fallback` when absent) into `seed`. A negative
/// value is an error, reported here: the cast to uint64_t would wrap it
/// into a seed that files recording it cannot read back.
bool SeedFlag(const Flags& flags, const std::string& key, long long fallback,
              uint64_t* seed) {
  const long long value = flags.GetInt(key, fallback);
  if (value < 0) {
    std::fprintf(stderr, "error: --%s must be >= 0, got %lld\n", key.c_str(),
                 value);
    return false;
  }
  *seed = static_cast<uint64_t>(value);
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// ---- Observability plumbing (fleet) ------------------------------------

/// Resolves --metrics-format, defaulting by --metrics-out extension:
/// *.json -> json, anything else -> prom. Empty string on a bad value
/// (reported to stderr); call before doing any work so a typo exits fast.
std::string ResolveMetricsFormat(const Flags& flags) {
  const std::string path = flags.Get("metrics-out", "");
  std::string format = flags.Get("metrics-format", "");
  if (format.empty()) format = path.ends_with(".json") ? "json" : "prom";
  if (format != "prom" && format != "json") {
    std::fprintf(stderr, "unknown --metrics-format=%s (prom|json)\n",
                 format.c_str());
    return "";
  }
  return format;
}

/// Writes the global metrics snapshot to --metrics-out (no-op when the
/// flag is absent).
int WriteMetricsOutput(const Flags& flags, const std::string& format) {
  const std::string path = flags.Get("metrics-out", "");
  if (path.empty()) return 0;
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  snapshot.Normalize();
  const std::string text = format == "json" ? obs::ToJson(snapshot)
                                            : obs::ToPrometheusText(snapshot);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Fail(Status::Internal("cannot write " + path));
  out << text;
  out.flush();
  if (!out) return Fail(Status::DataLoss("write failed: " + path));
  std::printf("wrote metrics (%s) to %s\n", format.c_str(), path.c_str());
  return 0;
}

/// RAII --trace handling: activates a tracer for the scope and prints the
/// aggregated span tree on destruction when tracing was requested.
class ScopedCliTracer {
 public:
  explicit ScopedCliTracer(bool enabled) : enabled_(enabled) {
    if (enabled_) obs::Tracer::SetActive(&tracer_);
  }
  ~ScopedCliTracer() {
    if (!enabled_) return;
    obs::Tracer::SetActive(nullptr);
    std::printf("trace (%llu root spans):\n%s",
                static_cast<unsigned long long>(tracer_.num_roots()),
                tracer_.ToString().c_str());
  }
  ScopedCliTracer(const ScopedCliTracer&) = delete;
  ScopedCliTracer& operator=(const ScopedCliTracer&) = delete;

 private:
  bool enabled_;
  obs::Tracer tracer_;
};

StatusOr<VehicleDataset> LoadDatasetCsv(const std::string& path,
                                        const std::string& country_code) {
  VUP_ASSIGN_OR_RETURN(const Country* country,
                       CountryRegistry::Global().Find(country_code));
  // Schema: date, utilization_hours, then every canonical feature column.
  std::vector<Field> fields;
  fields.push_back({"date", DataType::kDate, false});
  fields.push_back({"utilization_hours", DataType::kDouble, false});
  for (const std::string& name : VehicleDataset::FeatureNames()) {
    fields.push_back({name, DataType::kDouble, false});
  }
  VUP_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  VUP_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path, schema));
  VehicleInfo info;
  info.vehicle_id = 1;
  info.country_code = country_code;
  return VehicleDataset::FromTable(info, table, *country);
}

/// Reads --algorithm, --lookback and --topk (the command's defaults when
/// absent) into `cfg`. An unknown algorithm name is an error, reported
/// here: it must not silently train another algorithm. So is a baseline
/// (LV, MA) when `fitted_for` names a use that needs a fitted model: a
/// baseline has nothing to pool per cluster and nothing to save.
bool ForecasterFlags(const Flags& flags, Algorithm algorithm,
                     long long lookback, long long topk,
                     const char* fitted_for, ForecasterConfig* cfg) {
  const std::string name =
      flags.Get("algorithm", std::string(AlgorithmToString(algorithm)));
  StatusOr<Algorithm> parsed = AlgorithmFromString(name);
  if (!parsed.ok()) {
    std::fprintf(stderr,
                 "error: unknown --algorithm=%s (LV|MA|LR|Lasso|SVR|GB)\n",
                 name.c_str());
    return false;
  }
  if (fitted_for != nullptr &&
      (parsed.value() == Algorithm::kLastValue ||
       parsed.value() == Algorithm::kMovingAverage)) {
    std::fprintf(stderr,
                 "error: %s needs an ML algorithm (baselines have no fitted "
                 "state), got --algorithm=%s\n",
                 fitted_for, name.c_str());
    return false;
  }
  cfg->algorithm = parsed.value();
  cfg->windowing.lookback_w =
      static_cast<size_t>(flags.GetInt("lookback", lookback));
  cfg->selection.top_k = static_cast<size_t>(flags.GetInt("topk", topk));
  return true;
}

/// The --clusters block of fleet and publish: copies the datasets of the
/// vehicles at `indices` into `datasets` and clusters their usage profiles
/// with seeded k-means (k = --clusters, profile ACF lags = --acf-lags).
StatusOr<cluster::ClustersMeta> ClusterVehicles(
    const Flags& flags, ExperimentRunner* runner,
    const std::vector<size_t>& indices, uint64_t seed,
    std::vector<VehicleDataset>* datasets) {
  for (size_t index : indices) {
    VUP_ASSIGN_OR_RETURN(const VehicleDataset* ds, runner->Dataset(index));
    datasets->push_back(*ds);
  }
  cluster::ProfileConfig profile_config;
  profile_config.acf_lags = static_cast<size_t>(
      std::max<long long>(flags.GetInt("acf-lags", 14), 1));
  cluster::KMeansConfig kmeans_config;
  kmeans_config.k = static_cast<size_t>(
      std::max<long long>(flags.GetInt("clusters", 3), 1));
  kmeans_config.seed = seed;
  return cluster::BuildFleetClustering(*datasets, profile_config,
                                       kmeans_config);
}

// ---- Commands ---------------------------------------------------------

int RunGenerate(const Flags& flags) {
  std::string out_dir = flags.Get("out", ".");
  size_t vehicles = static_cast<size_t>(flags.GetInt("vehicles", 20));
  uint64_t seed = 0;
  if (!SeedFlag(flags, "seed", 42, &seed)) return 2;

  Fleet fleet = Fleet::Generate(FleetConfig::Small(vehicles, seed));

  // Manifest.
  Schema manifest_schema =
      Schema::Make({{"vehicle_id", DataType::kInt64, false},
                    {"type", DataType::kString, false},
                    {"model", DataType::kString, false},
                    {"country", DataType::kString, false},
                    {"install_date", DataType::kDate, false},
                    {"file", DataType::kString, false}})
          .value();
  Table manifest(manifest_schema);

  for (size_t i = 0; i < fleet.size(); ++i) {
    StatusOr<VehicleDataset> ds = PrepareVehicleDataset(fleet, i);
    if (!ds.ok()) return Fail(ds.status());
    StatusOr<Table> table = ds.value().ToTable();
    if (!table.ok()) return Fail(table.status());
    const VehicleInfo& info = fleet.vehicle(i);
    std::string file = StrFormat("vehicle_%lld.csv",
                                 static_cast<long long>(info.vehicle_id));
    Status written = WriteCsvFile(table.value(), out_dir + "/" + file);
    if (!written.ok()) return Fail(written);
    Status appended = manifest.AppendRow(
        {Value::Int(info.vehicle_id),
         Value::Str(std::string(VehicleTypeToString(info.type))),
         Value::Str(info.model_id), Value::Str(info.country_code),
         Value::Day(info.install_date), Value::Str(file)});
    if (!appended.ok()) return Fail(appended);
  }
  Status written = WriteCsvFile(manifest, out_dir + "/manifest.csv");
  if (!written.ok()) return Fail(written);
  std::printf("wrote %zu vehicle datasets + manifest.csv to %s\n",
              fleet.size(), out_dir.c_str());
  return 0;
}

int RunTrain(const Flags& flags) {
  ForecasterConfig cfg;
  if (!ForecasterFlags(flags, Algorithm::kGradientBoosting, 60, 15, "train",
                       &cfg)) {
    return 2;
  }
  StatusOr<VehicleDataset> ds =
      LoadDatasetCsv(flags.Get("data", ""), flags.Get("country", "IT"));
  if (!ds.ok()) return Fail(ds.status());

  size_t n = ds.value().num_days();
  size_t train_days = static_cast<size_t>(flags.GetInt("train-days", 200));
  size_t begin = n > train_days ? n - train_days : cfg.windowing.lookback_w;
  VehicleForecaster forecaster(cfg);
  Status trained = forecaster.Train(ds.value(), begin, n);
  if (!trained.ok()) return Fail(trained);

  std::ofstream out(flags.Get("out", ""));
  if (!out) {
    return Fail(Status::NotFound("cannot open " + flags.Get("out", "")));
  }
  Status saved = forecaster.Save(out);
  if (!saved.ok()) return Fail(saved);
  std::printf("trained %s on %zu records (%zu ACF-selected lags), saved to "
              "%s\n",
              std::string(AlgorithmToString(cfg.algorithm)).c_str(),
              n - begin, forecaster.selected_lags().size(),
              flags.Get("out", "").c_str());
  return 0;
}

int RunPredict(const Flags& flags) {
  StatusOr<VehicleDataset> ds =
      LoadDatasetCsv(flags.Get("data", ""), flags.Get("country", "IT"));
  if (!ds.ok()) return Fail(ds.status());
  std::ifstream in(flags.Get("model", ""));
  if (!in) {
    return Fail(Status::NotFound("cannot open " + flags.Get("model", "")));
  }
  StatusOr<VehicleForecaster> forecaster = VehicleForecaster::Load(in);
  if (!forecaster.ok()) return Fail(forecaster.status());
  StatusOr<double> pred =
      forecaster.value().PredictTarget(ds.value(), ds.value().num_days());
  if (!pred.ok()) return Fail(pred.status());
  Date tomorrow = ds.value().dates().back().AddDays(1);
  std::printf("%s %.2f\n", tomorrow.ToString().c_str(), pred.value());
  return 0;
}

int RunEvaluate(const Flags& flags) {
  EvaluationConfig cfg;
  if (!ForecasterFlags(flags, Algorithm::kGradientBoosting, 60, 15, nullptr,
                       &cfg.forecaster)) {
    return 2;
  }
  const std::string scenario = flags.Get("scenario", "next-day");
  if (scenario == "next-working-day") {
    cfg.scenario = Scenario::kNextWorkingDay;
  } else if (scenario != "next-day") {
    std::fprintf(stderr,
                 "error: unknown --scenario=%s (next-day|next-working-day)\n",
                 scenario.c_str());
    return 2;
  }
  cfg.eval_days = static_cast<size_t>(flags.GetInt("eval-days", 60));
  cfg.retrain_every = static_cast<size_t>(flags.GetInt("retrain-every", 7));
  cfg.train_window = static_cast<size_t>(flags.GetInt("train-window", 140));
  StatusOr<VehicleDataset> ds =
      LoadDatasetCsv(flags.Get("data", ""), flags.Get("country", "IT"));
  if (!ds.ok()) return Fail(ds.status());
  StatusOr<VehicleEvaluation> ev = EvaluateVehicle(ds.value(), cfg);
  if (!ev.ok()) return Fail(ev.status());
  std::printf("algorithm=%s scenario=%s predictions=%zu PE=%.2f%% "
              "MAE=%.3fh\n",
              std::string(AlgorithmToString(cfg.forecaster.algorithm))
                  .c_str(),
              std::string(ScenarioToString(cfg.scenario)).c_str(),
              ev.value().num_predictions, ev.value().pe, ev.value().mae);
  return 0;
}

int RunFleet(const Flags& flags) {
  std::string profile_name = flags.Get("fault-profile", "none");
  FaultProfile profile;
  if (profile_name == "none") {
    profile = FaultProfile::None();
  } else if (profile_name == "mild") {
    profile = FaultProfile::Mild();
  } else if (profile_name == "severe") {
    profile = FaultProfile::Severe();
  } else {
    std::fprintf(stderr,
                 "unknown --fault-profile=%s (none|mild|severe)\n",
                 profile_name.c_str());
    return 2;
  }

  int64_t vehicles = flags.GetInt("vehicles", 40);
  if (vehicles <= 0) {
    std::fprintf(stderr, "error: --vehicles must be positive, got %lld\n",
                 static_cast<long long>(vehicles));
    return 2;
  }
  int64_t jobs = flags.GetInt("jobs", 1);
  if (jobs < 0) {
    std::fprintf(stderr,
                 "error: --jobs must be >= 0 (0 = auto), got %lld\n",
                 static_cast<long long>(jobs));
    return 2;
  }
  if (jobs == 0) {
    // Auto: one job per hardware thread, capped so a many-core box does
    // not oversubscribe the small demo fleets this command runs on.
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = std::clamp<int64_t>(hw == 0 ? 1 : static_cast<int64_t>(hw), 1,
                               16);
  }
  uint64_t seed = 0;
  uint64_t fault_seed = 0;
  if (!SeedFlag(flags, "seed", 42, &seed) ||
      !SeedFlag(flags, "fault-seed", 99, &fault_seed)) {
    return 2;
  }
  EvaluationConfig cfg;
  if (!ForecasterFlags(flags, Algorithm::kLasso, 21, 7,
                       flags.Has("clusters") ? "--clusters" : nullptr,
                       &cfg.forecaster)) {
    return 2;
  }
  cfg.eval_days = static_cast<size_t>(flags.GetInt("eval-days", 20));
  cfg.retrain_every = static_cast<size_t>(flags.GetInt("retrain-every", 10));
  cfg.train_window = static_cast<size_t>(flags.GetInt("train-window", 60));
  const std::string metrics_format = ResolveMetricsFormat(flags);
  if (metrics_format.empty()) return 2;
  ScopedCliTracer tracer(flags.Has("trace"));

  Fleet fleet =
      Fleet::Generate(FleetConfig::Small(static_cast<size_t>(vehicles), seed));
  ExperimentRunner runner(&fleet);

  ExperimentOptions opts;
  opts.max_vehicles = static_cast<size_t>(flags.GetInt("max-vehicles", 6));
  opts.faults = profile;
  opts.fault_seed = fault_seed;
  opts.jobs = static_cast<size_t>(jobs);

  StatusOr<ExperimentResult> run = runner.Run(cfg, opts);
  if (!run.ok()) return Fail(run.status());
  const ExperimentResult& result = run.value();
  std::printf("fleet=%zu selected=%zu algorithm=%s fault-profile=%s\n",
              fleet.size(), result.vehicle_indices.size(),
              std::string(AlgorithmToString(cfg.forecaster.algorithm))
                  .c_str(),
              profile_name.c_str());
  std::printf("PE=%.2f%% medianPE=%.2f%% MAE=%.3fh evaluated=%zu "
              "skipped=%zu quarantined=%zu\n",
              result.fleet.mean_pe, result.fleet.median_pe,
              result.fleet.mean_mae, result.fleet.vehicles_evaluated,
              result.fleet.vehicles_skipped,
              result.fleet.vehicles_quarantined);
  std::printf("degradation: %s\n", result.degradation.ToString().c_str());
  if (flags.Has("clusters")) {
    // Hierarchy report: cluster the evaluated vehicles' usage profiles and
    // compare per-vehicle vs pooled per-cluster vs pooled global PE on the
    // shared trailing-holdout protocol (holdout = --eval-days).
    std::vector<VehicleDataset> cluster_datasets;
    StatusOr<cluster::ClustersMeta> cmeta = ClusterVehicles(
        flags, &runner, result.vehicle_indices, seed, &cluster_datasets);
    if (!cmeta.ok()) return Fail(cmeta.status());
    cluster::PooledTrainingOptions popts;
    popts.forecaster = cfg.forecaster;
    popts.train_window = cfg.train_window;
    popts.holdout_days = cfg.eval_days;
    StatusOr<cluster::HierarchyEvaluation> hier =
        cluster::EvaluateHierarchy(cluster_datasets, cmeta.value(), popts);
    if (!hier.ok()) return Fail(hier.status());
    const cluster::HierarchyEvaluation& h = hier.value();
    std::printf("hierarchy k=%zu inertia=%.3f: per-vehicle PE=%.2f%% "
                "per-cluster PE=%.2f%% global PE=%.2f%% (evaluated=%zu "
                "skipped=%zu)\n",
                cmeta.value().k(), cmeta.value().inertia,
                h.per_vehicle.mean_pe, h.per_cluster.mean_pe,
                h.global.mean_pe, h.per_vehicle.vehicles,
                h.vehicles_skipped);
  }
  const int metrics_rc = WriteMetricsOutput(flags, metrics_format);
  if (metrics_rc != 0) return metrics_rc;
  if (flags.Has("strict") && result.degradation.vehicles_quarantined > 0) {
    std::fprintf(stderr,
                 "error: %zu vehicles quarantined under --strict\n",
                 result.degradation.vehicles_quarantined);
    return 1;
  }
  return 0;
}

int RunPublish(const Flags& flags) {
  const std::string out_dir = flags.Get("out", "");
  if (flags.Has("rollback")) {
    // Standalone revert: undo the last journaled promotion and exit.
    StatusOr<std::string> restored = serve::RollbackGeneration(out_dir);
    if (!restored.ok()) return Fail(restored.status());
    std::printf("rolled back %s to %s\n", out_dir.c_str(),
                restored.value().c_str());
    return 0;
  }
  ForecasterConfig cfg;
  if (!ForecasterFlags(flags, Algorithm::kLasso, 21, 7, "publish", &cfg)) {
    return 2;
  }
  serve::RegistryMeta meta;
  if (!SeedFlag(flags, "seed", 42, &meta.fleet_seed)) return 2;
  meta.fleet_vehicles =
      static_cast<size_t>(flags.GetInt("vehicles", 40));
  meta.algorithm = std::string(AlgorithmToString(cfg.algorithm));
  const size_t max_vehicles =
      static_cast<size_t>(flags.GetInt("max-vehicles", 6));
  const size_t train_days =
      static_cast<size_t>(flags.GetInt("train-days", 200));

  Fleet fleet = Fleet::Generate(
      FleetConfig::Small(meta.fleet_vehicles, meta.fleet_seed));
  ExperimentRunner runner(&fleet);
  ExperimentOptions opts;
  opts.max_vehicles = max_vehicles;
  std::vector<size_t> selected = runner.SelectVehicles(opts);
  if (selected.empty()) {
    return Fail(Status::FailedPrecondition(
        "no eligible vehicles to publish models for"));
  }

  serve::ModelRegistry::Options reg_opts;
  reg_opts.directory = out_dir;
  reg_opts.cache_capacity = 0;
  StatusOr<serve::ModelRegistry> registry =
      serve::ModelRegistry::Open(std::move(reg_opts));
  if (!registry.ok()) return Fail(registry.status());

  // Bundles are staged into a fresh generation, made live by a single
  // atomic CURRENT flip: a publish killed mid-run leaves any previously
  // published fleet untouched.
  StatusOr<serve::GenerationPublisher> publisher =
      registry.value().NewGeneration();
  if (!publisher.ok()) return Fail(publisher.status());

  size_t published = 0;
  std::map<int64_t, const VehicleDataset*> probe_data;
  for (size_t index : selected) {
    StatusOr<const VehicleDataset*> ds = runner.Dataset(index);
    if (!ds.ok()) return Fail(ds.status());
    const VehicleDataset& d = *ds.value();
    const size_t n = d.num_days();
    const size_t begin =
        n > train_days
            ? std::max(n - train_days, cfg.windowing.lookback_w)
            : cfg.windowing.lookback_w;
    VehicleForecaster forecaster(cfg);
    Status trained = forecaster.Train(d, begin, n);
    const int64_t id = fleet.vehicle(index).vehicle_id;
    if (!trained.ok()) {
      std::fprintf(stderr, "warning: vehicle %lld not published: %s\n",
                   static_cast<long long>(id),
                   trained.ToString().c_str());
      continue;
    }
    Status stored = publisher.value().Add(id, forecaster);
    if (!stored.ok()) return Fail(stored);
    probe_data[id] = ds.value();
    ++published;
  }
  if (published == 0) {
    return Fail(Status::Internal("no vehicle model could be trained"));
  }
  // Optional hierarchy publish: cluster the same vehicles, stage pooled
  // per-cluster / per-type / global bundles under their reserved ids plus
  // clusters.meta into the generation, all made live by the same CURRENT
  // flip as the per-vehicle bundles.
  size_t pooled_published = 0;
  size_t pooled_k = 0;
  if (flags.Has("clusters")) {
    std::vector<VehicleDataset> cluster_datasets;
    StatusOr<cluster::ClustersMeta> cmeta = ClusterVehicles(
        flags, &runner, selected, meta.fleet_seed, &cluster_datasets);
    if (!cmeta.ok()) return Fail(cmeta.status());
    pooled_k = cmeta.value().k();
    cluster::PooledTrainingOptions popts;
    popts.forecaster = cfg;
    popts.train_window = train_days;
    popts.holdout_days = 0;  // Serving models train through the last day.
    StatusOr<std::vector<cluster::PooledModel>> pooled =
        cluster::TrainPooledHierarchy(cluster_datasets, cmeta.value(),
                                      popts);
    if (!pooled.ok()) return Fail(pooled.status());
    for (const cluster::PooledModel& model : pooled.value()) {
      Status stored = publisher.value().Add(model.model_id, model.forecaster);
      if (!stored.ok()) return Fail(stored);
      ++pooled_published;
    }
    Status meta_written = cluster::WriteClustersMetaFile(
        publisher.value().staging_dir(), cmeta.value());
    if (!meta_written.ok()) return Fail(meta_written);
  }
  // The live generation's bundle directory (if any) before the CURRENT
  // flip: the holdout-PE guardrail and the canary both compare against it.
  std::string live_dir;
  if (registry.value().active_generation() != 0) {
    live_dir = out_dir + "/" +
               serve::ModelRegistry::GenerationDirName(
                   registry.value().active_generation());
  }

  Status finalized = publisher.value().Finalize(meta);
  if (!finalized.ok()) return Fail(finalized);

  if (flags.Has("validate")) {
    // Publish gate over the finalized generation: every bundle its
    // MANIFEST lists must match its entry, deserialize and survive its
    // sanity probes, and the staged fleet must not regress holdout PE
    // against the live generation. A failing generation is never promoted
    // -- CURRENT is untouched -- and stays on disk, prunable.
    StatusOr<serve::ValidationReport> report = serve::ValidateGeneration(
        publisher.value().staging_dir(), live_dir, probe_data);
    const bool passed = report.ok() && report.value().ok();
    obs::Counter* validations = obs::MetricsRegistry::Global().GetCounter(
        "vupred_publish_validations_total",
        "Publish-gate validation outcomes",
        {{"result", passed ? "pass" : "fail"}});
    if (validations != nullptr) validations->Increment();
    if (!report.ok()) return Fail(report.status());
    std::printf("validate: %s\n", report.value().Summary().c_str());
    if (!passed) {
      for (const std::string& failure : report.value().failures) {
        std::fprintf(stderr, "validate: %s\n", failure.c_str());
      }
      return Fail(Status::FailedPrecondition(
          "generation failed validation; CURRENT not advanced"));
    }
  }

  const double canary_fraction = flags.GetDouble("canary-fraction", 0.0);
  if (canary_fraction > 0.0 && !live_dir.empty()) {
    // Canary drill before the flip: shadow-score the finalized (still
    // un-promoted) generation behind live traffic on the seeded vehicle
    // slice. A guardrail breach aborts with CURRENT untouched.
    serve::ModelRegistry::Options staged_opts;
    staged_opts.directory = publisher.value().staging_dir();
    staged_opts.cache_capacity = 0;
    StatusOr<serve::ModelRegistry> staged =
        serve::ModelRegistry::Open(std::move(staged_opts));
    if (!staged.ok()) return Fail(staged.status());
    serve::PredictionService::Options service_opts;
    service_opts.canary.staged = &staged.value();
    service_opts.canary.fraction = canary_fraction;
    service_opts.canary.seed = meta.fleet_seed;
    serve::PredictionService service(&registry.value(), nullptr,
                                     service_opts);
    for (const auto& [id, ds] : probe_data) {
      serve::PredictionRequest request(id, ds, ds->num_days());
      service.Predict(request);
    }
    serve::CanaryVerdict verdict = service.EvaluateCanary();
    std::printf("canary: %s (shadow=%llu breaches=%llu)\n",
                verdict.reason.c_str(),
                static_cast<unsigned long long>(
                    verdict.snapshot.shadow_scores),
                static_cast<unsigned long long>(
                    verdict.snapshot.breaches()));
    if (!verdict.healthy) {
      return Fail(Status::FailedPrecondition(
          "canary guardrail breached; CURRENT not advanced: " +
          verdict.reason));
    }
  }

  Status committed = publisher.value().Promote();
  if (!committed.ok()) return Fail(committed);
  // Pick the committed generation up before pruning, so the prune keeps
  // the fleet that was just made live.
  Status reloaded = registry.value().Reload();
  if (!reloaded.ok()) return Fail(reloaded);
  const long long keep = flags.GetInt("keep-generations", 2);
  if (keep >= 0) {
    Status pruned = registry.value().PruneGenerations(
        static_cast<size_t>(keep));
    if (!pruned.ok()) return Fail(pruned);
  }
  std::printf("published %zu/%zu model bundles (%s) to %s as %s\n",
              published, selected.size(),
              std::string(AlgorithmToString(cfg.algorithm)).c_str(),
              out_dir.c_str(),
              serve::ModelRegistry::GenerationDirName(
                  publisher.value().number())
                  .c_str());
  if (flags.Has("clusters")) {
    std::printf("published %zu pooled hierarchy bundles + clusters.meta "
                "(k=%zu)\n",
                pooled_published, pooled_k);
  }
  return 0;
}

// ---- Command registry -------------------------------------------------

struct Command {
  const char* name;
  const char* summary;
  const char* usage;
  std::vector<std::string> flags;      // Allowed flag keys.
  std::vector<std::string> required;   // Required flag keys.
  int (*run)(const Flags&);
};

const std::vector<Command>& Commands() {
  static const std::vector<Command>& commands = *new std::vector<Command>{
      {"generate", "write synthetic per-vehicle dataset CSVs",
       "usage: vupred generate --out=DIR [--vehicles=N] [--seed=S]\n"
       "  Generate a synthetic fleet and write one dataset CSV per vehicle\n"
       "  plus a manifest.csv describing the units.\n",
       {"out", "vehicles", "seed"},
       {"out"},
       RunGenerate},
      {"train", "train one per-vehicle forecaster and persist it",
       "usage: vupred train --data=FILE.csv --out=MODEL.txt\n"
       "  [--algorithm=GB] [--country=IT] [--lookback=60] [--topk=15]\n"
       "  [--train-days=200]\n"
       "  Train a per-vehicle forecaster on a dataset CSV and persist it\n"
       "  (ML algorithms only: the baselines LV and MA have no state).\n",
       {"data", "out", "algorithm", "country", "lookback", "topk",
        "train-days"},
       {"data", "out"},
       RunTrain},
      {"predict", "score a persisted forecaster on a dataset",
       "usage: vupred predict --data=FILE.csv --model=MODEL.txt\n"
       "  [--country=IT]\n"
       "  Load a persisted forecaster and forecast the day after the\n"
       "  series.\n",
       {"data", "model", "country"},
       {"data", "model"},
       RunPredict},
      {"evaluate", "walk-forward hold-out evaluation (Section 4.1)",
       "usage: vupred evaluate --data=FILE.csv [--algorithm=GB]\n"
       "  [--country=IT] [--scenario=next-day|next-working-day]\n"
       "  [--eval-days=60] [--retrain-every=7] [--train-window=140]\n"
       "  [--lookback=60] [--topk=15]\n"
       "  Walk-forward hold-out evaluation on one dataset.\n",
       {"data", "algorithm", "country", "scenario", "eval-days",
        "retrain-every", "train-window", "lookback", "topk"},
       {"data"},
       RunEvaluate},
      {"fleet", "fleet experiment with faults and --jobs parallelism",
       "usage: vupred fleet [--vehicles=N] [--seed=S] [--max-vehicles=M]\n"
       "  [--algorithm=Lasso] [--eval-days=20] [--retrain-every=10]\n"
       "  [--train-window=60] [--lookback=21] [--topk=7] [--jobs=N]\n"
       "  [--fault-profile=none|mild|severe] [--fault-seed=S] [--strict]\n"
       "  [--clusters=K] [--acf-lags=14] [--metrics-out=FILE]\n"
       "  [--metrics-format=prom|json] [--trace]\n"
       "  Fleet experiment on a demo fleet, optionally routed through the\n"
       "  telemetry fault injector. --jobs=N evaluates vehicles on N\n"
       "  worker threads with byte-identical output; --jobs=0 picks one\n"
       "  job per hardware thread (capped at 16). With --strict, exits\n"
       "  non-zero when any vehicle was quarantined. --clusters=K\n"
       "  additionally clusters the evaluated vehicles' usage profiles\n"
       "  (seeded k-means) and reports per-vehicle vs pooled per-cluster\n"
       "  vs pooled global PE on the shared holdout (ML algorithms only;\n"
       "  an error when no vehicle is evaluable). --metrics-out writes\n"
       "  the metrics snapshot (Prometheus text, or JSON when the path\n"
       "  ends in .json or --metrics-format=json); --trace prints the\n"
       "  aggregated pipeline span tree.\n",
       {"vehicles", "seed", "max-vehicles", "algorithm", "eval-days",
        "retrain-every", "train-window", "lookback", "topk", "jobs",
        "fault-profile", "fault-seed", "strict", "clusters", "acf-lags",
        "metrics-out", "metrics-format", "trace"},
       {},
       RunFleet},
      {"publish", "train the fleet and publish bundles into a registry",
       "usage: vupred publish --out=DIR [--vehicles=N] [--seed=S]\n"
       "  [--max-vehicles=M] [--algorithm=Lasso] [--lookback=21]\n"
       "  [--topk=7] [--train-days=200] [--keep-generations=2]\n"
       "  [--clusters=K] [--acf-lags=14] [--validate]\n"
       "  [--canary-fraction=F] [--rollback]\n"
       "  Train one forecaster per eligible fleet vehicle and write its\n"
       "  compact bundle (vehicle_<id>.cfcst) plus registry metadata and a\n"
       "  MANIFEST into DIR as a new generation, made live by an atomic\n"
       "  CURRENT flip, ready for any ModelRegistry consumer. With\n"
       "  --clusters=K the same generation also carries clusters.meta plus\n"
       "  pooled per-cluster / per-type / global bundles under their\n"
       "  reserved negative ids, so serving falls back down the hierarchy\n"
       "  for vehicles without a bundle. Old generations beyond\n"
       "  --keep-generations are pruned (never the ones the rollback\n"
       "  journal points at). The baselines LV and MA have no state to\n"
       "  publish.\n"
       "  --validate gates the CURRENT flip: every bundle the finalized\n"
       "  MANIFEST lists must match it, decode and survive finite/bounded\n"
       "  sanity probes, and the staged fleet must not regress holdout PE\n"
       "  against the live generation; a failing generation is never\n"
       "  promoted.\n"
       "  --canary-fraction=F shadow-scores the finalized generation\n"
       "  behind live traffic on the seeded F-slice of vehicles before\n"
       "  the flip; a canary breach aborts with CURRENT untouched.\n"
       "  --rollback (standalone) undoes the last journaled promotion\n"
       "  and exits: CURRENT flips back to the previous generation.\n",
       {"out", "vehicles", "seed", "max-vehicles", "algorithm", "lookback",
        "topk", "train-days", "keep-generations", "clusters", "acf-lags",
        "validate", "canary-fraction", "rollback"},
       {"out"},
       RunPublish},
  };
  return commands;
}

void PrintGlobalUsage(std::FILE* to) {
  std::fprintf(to, "vupred -- industrial vehicle usage prediction\n");
  std::fprintf(to, "commands:\n");
  for (const Command& cmd : Commands()) {
    std::fprintf(to, "  %-12s %s\n", cmd.name, cmd.summary);
  }
  std::fprintf(to, "run `vupred <command> --help` for per-command flags\n");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintGlobalUsage(stderr);
    return 2;
  }
  std::string name = argv[1];
  if (name == "--help" || name == "help") {
    PrintGlobalUsage(stdout);
    return 0;
  }
  for (const Command& cmd : Commands()) {
    if (name != cmd.name) continue;
    Flags flags(argc, argv, 2);
    if (flags.Has("help")) {
      std::fprintf(stdout, "%s", cmd.usage);
      return 0;
    }
    std::vector<std::string> unknown = flags.UnknownKeys(cmd.flags);
    if (!unknown.empty()) {
      for (const std::string& key : unknown) {
        std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
      }
      std::fprintf(stderr, "%s", cmd.usage);
      return 2;
    }
    if (!flags.extra().empty()) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n",
                   flags.extra().front().c_str());
      std::fprintf(stderr, "%s", cmd.usage);
      return 2;
    }
    const std::string malformed = flags.MalformedKey();
    if (!malformed.empty()) {
      std::fprintf(stderr, "error: --%s=%s is not a %s\n", malformed.c_str(),
                   flags.Get(malformed, "").c_str(),
                   Contains(kIntegerFlags, malformed) ? "whole number"
                                                      : "number");
      return 2;
    }
    for (const std::string& key : cmd.required) {
      if (!flags.Has(key)) {
        std::fprintf(stderr, "error: missing required flag --%s\n",
                     key.c_str());
        std::fprintf(stderr, "%s", cmd.usage);
        return 2;
      }
    }
    return cmd.run(flags);
  }
  std::fprintf(stderr, "unknown command: %s\n", name.c_str());
  PrintGlobalUsage(stderr);
  return 2;
}

}  // namespace
}  // namespace vup

int main(int argc, char** argv) { return vup::Main(argc, argv); }
