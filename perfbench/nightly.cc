#include "nightly.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/crc32.h"
#include "common/string_util.h"
#include "ml/metrics.h"
#include "serve/prediction_service.h"

namespace vup::bench {

namespace fs = std::filesystem;

StatusOr<FleetData> PrepareFleet(size_t fleet_size, size_t max_vehicles,
                                 size_t min_days) {
  FleetData data;
  data.fleet = std::make_unique<Fleet>(
      Fleet::Generate(FleetConfig::Small(fleet_size, kFleetSeed)));
  data.runner = std::make_unique<ExperimentRunner>(data.fleet.get());
  ExperimentOptions options;
  options.max_vehicles = max_vehicles;
  options.min_days = min_days;
  for (size_t index : data.runner->SelectVehicles(options)) {
    VUP_ASSIGN_OR_RETURN(const VehicleDataset* ds, data.runner->Dataset(index));
    data.ids.push_back(data.fleet->vehicle(index).vehicle_id);
    data.datasets.push_back(ds);
  }
  if (data.datasets.empty()) {
    return Status::FailedPrecondition("seeded fleet has no eligible vehicle");
  }
  return data;
}

BundleTimes TimeCompactBundle(const serve::ModelRegistry& registry,
                              int64_t vehicle_id) {
  const fs::path path =
      fs::path(registry.BundlePath(vehicle_id)).parent_path() /
      serve::ModelRegistry::CompactBundleFileName(vehicle_id);
  std::ifstream in(path, std::ios::binary);
  auto bytes = std::make_shared<std::string>(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  const std::span<const uint8_t> view(
      reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size());
  BundleTimes times;
  times.crc_s = TimeIt([&] { (void)Crc32(view); });
  times.decode_s = TimeIt([&] {
    times.ok = VehicleForecaster::LoadCompact(view, bytes).ok();
  });
  return times;
}

double CompactTolerance(Algorithm algorithm) {
  return algorithm == Algorithm::kLinearRegression ? 0.0 : 0.05;
}

StatusOr<std::unique_ptr<NightlyLoop>> NightlyLoop::Create(
    const FleetData& fleet, size_t max_vehicles, size_t max_nights,
    size_t skip_days, const std::string& registry_dir, ThreadPool* pool) {
  std::unique_ptr<NightlyLoop> loop(new NightlyLoop(pool, max_nights));
  const size_t w = loop->config_.windowing.lookback_w;
  for (size_t i = 0; i < std::min(max_vehicles, fleet.datasets.size()); ++i) {
    Vehicle v;
    v.id = fleet.ids[i];
    v.ds = fleet.datasets[i];
    const size_t n = v.ds->num_days();
    if (n < w + loop->train_window_ + max_nights + skip_days) {
      return Status::FailedPrecondition(StrFormat(
          "vehicle %lld has %zu days, too few for %zu nights",
          static_cast<long long>(v.id), n, max_nights + skip_days));
    }
    v.first_target = n - max_nights - skip_days;
    v.forecaster = std::make_unique<VehicleForecaster>(loop->config_);
    loop->vehicles_.push_back(std::move(v));
  }
  serve::ModelRegistry::Options writer_options(registry_dir, 0);
  VUP_ASSIGN_OR_RETURN(serve::ModelRegistry writer,
                       serve::ModelRegistry::Open(std::move(writer_options)));
  loop->writer_.emplace(std::move(writer));
  serve::ModelRegistry::Options reader_options(registry_dir,
                                               2 * loop->vehicles_.size());
  reader_options.prefer_compact = true;
  VUP_ASSIGN_OR_RETURN(serve::ModelRegistry reader,
                       serve::ModelRegistry::Open(std::move(reader_options)));
  loop->reader_.emplace(std::move(reader));
  loop->meta_.fleet_seed = fleet.fleet->config().seed;
  loop->meta_.fleet_vehicles = fleet.fleet->size();
  loop->meta_.algorithm =
      std::string(AlgorithmToString(loop->config_.algorithm));
  return loop;
}

void NightlyLoop::Night(size_t k, bool detail, RunResult* result) {
  Samples& s = samples_;
  const auto night_start = SteadyClock::now();

  // Refit: one pool task per vehicle, sliding window ending yesterday.
  const double refit = TimeIt([&] {
    for (Vehicle& v : vehicles_) {
      Status submitted = pool_->Submit([this, &v, k]() -> Status {
        const size_t t = v.first_target + k;
        const size_t begin = t - train_window_;
        v.train_s = TimeIt(
            [&] { v.status = v.forecaster->Train(*v.ds, begin, t); });
        if (!v.status.ok()) return v.status;
        StatusOr<double> p = 0.0;
        v.predict_s =
            TimeIt([&] { p = v.forecaster->PredictTarget(*v.ds, t); });
        v.status = p.status();
        if (p.ok()) v.prediction = p.value();
        return v.status;
      });
      if (!submitted.ok()) v.status = submitted;
    }
    (void)pool_->Wait();  // Per-vehicle statuses are checked below.
  });

  // Publish the night's generation with compact twins, then make the
  // reading registry serve it.
  double adds = 0.0, commit = 0.0, reload = 0.0;
  uint64_t generation = 0;
  Status published = [&]() -> Status {
    for (const Vehicle& v : vehicles_) VUP_RETURN_IF_ERROR(v.status);
    VUP_ASSIGN_OR_RETURN(serve::GenerationPublisher publisher,
                         writer_->NewGeneration());
    publisher.set_emit_compact(true);
    for (const Vehicle& v : vehicles_) {
      Status added;
      const double add =
          TimeIt([&] { added = publisher.Add(v.id, *v.forecaster); });
      VUP_RETURN_IF_ERROR(added);
      s.add.push_back(add);
      adds += add;
    }
    Status committed;
    commit = TimeIt([&] { committed = publisher.Commit(meta_); });
    VUP_RETURN_IF_ERROR(committed);
    generation = publisher.number();
    Status reloaded;
    reload = TimeIt([&] { reloaded = reader_->Reload(); });
    return reloaded;
  }();
  const double night = SecondsSince(night_start);
  ++s.nights;
  if (!published.ok()) {
    ++s.failed;
    result->Check(false, StrFormat("night %zu: %s", k,
                                   published.ToString().c_str()));
    return;
  }
  s.night.push_back(night);
  s.refit.push_back(refit);
  s.commit.push_back(commit);
  s.reload.push_back(reload);
  s.layer_sum += refit + adds + commit + reload;
  for (Vehicle& v : vehicles_) {
    s.train.push_back(v.train_s);
    s.predict.push_back(v.predict_s);
    v.predictions.push_back(v.prediction);
    v.actuals.push_back(v.ds->hours()[v.first_target + k]);
  }
  s.predictions += vehicles_.size();

  Status pruned;
  s.prune.push_back(TimeIt([&] { pruned = reader_->PruneGenerations(2); }));
  result->Check(pruned.ok(), "prune: " + pruned.ToString());
  const serve::ModelRegistryStats stats = reader_->stats();
  result->Check(stats.generation == generation,
                StrFormat("night %zu: reader serves generation %llu, "
                          "committed %llu", k,
                          static_cast<unsigned long long>(stats.generation),
                          static_cast<unsigned long long>(generation)));
  result->Check(stats.quarantines == 0,
                StrFormat("night %zu: %llu quarantines", k,
                          static_cast<unsigned long long>(stats.quarantines)));

  // Serve today's predictions from the reloaded generation: they must be
  // the ones just trained. One vehicle's Get is timed from outside, first
  // cold (the reload emptied the cache), then warm.
  Vehicle& probe = vehicles_[k % vehicles_.size()];
  s.get_miss.push_back(TimeIt([&] { (void)reader_->Get(probe.id); }));
  serve::PredictionService service(&*reader_, pool_);
  std::vector<serve::PredictionRequest> requests;
  for (const Vehicle& v : vehicles_) {
    requests.emplace_back(v.id, v.ds, v.first_target + k);
  }
  const std::vector<serve::PredictionResponse> responses =
      service.PredictBatch(requests);
  s.requests += requests.size();
  s.groups += vehicles_.size();
  reader_gets_ += vehicles_.size() + 2;  // The batch plus the two probes.
  const serve::ServingStatsSnapshot served = service.stats();
  size_t ok = 0;
  for (const serve::PredictionResponse& r : responses) ok += r.status.ok();
  result->Check(served.requests == requests.size() &&
                    served.requests == ok + served.failures + served.shed +
                                           served.deadline_exceeded,
                "serving stats: requests != ok + failed + shed + deadline");
  for (size_t i = 0; i < responses.size(); ++i) {
    const Vehicle& v = vehicles_[i];
    const serve::PredictionResponse& r = responses[i];
    const bool same =
        r.status.ok() && r.level == serve::ServedLevel::kVehicle &&
        std::fabs(r.prediction - v.prediction) <=
            CompactTolerance(config_.algorithm);
    result->Check(same, StrFormat("night %zu vehicle %lld: served %.17g, "
                                  "trained %.17g (%s)", k,
                                  static_cast<long long>(v.id), r.prediction,
                                  v.prediction, r.status.ToString().c_str()));
  }
  const uint64_t hits = reader_->stats().hits;
  s.get_hit.push_back(TimeIt([&] { (void)reader_->Get(probe.id); }));
  result->Check(reader_->stats().hits == hits + 1,
                "a vehicle served this night was not resident");

  if (!detail) return;
  std::ostringstream text;
  Status saved;
  s.save_text.push_back(TimeIt([&] { saved = probe.forecaster->Save(text); }));
  StatusOr<std::string> compact = std::string();
  s.save_compact.push_back(
      TimeIt([&] { compact = probe.forecaster->SaveCompact(); }));
  result->Check(saved.ok() && compact.ok(), "save of a trained forecaster");
  if (compact.ok()) {
    s.bundle_bytes.push_back(
        static_cast<double>(text.str().size() + compact.value().size()));
  }
  const BundleTimes bundle = TimeCompactBundle(*reader_, probe.id);
  s.crc.push_back(bundle.crc_s);
  s.decode.push_back(bundle.decode_s);
  result->Check(bundle.ok, "decode of the published bundle");
}

double NightlyLoop::FleetPe(size_t nights) const {
  std::vector<double> pes;
  for (const Vehicle& v : vehicles_) {
    const size_t n = std::min(nights, v.predictions.size());
    const double pe = PercentageError(
        std::span<const double>(v.predictions.data(), n),
        std::span<const double>(v.actuals.data(), n));
    if (std::isfinite(pe)) pes.push_back(pe);
  }
  return Mean(pes);
}

void NightlyLoop::CheckCounters(RunResult* result) const {
  const serve::ModelRegistryStats stats = reader_->stats();
  result->Check(stats.hits + stats.misses == reader_gets_,
                StrFormat("reader hits %llu + misses %llu != %llu Gets",
                          static_cast<unsigned long long>(stats.hits),
                          static_cast<unsigned long long>(stats.misses),
                          static_cast<unsigned long long>(reader_gets_)));
  CheckShardSums(stats, result);
}

void NightlyLoop::SetLayerMetrics(const std::string& source,
                                  RunResult* result) const {
  const Samples& s = samples_;
  const double miss = Mean(s.get_miss) * 1e6;
  const double crc = Mean(s.crc) * 1e6;
  const double decode = Mean(s.decode) * 1e6;
  result->Set("forecaster.train_ms", Mean(s.train) * 1e3, "ms", source);
  result->Set("forecaster.predict_us", Mean(s.predict) * 1e6, "us", source);
  result->Set("publish.add_ms", Mean(s.add) * 1e3, "ms", source);
  result->Set("publish.commit_ms", Mean(s.commit) * 1e3, "ms", source);
  result->Set("registry.reload_ms", Mean(s.reload) * 1e3, "ms", source);
  result->Set("registry.prune_ms", Mean(s.prune) * 1e3, "ms", source);
  result->Set("ml.save_text_ms", Mean(s.save_text) * 1e3, "ms", source);
  result->Set("ml.save_compact_ms", Mean(s.save_compact) * 1e3, "ms", source);
  result->Set("publish.bundle_kb", Mean(s.bundle_bytes) / 1024.0, "KiB",
              source);
  result->Set("registry.get_miss_us", miss, "us", source);
  result->Set("registry.get_hit_us", Mean(s.get_hit) * 1e6, "us", source);
  result->Set("crc32.us_per_bundle", crc, "us", source);
  result->Set("compact.decode_us", decode, "us", source);
  result->Set("registry.miss_other_us", miss - crc - decode, "us", source);
  result->Set("service.group_ratio",
              s.requests > 0 ? static_cast<double>(s.groups) /
                                   static_cast<double>(s.requests)
                             : 0.0,
              "ratio", source);
  {
    const serve::ModelRegistryStats stats = reader_->stats();
    const double gets = static_cast<double>(stats.hits + stats.misses);
    result->Set("registry.hit_ratio",
                gets > 0 ? static_cast<double>(stats.hits) / gets : 0.0,
                "ratio", source);
    result->Set("registry.evictions_per_get",
                gets > 0 ? static_cast<double>(stats.evictions) / gets : 0.0,
                "ratio", source);
    result->Set("registry.resident_models",
                static_cast<double>(stats.resident_models), "count", source);
    result->Set("registry.cache_mb",
                static_cast<double>(stats.cache_bytes) / (1 << 20), "MiB",
                source);
    result->Set("registry.quarantines", static_cast<double>(stats.quarantines),
                "count", source);
  }
}

}  // namespace vup::bench
