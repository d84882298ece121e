// serve_hot / serve_cold: one closed-loop client sending PredictBatch
// batches of 64 requests over 4 000 published vehicles, scored on a
// 3-worker pool from a sharded, byte-budgeted, prefer_compact registry.
//
// serve_hot draws vehicles from Zipf(1.0) with the whole fleet resident;
// serve_cold draws them uniformly with a budget that keeps ~1 in 10.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>

#include "common/string_util.h"
#include "ml/metrics.h"
#include "serve/prediction_service.h"
#include "workloads.h"

namespace vup::bench {

namespace {

namespace fs = std::filesystem;

constexpr size_t kVehicles = 4000;
constexpr size_t kBatch = 64;
constexpr size_t kShards = 8;
constexpr size_t kTemplateFleet = 32;
constexpr size_t kTemplates = 16;  // Four per algorithm, one per vehicle.
constexpr size_t kTrainTargets = 140;
constexpr size_t kServedDays = 100;  // Requests target the last 100 days.
constexpr size_t kSampleEvery = 16;  // Every 16th batch is verified.
constexpr size_t kPeBatches = 64;    // PE over the first 64 verified ones.
constexpr size_t kMinBatches = 2000;  // p99 keeps 20 batches beyond it.
constexpr double kSettleSeconds = 1.0;  // Untimed traffic before measuring.
constexpr char kPool[] = "serve";

const Algorithm kAlgorithms[] = {Algorithm::kLinearRegression,
                                 Algorithm::kLasso, Algorithm::kSvr,
                                 Algorithm::kGradientBoosting};

/// One trained model whose bundles are stamped over a sixteenth of the
/// fleet: vehicle id v serves template (v - 1) % 16.
struct Template {
  Algorithm algorithm = Algorithm::kSvr;
  const VehicleDataset* ds = nullptr;
  std::string text, compact;
  std::unique_ptr<VehicleForecaster> offline;  // Loaded from `text`.
  size_t resident_bytes = 0;                   // Of the compact-loaded model.
};

struct Setup {
  FleetData fleet;
  std::vector<Template> templates;
  std::string dir;
  size_t budget_bytes = 0;
  std::optional<serve::ModelRegistry> registry;
  std::optional<ThreadPool> pool;
  std::optional<serve::PredictionService> service;
  uint64_t gets = 0;      // Gets the service issued (one per group).
  uint64_t requests = 0;  // Requests sent to the service.
  uint64_t ok = 0;        // Responses with an OK status.
};

const Template& TemplateOf(const std::vector<Template>& templates,
                           int64_t id) {
  return templates[static_cast<size_t>(id - 1) % templates.size()];
}

Status TrainTemplates(Setup* s) {
  for (size_t i = 0; i < kTemplates; ++i) {
    Template t;
    t.algorithm = kAlgorithms[i % std::size(kAlgorithms)];
    t.ds = s->fleet.datasets[i % s->fleet.datasets.size()];
    ForecasterConfig config;
    config.algorithm = t.algorithm;
    VehicleForecaster forecaster(config);
    const size_t end = t.ds->num_days() - kServedDays;
    VUP_RETURN_IF_ERROR(forecaster.Train(*t.ds, end - kTrainTargets, end));
    std::ostringstream text;
    VUP_RETURN_IF_ERROR(forecaster.Save(text));
    t.text = text.str();
    VUP_ASSIGN_OR_RETURN(t.compact, forecaster.SaveCompact());
    std::istringstream in(t.text);
    VUP_ASSIGN_OR_RETURN(VehicleForecaster offline,
                         VehicleForecaster::Load(in));
    t.offline = std::make_unique<VehicleForecaster>(std::move(offline));
    auto bytes = std::make_shared<std::string>(t.compact);
    VUP_ASSIGN_OR_RETURN(
        VehicleForecaster mapped,
        VehicleForecaster::LoadCompact(
            std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size()),
            bytes));
    t.resident_bytes = mapped.ResidentBytes();
    s->templates.push_back(std::move(t));
  }
  return Status::OK();
}

Status Publish(Setup* s) {
  serve::ModelRegistry::Options options(s->dir, 0);
  VUP_ASSIGN_OR_RETURN(serve::ModelRegistry writer,
                       serve::ModelRegistry::Open(std::move(options)));
  VUP_ASSIGN_OR_RETURN(serve::GenerationPublisher publisher,
                       writer.NewGeneration());
  for (size_t v = 1; v <= kVehicles; ++v) {
    const Template& t = TemplateOf(s->templates, static_cast<int64_t>(v));
    VUP_RETURN_IF_ERROR(
        publisher.AddPrebuilt(static_cast<int64_t>(v), t.text, t.compact));
  }
  serve::RegistryMeta meta;
  meta.fleet_seed = s->fleet.fleet->config().seed;
  meta.fleet_vehicles = kVehicles;
  meta.algorithm = "mixed";
  return publisher.Commit(meta);
}

/// The serving registry options: the byte budget holds the whole fleet
/// (hot) or about a tenth of it (cold), derived from the templates'
/// compact-loaded ResidentBytes().
serve::ModelRegistry::Options RegistryOptions(const Setup& s) {
  serve::ModelRegistry::Options options(s.dir, 2 * kVehicles);
  options.shards = kShards;
  options.prefer_compact = true;
  options.cache_max_bytes = s.budget_bytes;
  return options;
}

/// A batch of requests drawn from `ids`, targets uniform over the last
/// kServedDays days of the vehicle's template dataset.
std::vector<serve::PredictionRequest> MakeBatch(
    const std::vector<Template>& templates, IdStream* ids, Rng* targets) {
  std::vector<serve::PredictionRequest> batch;
  batch.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    const int64_t id = ids->Next();
    const VehicleDataset* ds = TemplateOf(templates, id).ds;
    const size_t n = ds->num_days();
    const size_t t = static_cast<size_t>(targets->UniformInt(
        static_cast<int64_t>(n - kServedDays), static_cast<int64_t>(n) - 1));
    batch.emplace_back(id, ds, t);
  }
  return batch;
}

size_t DistinctVehicles(const std::vector<serve::PredictionRequest>& batch) {
  std::vector<int64_t> ids;
  for (const serve::PredictionRequest& r : batch) ids.push_back(r.vehicle_id);
  std::sort(ids.begin(), ids.end());
  return static_cast<size_t>(std::unique(ids.begin(), ids.end()) - ids.begin());
}

/// Sends one batch through the service and counts it; returns the call
/// time in seconds.
double SendBatch(Setup* s, const std::vector<serve::PredictionRequest>& batch,
                 std::vector<serve::PredictionResponse>* responses) {
  const double seconds =
      TimeIt([&] { *responses = s->service->PredictBatch(batch); });
  s->gets += DistinctVehicles(batch);
  s->requests += batch.size();
  for (const serve::PredictionResponse& r : *responses) s->ok += r.status.ok();
  return seconds;
}

struct Verified {
  std::vector<serve::PredictionRequest> requests;
  std::vector<serve::PredictionResponse> responses;
};

/// Served predictions must equal the offline forecaster loaded from the
/// same text bundle: LR bitwise, f32 compact payloads within 0.05 h.
void VerifyResponses(const std::vector<Template>& templates,
                     const std::vector<Verified>& verified,
                     RunResult* result) {
  size_t checked = 0, wrong = 0;
  std::string first_error;
  for (const Verified& v : verified) {
    for (size_t i = 0; i < v.requests.size(); ++i) {
      const serve::PredictionRequest& q = v.requests[i];
      const serve::PredictionResponse& r = v.responses[i];
      const Template& t = TemplateOf(templates, q.vehicle_id);
      StatusOr<double> expected = t.offline->PredictTarget(*q.dataset,
                                                           q.target_index);
      ++checked;
      const bool ok = r.status.ok() && expected.ok() &&
                      r.level == serve::ServedLevel::kVehicle &&
                      std::fabs(r.prediction - expected.value()) <=
                          CompactTolerance(t.algorithm);
      if (!ok && wrong++ == 0) {
        first_error = StrFormat(
            "vehicle %lld (%s) served %.17g (%s), offline %.17g",
            static_cast<long long>(q.vehicle_id),
            std::string(AlgorithmToString(t.algorithm)).c_str(), r.prediction,
            r.status.ToString().c_str(),
            expected.ok() ? expected.value() : NAN);
      }
    }
  }
  std::printf("verified %zu sampled responses against offline text bundles "
              "(LR bitwise, others within 0.05 h)\n", checked);
  result->Check(checked > 0 && wrong == 0,
                StrFormat("%zu of %zu sampled responses wrong; first: %s",
                          wrong, checked, first_error.c_str()));
}

double ServedPe(const std::vector<Verified>& verified) {
  std::vector<double> predicted, actual;
  for (size_t b = 0; b < std::min(kPeBatches, verified.size()); ++b) {
    for (size_t i = 0; i < verified[b].requests.size(); ++i) {
      const serve::PredictionRequest& q = verified[b].requests[i];
      predicted.push_back(verified[b].responses[i].prediction);
      actual.push_back(q.dataset->hours()[q.target_index]);
    }
  }
  return PercentageError(predicted, actual);
}

/// Outside-timed decomposition of PredictBatch (traced run). Two fresh
/// registries get the identical Get sequence, so their caches stay in
/// lockstep: registry `a` serves each batch through an inline service
/// (timed as a whole), registry `b` replays it call by call -- grouping,
/// one Get per vehicle, one PredictTarget per request -- plus, on every
/// miss, Crc32 and LoadCompact of the vehicle's compact bundle.
void DecomposeBatches(Setup* s, const IdStream& shape, double seconds,
                      uint64_t seed, RunResult* result) {
  StatusOr<serve::ModelRegistry> a =
      serve::ModelRegistry::Open(RegistryOptions(*s));
  StatusOr<serve::ModelRegistry> b =
      serve::ModelRegistry::Open(RegistryOptions(*s));
  if (!a.ok() || !b.ok()) {
    result->Check(false, "decomposition registries failed to open");
    return;
  }
  serve::PredictionService inline_service(&a.value(), nullptr);
  std::vector<double> get_hit, get_miss, crc, decode, predict;
  uint64_t misses_seen = b.value().stats().misses;

  auto timed_get = [&](int64_t id) {
    (void)a.value().Get(id);
    StatusOr<std::shared_ptr<const VehicleForecaster>> model =
        Status::Internal("not fetched");
    const double seconds = TimeIt([&] { model = b.value().Get(id); });
    const uint64_t misses = b.value().stats().misses;
    const bool miss = misses != misses_seen;
    misses_seen = misses;
    (miss ? get_miss : get_hit).push_back(seconds);
    if (miss && crc.size() < 4000) {
      const BundleTimes bundle = TimeCompactBundle(b.value(), id);
      crc.push_back(bundle.crc_s);
      decode.push_back(bundle.decode_s);
      result->Check(bundle.ok, "decode of a published bundle");
    }
    return model;
  };

  // Warm both caches identically: every vehicle once (hot), or a
  // uniform stream twice the fleet long (cold).
  IdStream warm(kVehicles, 0.0, seed ^ 0x77);
  const size_t warm_gets = s->budget_bytes == 0 ? kVehicles : 2 * kVehicles;
  for (size_t i = 0; i < warm_gets; ++i) {
    (void)timed_get(s->budget_bytes == 0 ? static_cast<int64_t>(i + 1)
                                         : warm.Next());
  }

  IdStream ids = shape;
  Rng targets(SplitMix64(seed ^ 0xdec));
  double batch_total = 0.0, layer_total = 0.0;
  size_t batches = 0;
  const auto start = SteadyClock::now();
  while (batches < 100 || SecondsSince(start) < seconds) {
    const std::vector<serve::PredictionRequest> batch =
        MakeBatch(s->templates, &ids, &targets);
    // The inline service fetches one model per vehicle from `a` in
    // ascending id order; `b` replays exactly that order.
    batch_total += TimeIt([&] { (void)inline_service.PredictBatch(batch); });
    std::map<int64_t, std::vector<size_t>> groups;
    layer_total += TimeIt([&] {
      for (size_t i = 0; i < batch.size(); ++i) {
        groups[batch[i].vehicle_id].push_back(i);
      }
    });
    for (const auto& [id, positions] : groups) {
      StatusOr<std::shared_ptr<const VehicleForecaster>> model =
          Status::Internal("not fetched");
      const double get_s = TimeIt([&] { model = b.value().Get(id); });
      const uint64_t misses = b.value().stats().misses;
      (misses != misses_seen ? get_miss : get_hit).push_back(get_s);
      misses_seen = misses;
      layer_total += get_s;
      if (!model.ok()) continue;
      for (size_t i : positions) {
        const double p = TimeIt([&] {
          (void)model.value()->PredictTarget(*batch[i].dataset,
                                             batch[i].target_index);
        });
        predict.push_back(p);
        layer_total += p;
      }
    }
    ++batches;
  }
  const double gap = std::fabs(batch_total - layer_total) / batch_total;
  std::printf("decomposition: %zu inline batches %.3fs, layer sum %.3fs "
              "(gap %.1f%%, slack %.0f%%); gets hit=%zu miss=%zu\n",
              batches, batch_total, layer_total, 100.0 * gap,
              100.0 * kLayerSumSlack, get_hit.size(), get_miss.size());
  result->Check(gap <= kLayerSumSlack,
                StrFormat("layer times cover %.1f%% of the inline batch time",
                          100.0 * layer_total / batch_total));
  const double miss_us = Mean(get_miss) * 1e6;
  const double crc_us = Mean(crc) * 1e6;
  const double decode_us = Mean(decode) * 1e6;
  result->Set("registry.get_hit_us", Mean(get_hit) * 1e6, "us");
  result->Set("registry.get_miss_us", miss_us, "us");
  result->Set("crc32.us_per_bundle", crc_us, "us");
  result->Set("compact.decode_us", decode_us, "us");
  result->Set("registry.miss_other_us", miss_us - crc_us - decode_us, "us");
  result->Set("forecaster.predict_us", Mean(predict) * 1e6, "us");
  result->Set("trace.layer_gap_pct", 100.0 * gap, "%");
}

}  // namespace

void RunServe(const RunOptions& options, RunResult* result) {
  const bool hot = options.workload == "serve_hot";
  const double zipf_s = hot ? 1.0 : 0.0;
  Setup s;
  Status setup_status;
  int setups = 0;
  auto setup = [&]() -> Status {
    s.service.reset();
    s.pool.reset();
    s.registry.reset();
    s.templates.clear();
    s.fleet = FleetData();
    s.gets = s.requests = s.ok = 0;
    std::error_code ec;
    if (!s.dir.empty()) fs::remove_all(s.dir, ec);
    s.dir = options.workdir + "/serve_" + std::to_string(setups++);
    VUP_ASSIGN_OR_RETURN(
        s.fleet, PrepareFleet(kTemplateFleet, kTemplates));
    VUP_RETURN_IF_ERROR(TrainTemplates(&s));
    VUP_RETURN_IF_ERROR(Publish(&s));
    size_t fleet_bytes = 0;
    for (size_t v = 1; v <= kVehicles; ++v) {
      fleet_bytes +=
          TemplateOf(s.templates, static_cast<int64_t>(v)).resident_bytes;
    }
    s.budget_bytes = hot ? 0 : fleet_bytes / 10;
    VUP_ASSIGN_OR_RETURN(serve::ModelRegistry registry,
                         serve::ModelRegistry::Open(RegistryOptions(s)));
    s.registry.emplace(std::move(registry));
    s.pool.emplace(ThreadPool::Options(kWorkers, 1024, kPool));
    s.service.emplace(&*s.registry, &*s.pool);
    // Warm-up: every vehicle once (hot), or a uniform stream twice the
    // fleet long, which fills the cold budget and starts evicting.
    IdStream warm(kVehicles, 0.0, options.seed ^ 0x77);
    Rng targets(SplitMix64(options.seed ^ 0x3));
    std::vector<serve::PredictionResponse> responses;
    for (size_t i = 0; i < 2 * kVehicles / kBatch; ++i) {
      std::vector<serve::PredictionRequest> batch =
          MakeBatch(s.templates, &warm, &targets);
      if (hot) {
        for (size_t j = 0; j < kBatch; ++j) {
          batch[j].vehicle_id =
              static_cast<int64_t>((i * kBatch + j) % kVehicles + 1);
          batch[j].dataset = TemplateOf(s.templates, batch[j].vehicle_id).ds;
          batch[j].target_index = batch[j].dataset->num_days() - 1;
        }
      }
      SendBatch(&s, batch, &responses);
    }
    return Status::OK();
  };
  const double setup_s = MedianSetupSeconds(options.trace ? 1 : kSetups, [&] {
    setup_status = setup();
  });
  if (!setup_status.ok()) {
    result->Check(false, "setup: " + setup_status.ToString());
    return;
  }
  const std::string budget_text =
      hot ? "unbounded" : StrFormat("%zu bytes", s.budget_bytes);
  std::printf("%s: %zu vehicles (%zu templates: LR/Lasso/SVR/GB over as many "
              "vehicles, default config), %zu shards, budget %s, batch %zu, "
              "%zu workers\n",
              options.workload.c_str(), kVehicles, s.templates.size(), kShards,
              budget_text.c_str(), kBatch, kWorkers);

  IdStream ids(kVehicles, zipf_s, options.seed);
  Rng targets(SplitMix64(options.seed ^ 0x7a));
  std::vector<serve::PredictionResponse> responses;
  // Settle: the measured stream runs untimed first, so the cache holds
  // its steady-state working set when timing starts.
  {
    IdStream settle_ids(kVehicles, zipf_s, options.seed ^ 0x5e771e);
    Rng settle_targets(SplitMix64(options.seed ^ 0x5e7));
    for (const auto settle = SteadyClock::now();
         SecondsSince(settle) < kSettleSeconds;) {
      SendBatch(&s, MakeBatch(s.templates, &settle_ids, &settle_targets),
                &responses);
    }
  }
  const serve::ModelRegistryStats reg_before = s.registry->stats();
  const CounterSample before = CounterSample::Take(kPool);
  std::vector<double> batch_s;
  std::vector<Verified> verified;
  const uint64_t ok_before = s.ok;
  uint64_t distinct = 0, requests = 0;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const auto start = SteadyClock::now();
  while (batch_s.size() < kMinBatches ||
         SecondsSince(start) < budget) {
    std::vector<serve::PredictionRequest> batch =
        MakeBatch(s.templates, &ids, &targets);
    batch_s.push_back(SendBatch(&s, batch, &responses));
    distinct += DistinctVehicles(batch);
    requests += batch.size();
    if (batch_s.size() % kSampleEvery == 1 && verified.size() < 256) {
      verified.push_back(Verified{std::move(batch), std::move(responses)});
    }
  }
  const double wall = SecondsSince(start);
  const CounterSample after = CounterSample::Take(kPool);
  const serve::ModelRegistryStats reg = s.registry->stats();
  result->attempted = requests;
  result->failed = requests - (s.ok - ok_before);

  // Correctness and counter identities.
  VerifyResponses(s.templates, verified, result);
  result->Check(reg.hits + reg.misses == s.gets,
                StrFormat("registry hits %llu + misses %llu != %llu Gets",
                          static_cast<unsigned long long>(reg.hits),
                          static_cast<unsigned long long>(reg.misses),
                          static_cast<unsigned long long>(s.gets)));
  CheckShardSums(reg, result);
  const serve::ServingStatsSnapshot served = s.service->stats();
  result->Check(served.requests == s.requests &&
                    served.requests == s.ok + served.failures + served.shed +
                                           served.deadline_exceeded,
                "requests != ok + failed + shed + deadline-exceeded");
  result->Check(served.failures + served.shed + served.deadline_exceeded == 0,
                "serving failed, shed or expired requests");
  result->Check(reg.quarantines == 0, "registry quarantined a model");
  result->Check(std::fabs(ids.MeasuredTopShare() - ids.AnalyticTopShare()) <=
                    ids.TopShareTolerance(),
                StrFormat("top-1%% share %.5f, analytic %.5f",
                          ids.MeasuredTopShare(), ids.AnalyticTopShare()));
  std::printf("ids: %s top-1%% share measured %.5f analytic %.5f over %llu "
              "draws\n",
              hot ? "zipf(1.0)" : "uniform", ids.MeasuredTopShare(),
              ids.AnalyticTopShare(),
              static_cast<unsigned long long>(ids.draws()));

  const double gets = static_cast<double>((reg.hits - reg_before.hits) +
                                          (reg.misses - reg_before.misses));
  const double hit_ratio =
      static_cast<double>(reg.hits - reg_before.hits) / gets;
  std::vector<double> sorted = batch_s;
  const Percentiles p = ComputePercentiles(&sorted);
  std::printf("batches: n=%zu p50=%.1fus p%.0f=%.1fus (%zu beyond) "
              "wall=%.2fs hit_ratio=%.4f resident=%llu\n",
              p.count, p.p50 * 1e6, p.tail_pct, p.tail * 1e6, p.beyond_tail,
              wall, hit_ratio,
              static_cast<unsigned long long>(reg.resident_models));

  if (!options.trace) {
    result->Set("setup_s", setup_s, "s");
    result->Set("peak_rss_mb", PeakRssMb(), "MiB");
    result->Set("predict_rps", static_cast<double>(requests) / wall,
                "predictions/s");
    result->Set("op_p50_ms", p.p50 * 1e3, "ms");
    result->Set("op_tail_ms", p.tail * 1e3, "ms");
    result->Set("pe_pct", ServedPe(verified), "%");
    return;
  }

  // Traced run: probe cycle first (layers serving does not touch), then
  // this workload's own numbers on top.
  RunLayerProbe(s.fleet, options.workdir + "/probe", &*s.pool, result);
  SetPoolMetrics(before, after, wall, "workload", result);
  result->Set("registry.hit_ratio", hit_ratio, "ratio");
  result->Set("registry.evictions_per_get",
              static_cast<double>(reg.evictions - reg_before.evictions) / gets,
              "ratio");
  result->Set("registry.resident_models",
              static_cast<double>(reg.resident_models), "count");
  result->Set("registry.cache_mb",
              static_cast<double>(reg.cache_bytes) / (1 << 20), "MiB");
  result->Set("registry.quarantines", static_cast<double>(reg.quarantines),
              "count");
  result->Set("service.group_ratio",
              static_cast<double>(distinct) / static_cast<double>(requests),
              "ratio");

  // Same number of batches again with the tracer on.
  obs::Tracer tracer;
  obs::Tracer::SetActive(&tracer);
  const double traced_wall = TimeIt([&] {
    for (size_t i = 0; i < batch_s.size(); ++i) {
      SendBatch(&s, MakeBatch(s.templates, &ids, &targets), &responses);
    }
  });
  obs::Tracer::SetActive(nullptr);
  result->Set("trace.overhead_pct", 100.0 * (traced_wall - wall) / wall, "%");
  std::printf("tracing overhead: traced %.3fs - untraced %.3fs = %.3fs for "
              "%zu batches\n",
              traced_wall, wall, traced_wall - wall, batch_s.size());
  s.service.reset();
  s.registry.reset();
  DecomposeBatches(&s, IdStream(kVehicles, zipf_s, options.seed ^ 0xd),
                   std::min(2.0, options.seconds / 4), options.seed, result);
}

}  // namespace vup::bench
