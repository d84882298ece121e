#include "serve/prediction_service.h"

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/forecaster.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "testing/registry.h"

namespace vup::serve {
namespace {

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

VehicleDataset MakeDataset(int64_t vehicle_id, int n = 220) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    double level = 2.0 + static_cast<double>(vehicle_id % 7);
    r.hours = wd < 5 ? level + wd + 0.05 * (i % 3) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = vehicle_id;
  return VehicleDataset::Build(info, recs, Italy()).value();
}

VehicleForecaster TrainForecaster(const VehicleDataset& ds) {
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLasso;
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  VehicleForecaster forecaster(cfg);
  EXPECT_TRUE(forecaster.Train(ds, 20, 200).ok());
  return forecaster;
}

class PredictionServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_service_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    StatusOr<ModelRegistry> registry = ModelRegistry::Open({dir_, 8});
    ASSERT_TRUE(registry.ok()) << registry.status().ToString();
    registry_ = std::make_unique<ModelRegistry>(std::move(registry.value()));
    std::map<int64_t, const VehicleForecaster*> fleet;
    for (int64_t id : {1, 2, 3}) {
      datasets_.emplace(id, MakeDataset(id));
      originals_.emplace(id, TrainForecaster(datasets_.at(id)));
      fleet[id] = &originals_.at(id);
    }
    ASSERT_TRUE(PublishFleet(*registry_, fleet).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::unique_ptr<ModelRegistry> registry_;
  std::map<int64_t, VehicleDataset> datasets_;
  std::map<int64_t, VehicleForecaster> originals_;
};

TEST_F(PredictionServiceTest, SingleRequestMatchesOfflineForecaster) {
  PredictionService service(registry_.get(), /*pool=*/nullptr);
  const VehicleDataset& ds = datasets_.at(1);
  PredictionResponse resp =
      service.Predict({1, &ds, ds.num_days()});
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.prediction,
            originals_.at(1).PredictTarget(ds, ds.num_days()).value());
  EXPECT_FALSE(resp.degraded);
  EXPECT_GE(resp.latency_seconds, 0.0);
}

TEST_F(PredictionServiceTest, BatchOnPoolMatchesOffline) {
  ThreadPool pool({4, 64});
  PredictionService service(registry_.get(), &pool);

  std::vector<PredictionRequest> requests;
  for (size_t t = 200; t <= datasets_.at(1).num_days(); ++t) {
    for (int64_t id : {3, 1, 2, 1}) {  // Interleaved vehicle order.
      requests.push_back({id, &datasets_.at(id), t});
    }
  }
  std::vector<PredictionResponse> responses =
      service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << i << ": " << responses[i].status.ToString();
    EXPECT_EQ(responses[i].vehicle_id, requests[i].vehicle_id);
    EXPECT_EQ(responses[i].prediction,
              originals_.at(requests[i].vehicle_id)
                  .PredictTarget(*requests[i].dataset,
                                 requests[i].target_index)
                  .value())
        << "request " << i;
    EXPECT_FALSE(responses[i].degraded);
  }
  EXPECT_TRUE(pool.Shutdown().ok());
}

TEST_F(PredictionServiceTest, BatchIsDeterministicAcrossRuns) {
  ThreadPool pool({4, 64});
  PredictionService service(registry_.get(), &pool);
  std::vector<PredictionRequest> requests;
  for (int64_t id : {2, 3, 1, 2, 3, 1, 1, 2}) {
    const VehicleDataset& ds = datasets_.at(id);
    requests.push_back({id, &ds, ds.num_days()});
  }
  std::vector<PredictionResponse> first = service.PredictBatch(requests);
  std::vector<PredictionResponse> second = service.PredictBatch(requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].prediction, second[i].prediction) << i;
  }
}

TEST_F(PredictionServiceTest, UnknownVehicleDegradesToLastValue) {
  PredictionService service(registry_.get(), nullptr);
  const VehicleDataset& ds = datasets_.at(1);
  PredictionResponse resp = service.Predict({999, &ds, ds.num_days()});
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.degraded);
  // Last-Value baseline over the history before the target.
  EXPECT_EQ(resp.prediction, ds.hours().back());
  EXPECT_EQ(service.stats().degraded, 1u);
}

TEST_F(PredictionServiceTest, DegradationCanBeDisabled) {
  PredictionService::Options options;
  options.degrade_to_baseline = false;
  PredictionService service(registry_.get(), nullptr, options);
  const VehicleDataset& ds = datasets_.at(1);
  PredictionResponse resp = service.Predict({999, &ds, ds.num_days()});
  EXPECT_TRUE(resp.status.IsNotFound()) << resp.status.ToString();
}

TEST_F(PredictionServiceTest, MissingDatasetIsInvalidArgument) {
  PredictionService service(registry_.get(), nullptr);
  PredictionResponse resp = service.Predict({1, nullptr, 10});
  EXPECT_TRUE(resp.status.IsInvalidArgument());
  EXPECT_EQ(service.stats().failures, 1u);
}

TEST_F(PredictionServiceTest, StatsCountRequestsAndSettle) {
  ThreadPool pool({2, 32});
  PredictionService service(registry_.get(), &pool);
  std::vector<PredictionRequest> requests;
  for (int i = 0; i < 10; ++i) {
    const VehicleDataset& ds = datasets_.at(1);
    requests.push_back({1, &ds, ds.num_days()});
  }
  service.PredictBatch(requests);
  ServingStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.in_flight, 0u);  // Batch returned: nothing in flight.
  EXPECT_GE(stats.p95_seconds, stats.p50_seconds);
  EXPECT_GE(stats.p99_seconds, stats.p95_seconds);
  EXPECT_TRUE(pool.Shutdown().ok());
  EXPECT_FALSE(service.LatencyHistogramToString().empty());
}

TEST_F(PredictionServiceTest, PredictionsClampedToPhysicalRange) {
  PredictionService service(registry_.get(), nullptr);
  for (int64_t id : {1, 2, 3}) {
    const VehicleDataset& ds = datasets_.at(id);
    for (size_t t = 201; t <= ds.num_days(); ++t) {
      PredictionResponse resp = service.Predict({id, &ds, t});
      ASSERT_TRUE(resp.status.ok());
      EXPECT_GE(resp.prediction, 0.0);
      EXPECT_LE(resp.prediction, 24.0);
    }
  }
}

TEST_F(PredictionServiceTest, ShutDownPoolFallsBackToInlineScoring) {
  ThreadPool pool({2, 8});
  ASSERT_TRUE(pool.Shutdown().ok());
  PredictionService service(registry_.get(), &pool);
  const VehicleDataset& ds = datasets_.at(2);
  std::vector<PredictionRequest> requests{{2, &ds, ds.num_days()}};
  std::vector<PredictionResponse> responses =
      service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_EQ(responses[0].prediction,
            originals_.at(2).PredictTarget(ds, ds.num_days()).value());
}

TEST_F(PredictionServiceTest,
       ShutDownPoolScoresWholeMultiVehicleBatchInline) {
  // Even with admission control configured tighter than the batch, a
  // service over a dead pool must score everything inline: inline callers
  // provide their own back-pressure, nothing may be shed or dropped.
  ThreadPool pool({2, 8});
  ASSERT_TRUE(pool.Shutdown().ok());
  PredictionService::Options options;
  options.admission_capacity = 2;
  options.overload_policy = OverloadPolicy::kShedNewest;
  PredictionService service(registry_.get(), &pool, options);

  std::vector<PredictionRequest> requests;
  for (int round = 0; round < 4; ++round) {
    for (int64_t id : {1, 2, 3}) {
      const VehicleDataset& ds = datasets_.at(id);
      requests.push_back({id, &ds, ds.num_days()});
    }
  }
  std::vector<PredictionResponse> responses =
      service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << i << ": " << responses[i].status.ToString();
    EXPECT_EQ(responses[i].prediction,
              originals_.at(requests[i].vehicle_id)
                  .PredictTarget(*requests[i].dataset,
                                 requests[i].target_index)
                  .value());
  }
  ServingStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.requests, requests.size());
}

TEST_F(PredictionServiceTest, ExpiredDeadlineFailsFastWithoutScoring) {
  FakeClock clock(1'000'000);
  PredictionService::Options options;
  options.clock = &clock;
  PredictionService service(registry_.get(), nullptr, options);
  const VehicleDataset& ds = datasets_.at(1);

  PredictionRequest live{1, &ds, ds.num_days()};
  live.deadline = Deadline::AfterMs(clock, 50);
  PredictionResponse resp = service.Predict(live);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();

  clock.AdvanceMs(50);  // The same deadline is now expired.
  resp = service.Predict(live);
  EXPECT_TRUE(resp.status.IsDeadlineExceeded()) << resp.status.ToString();
  ServingStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST_F(PredictionServiceTest, ExpiredRequestsSkipModelFetchInBatch) {
  FakeClock clock(1'000'000);
  ThreadPool pool({2, 32});
  PredictionService::Options options;
  options.clock = &clock;
  PredictionService service(registry_.get(), &pool, options);

  const VehicleDataset& ds = datasets_.at(1);
  std::vector<PredictionRequest> requests;
  for (int i = 0; i < 6; ++i) {
    PredictionRequest req{1, &ds, ds.num_days()};
    if (i % 2 == 0) req.deadline = Deadline::At(Clock::TimePoint{});
    requests.push_back(req);
  }
  std::vector<PredictionResponse> responses =
      service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), 6u);
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(responses[i].status.IsDeadlineExceeded()) << i;
    } else {
      EXPECT_TRUE(responses[i].status.ok())
          << i << ": " << responses[i].status.ToString();
    }
    EXPECT_EQ(responses[i].vehicle_id, 1);
  }
  EXPECT_EQ(service.stats().deadline_exceeded, 3u);
  EXPECT_TRUE(pool.Shutdown().ok());
}

TEST_F(PredictionServiceTest, ShedNewestDropsTheTailDeterministically) {
  ThreadPool pool({2, 32});
  PredictionService::Options options;
  options.admission_capacity = 4;
  options.overload_policy = OverloadPolicy::kShedNewest;
  PredictionService service(registry_.get(), &pool, options);

  std::vector<PredictionRequest> requests;
  for (int64_t id : {1, 2, 3, 1, 2, 3, 1}) {  // 7 requests, capacity 4.
    const VehicleDataset& ds = datasets_.at(id);
    requests.push_back({id, &ds, ds.num_days()});
  }
  for (int run = 0; run < 2; ++run) {  // Identical shed set both runs.
    std::vector<PredictionResponse> responses =
        service.PredictBatch(requests);
    ASSERT_EQ(responses.size(), 7u);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(responses[i].status.ok())
          << i << ": " << responses[i].status.ToString();
    }
    for (size_t i = 4; i < 7; ++i) {
      EXPECT_TRUE(responses[i].status.IsUnavailable()) << i;
      EXPECT_EQ(responses[i].vehicle_id, requests[i].vehicle_id);
    }
  }
  EXPECT_EQ(service.stats().shed, 6u);
  EXPECT_TRUE(pool.Shutdown().ok());
}

TEST_F(PredictionServiceTest, ShedOldestDropsTheHeadDeterministically) {
  ThreadPool pool({2, 32});
  PredictionService::Options options;
  options.admission_capacity = 4;
  options.overload_policy = OverloadPolicy::kShedOldest;
  PredictionService service(registry_.get(), &pool, options);

  std::vector<PredictionRequest> requests;
  for (int64_t id : {1, 2, 3, 1, 2, 3, 1}) {
    const VehicleDataset& ds = datasets_.at(id);
    requests.push_back({id, &ds, ds.num_days()});
  }
  std::vector<PredictionResponse> responses =
      service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), 7u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(responses[i].status.IsUnavailable()) << i;
  }
  for (size_t i = 3; i < 7; ++i) {
    EXPECT_TRUE(responses[i].status.ok())
        << i << ": " << responses[i].status.ToString();
  }
  EXPECT_EQ(service.stats().shed, 3u);
  EXPECT_TRUE(pool.Shutdown().ok());
}

TEST_F(PredictionServiceTest, BlockPolicyFinishesBatchesLargerThanCapacity) {
  // kBlock applies back-pressure instead of shedding: every request of a
  // batch several times the admission capacity is eventually scored --
  // including single groups larger than the whole capacity.
  ThreadPool pool({2, 32});
  PredictionService::Options options;
  options.admission_capacity = 3;
  options.overload_policy = OverloadPolicy::kBlock;
  PredictionService service(registry_.get(), &pool, options);

  std::vector<PredictionRequest> requests;
  for (int i = 0; i < 8; ++i) {  // One group of 8 > capacity 3.
    const VehicleDataset& ds = datasets_.at(1);
    requests.push_back({1, &ds, ds.num_days()});
  }
  for (int64_t id : {2, 3, 2, 3, 2, 3}) {  // Plus smaller groups.
    const VehicleDataset& ds = datasets_.at(id);
    requests.push_back({id, &ds, ds.num_days()});
  }
  std::vector<PredictionResponse> responses =
      service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << i << ": " << responses[i].status.ToString();
  }
  ServingStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_TRUE(pool.Shutdown().ok());
}

TEST_F(PredictionServiceTest, ShedRespondsWithoutTouchingTheRegistry) {
  ThreadPool pool({2, 32});
  PredictionService::Options options;
  options.admission_capacity = 1;
  options.overload_policy = OverloadPolicy::kShedNewest;
  PredictionService service(registry_.get(), &pool, options);

  const size_t misses_before = registry_->stats().misses;
  std::vector<PredictionRequest> requests;
  for (int64_t id : {1, 2, 3}) {  // Only the first fits.
    const VehicleDataset& ds = datasets_.at(id);
    requests.push_back({id, &ds, ds.num_days()});
  }
  std::vector<PredictionResponse> responses =
      service.PredictBatch(requests);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_TRUE(responses[1].status.IsUnavailable());
  EXPECT_TRUE(responses[2].status.IsUnavailable());
  // Shed requests never reached the registry: exactly one model load.
  EXPECT_EQ(registry_->stats().misses, misses_before + 1);
  EXPECT_TRUE(pool.Shutdown().ok());
}

TEST_F(PredictionServiceTest, MetricsExportRoundTripsServingCounters) {
  // A batch that sheds and expires requests, exported as Prometheus text
  // and parsed back: every serving counter must equal stats(), and the
  // registry families must equal the registry's own stats.
  FakeClock clock(1'000'000);
  ThreadPool pool({2, 32});
  PredictionService::Options options;
  options.clock = &clock;
  options.admission_capacity = 4;
  options.overload_policy = OverloadPolicy::kShedNewest;
  PredictionService service(registry_.get(), &pool, options);

  std::vector<PredictionRequest> requests;
  for (int64_t id : {1, 2, 3, 1, 2, 3, 1}) {  // 7 requests, capacity 4.
    const VehicleDataset& ds = datasets_.at(id);
    PredictionRequest req{id, &ds, ds.num_days()};
    if (id == 2) req.deadline = Deadline::At(Clock::TimePoint{});
    requests.push_back(req);
  }
  std::vector<PredictionResponse> responses = service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_TRUE(pool.Shutdown().ok());

  const ServingStatsSnapshot stats = service.stats();
  ASSERT_GT(stats.shed, 0u);
  ASSERT_GT(stats.deadline_exceeded, 0u);
  ASSERT_EQ(stats.requests, requests.size());

  obs::MetricsSnapshot snapshot;
  service.CollectMetrics(&snapshot);
  registry_->CollectMetrics(&snapshot);
  snapshot.Normalize();
  obs::ParsedMetrics parsed;
  std::string error;
  ASSERT_TRUE(obs::ParsePrometheusText(obs::ToPrometheusText(snapshot),
                                       &parsed, &error))
      << error;

  auto as_double = [](size_t v) { return static_cast<double>(v); };
  EXPECT_EQ(parsed.Value("vupred_serve_requests_total", {}, -1.0),
            as_double(stats.requests));
  EXPECT_EQ(parsed.Value("vupred_serve_shed_total", {}, -1.0),
            as_double(stats.shed));
  EXPECT_EQ(parsed.Value("vupred_serve_deadline_exceeded_total", {}, -1.0),
            as_double(stats.deadline_exceeded));
  EXPECT_EQ(parsed.Value("vupred_serve_in_flight", {}, -1.0), 0.0);

  // The latency histogram holds every scored request: shed and expired
  // requests are answered without scoring and carry no latency sample.
  const obs::ParsedSample* inf_bucket = parsed.Find(
      "vupred_serve_request_seconds_bucket", {{"le", "+Inf"}});
  ASSERT_NE(inf_bucket, nullptr);
  EXPECT_EQ(inf_bucket->value,
            parsed.Value("vupred_serve_request_seconds_count", {}, -1.0));
  EXPECT_EQ(inf_bucket->value,
            as_double(stats.requests - stats.shed - stats.deadline_exceeded));
  bool saw_counter_type = false;
  for (const auto& [name, type] : parsed.types) {
    if (name == "vupred_serve_requests_total") {
      saw_counter_type = type == "counter";
    }
  }
  EXPECT_TRUE(saw_counter_type);

  const ModelRegistryStats reg = registry_->stats();
  EXPECT_EQ(parsed.Value("vupred_registry_hits_total", {}, -1.0),
            as_double(reg.hits));
  EXPECT_EQ(parsed.Value("vupred_registry_misses_total", {}, -1.0),
            as_double(reg.misses));
  EXPECT_EQ(parsed.Value("vupred_registry_reloads_total", {}, -1.0),
            as_double(reg.reloads));
  EXPECT_EQ(parsed.Value("vupred_registry_generation", {}, -1.0),
            as_double(reg.generation));
}

}  // namespace
}  // namespace vup::serve
