// Concurrency test for the metrics layer: many threads hammering labeled
// counters, gauges and histograms while other threads snapshot and export.
// Run under TSan by scripts/ci_tsan.sh; totals are verified exactly.

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"

namespace vup::obs {
namespace {

TEST(MetricsRegistryConcurrencyTest, LabeledCountersSumExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 20000;
  const std::string shards[] = {"a", "b", "c"};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &shards, t] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        // Re-resolve through the registry every time: the lookup path must
        // be as thread-safe as the increment itself.
        Counter* counter = registry.GetCounter(
            "vupred_test_ops_total", "Test ops.",
            {{"shard", shards[(t + i) % 3]}});
        ASSERT_NE(counter, nullptr);
        counter->Increment();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  MetricsSnapshot snap = registry.Snapshot();
  double total = 0.0;
  for (const std::string& shard : shards) {
    total += snap.Value("vupred_test_ops_total", {{"shard", shard}});
  }
  EXPECT_EQ(total, static_cast<double>(kThreads * kIncrementsPerThread));
}

TEST(MetricsRegistryConcurrencyTest, SnapshotAndExportRaceWithWriters) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("vupred_test_depth", "Depth.");
  Histogram* hist = registry.GetHistogram(
      "vupred_test_latency_seconds", "Latency.",
      Histogram::LatencyBoundsSeconds());
  ASSERT_NE(gauge, nullptr);
  ASSERT_NE(hist, nullptr);

  std::atomic<bool> stop{false};
  constexpr int kWriters = 6;
  constexpr int kOpsPerWriter = 10000;

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, gauge, hist, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        registry
            .GetCounter("vupred_test_writes_total", "Writes.",
                        {{"writer", std::to_string(t)}})
            ->Increment();
        gauge->Add(1.0);
        hist->Record(1e-6 * static_cast<double>(i % 1000));
        gauge->Add(-1.0);
      }
    });
  }

  // Readers snapshot + render both export formats while writers run; the
  // output only needs to be internally consistent, not any fixed value.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&registry, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        MetricsSnapshot snap = registry.Snapshot();
        snap.Normalize();
        std::string prom = ToPrometheusText(snap);
        std::string json = ToJson(snap);
        EXPECT_FALSE(prom.empty());
        EXPECT_FALSE(json.empty());
      }
    });
  }

  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  MetricsSnapshot snap = registry.Snapshot();
  double writes = 0.0;
  for (int t = 0; t < kWriters; ++t) {
    writes += snap.Value("vupred_test_writes_total",
                         {{"writer", std::to_string(t)}});
  }
  EXPECT_EQ(writes, static_cast<double>(kWriters * kOpsPerWriter));
  EXPECT_EQ(snap.Value("vupred_test_depth", {}, -1.0), 0.0);
  const MetricSample* latency =
      snap.Find("vupred_test_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->histogram.count,
            static_cast<uint64_t>(kWriters * kOpsPerWriter));
}

}  // namespace
}  // namespace vup::obs
