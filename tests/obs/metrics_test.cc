// Core obs::MetricsRegistry / instrument behavior: creation, stable
// pointers, validation, labeled families and snapshots.

#include "obs/metrics.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace vup::obs {
namespace {

TEST(MetricNameTest, ValidatesMetricAndLabelNames) {
  EXPECT_TRUE(IsValidMetricName("vupred_requests_total"));
  EXPECT_TRUE(IsValidMetricName("a:b:c"));
  EXPECT_TRUE(IsValidMetricName("_leading_underscore"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(IsValidMetricName("has-dash"));
  EXPECT_FALSE(IsValidMetricName("has space"));

  EXPECT_TRUE(IsValidLabelName("pool"));
  EXPECT_TRUE(IsValidLabelName("_x9"));
  EXPECT_FALSE(IsValidLabelName("with:colon"));  // Colons are metric-only.
  EXPECT_FALSE(IsValidLabelName(""));
  EXPECT_FALSE(IsValidLabelName("1x"));
}

TEST(MetricsRegistryTest, CounterPointersAreStableAndShared) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", "Requests.");
  ASSERT_NE(a, nullptr);
  a->Increment();
  a->Increment(41);
  Counter* b = registry.GetCounter("requests_total", "Requests.");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->value(), 42u);
  EXPECT_EQ(registry.num_instruments(), 1u);
}

TEST(MetricsRegistryTest, InvalidNamesAndLabelsReturnNull) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("bad-name", "x"), nullptr);
  EXPECT_EQ(registry.GetCounter("ok", "x", {{"bad-label", "v"}}), nullptr);
  // Duplicate label keys are ambiguous.
  EXPECT_EQ(registry.GetCounter("ok", "x", {{"k", "a"}, {"k", "b"}}),
            nullptr);
  EXPECT_EQ(registry.num_instruments(), 0u);
}

TEST(MetricsRegistryTest, TypeConflictReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("x_total", "x"), nullptr);
  EXPECT_EQ(registry.GetGauge("x_total", "x"), nullptr);
  EXPECT_EQ(registry.GetHistogram("x_total", "x", {1.0}), nullptr);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitTheInstrument) {
  MetricsRegistry registry;
  Counter* ab = registry.GetCounter("c_total", "c",
                                    {{"a", "1"}, {"b", "2"}});
  Counter* ba = registry.GetCounter("c_total", "c",
                                    {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
  Counter* other = registry.GetCounter("c_total", "c", {{"a", "2"}});
  EXPECT_NE(ab, other);
  EXPECT_EQ(registry.num_instruments(), 2u);
}

TEST(MetricsRegistryTest, SnapshotCarriesValuesAndLabels) {
  MetricsRegistry registry;
  registry.GetCounter("hits_total", "Hits.", {{"pool", "a"}})->Increment(3);
  registry.GetCounter("hits_total", "Hits.", {{"pool", "b"}})->Increment(5);
  registry.GetGauge("depth", "Depth.")->Set(2.5);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("hits_total", {{"pool", "a"}}), 3.0);
  EXPECT_EQ(snap.Value("hits_total", {{"pool", "b"}}), 5.0);
  EXPECT_EQ(snap.Value("depth"), 2.5);
  EXPECT_EQ(snap.Value("absent", {}, -1.0), -1.0);
  EXPECT_EQ(snap.Find("hits_total", {{"pool", "zzz"}}), nullptr);
}

TEST(MetricsSnapshotTest, NormalizeMergesAndSortsFamilies) {
  MetricsSnapshot snap;
  MetricFamily b1;
  b1.name = "b_total";
  b1.type = MetricType::kCounter;
  MetricSample s1;
  s1.labels = {{"k", "2"}};
  s1.value = 1.0;
  b1.samples.push_back(s1);
  MetricFamily a;
  a.name = "a_total";
  a.type = MetricType::kCounter;
  a.samples.push_back(MetricSample{});
  MetricFamily b2;
  b2.name = "b_total";
  b2.type = MetricType::kCounter;
  MetricSample s2;
  s2.labels = {{"k", "1"}};
  s2.value = 2.0;
  b2.samples.push_back(s2);
  snap.families = {std::move(b1), std::move(a), std::move(b2)};

  snap.Normalize();
  ASSERT_EQ(snap.families.size(), 2u);
  EXPECT_EQ(snap.families[0].name, "a_total");
  EXPECT_EQ(snap.families[1].name, "b_total");
  ASSERT_EQ(snap.families[1].samples.size(), 2u);
  // Samples sorted by label set.
  EXPECT_EQ(snap.families[1].samples[0].value, 2.0);
  EXPECT_EQ(snap.families[1].samples[1].value, 1.0);
}

TEST(GaugeTest, AddAccumulatesBothDirections) {
  Gauge gauge;
  gauge.Add(2.0);
  gauge.Add(0.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.Set(10.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 10.0);
}

TEST(HistogramTest, RecordsIntoBucketsAndOverflow) {
  Histogram hist({0.1, 1.0, 10.0});
  hist.Record(0.05);   // bucket 0
  hist.Record(0.1);    // bucket 0 (le = inclusive)
  hist.Record(0.5);    // bucket 1
  hist.Record(100.0);  // overflow
  hist.Record(-3.0);   // clamped to 0 -> bucket 0
  hist.Record(std::nan(""));  // clamped to 0 -> bucket 0

  HistogramData data = hist.Snapshot();
  ASSERT_EQ(data.bounds.size(), 3u);
  ASSERT_EQ(data.counts.size(), 4u);
  EXPECT_EQ(data.counts[0], 4u);
  EXPECT_EQ(data.counts[1], 1u);
  EXPECT_EQ(data.counts[2], 0u);
  EXPECT_EQ(data.counts[3], 1u);
  EXPECT_EQ(data.count, 6u);
}

TEST(HistogramTest, InvalidBoundsFallBackToCatchAll) {
  Histogram decreasing({2.0, 1.0});
  decreasing.Record(5.0);
  EXPECT_EQ(decreasing.count(), 1u);
  ASSERT_EQ(decreasing.bounds().size(), 1u);  // Single catch-all bucket.

  Histogram empty({});
  empty.Record(1.0);
  EXPECT_EQ(empty.count(), 1u);
}

TEST(HistogramTest, ExponentialBoundsAreStrictlyIncreasing) {
  std::vector<double> bounds = Histogram::ExponentialBounds(0.001, 4.0, 6);
  ASSERT_EQ(bounds.size(), 6u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.001);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

TEST(HistogramTest, LatencyLadderCoversMicrosToSeconds) {
  std::vector<double> bounds = Histogram::LatencyBoundsSeconds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_LE(bounds.front(), 1e-5);
  EXPECT_GE(bounds.back(), 5.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

}  // namespace
}  // namespace vup::obs
