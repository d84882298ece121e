// Exporter tests: label escaping per the Prometheus text exposition
// format (backslash, quote, newline; UTF-8 passes through), a golden
// rendering of a small registry snapshot, round-trips through
// ParsePrometheusText with garbage label values, and malformed-input
// rejection.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "testing/prometheus.h"

namespace vup::obs {
namespace {

TEST(LabelEscapingTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("back\\slash"), "back\\\\slash");
  // UTF-8 bytes pass through untouched.
  EXPECT_EQ(EscapeLabelValue("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(LabelEscapingTest, UnescapeInvertsEscape) {
  const std::string cases[] = {
      "",
      "plain",
      "a\nb",
      "\"\"",
      "\\",
      "\\\\",
      "mix\\\"ed\nnew\\nline",
      "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac",
      std::string("embedded\0null", 13),
  };
  for (const std::string& value : cases) {
    EXPECT_EQ(UnescapeLabelValue(EscapeLabelValue(value)), value);
  }
  // Unknown escapes are kept verbatim rather than dropped.
  EXPECT_EQ(UnescapeLabelValue("a\\tb"), "a\\tb");
}

MetricsSnapshot GoldenSnapshot() {
  MetricsSnapshot snap;

  MetricFamily requests;
  requests.name = "vupred_demo_requests_total";
  requests.help = "Requests served.";
  requests.type = MetricType::kCounter;
  MetricSample r1;
  r1.labels = {{"pool", "a\nb"}};
  r1.value = 3.0;
  MetricSample r2;
  r2.labels = {{"pool", "q\"uote\\"}};
  r2.value = 4.0;
  requests.samples = {r1, r2};

  MetricFamily depth;
  depth.name = "vupred_demo_depth";
  depth.help = "Current depth.";
  depth.type = MetricType::kGauge;
  MetricSample d;
  d.value = 1.5;
  depth.samples = {d};

  MetricFamily latency;
  latency.name = "vupred_demo_latency_seconds";
  latency.help = "Latency.";
  latency.type = MetricType::kHistogram;
  MetricSample h;
  h.histogram.bounds = {0.1, 1.0};
  h.histogram.counts = {2, 1, 1};
  h.histogram.count = 4;
  h.histogram.sum = 1.35;
  latency.samples = {h};

  snap.families = {requests, depth, latency};
  snap.Normalize();
  return snap;
}

TEST(PrometheusExportTest, GoldenSnapshotRendersExactly) {
  // Families alphabetical after Normalize(); histogram buckets cumulative
  // with a +Inf terminator; label values escaped per the format.
  const std::string expected = R"(# HELP vupred_demo_depth Current depth.
# TYPE vupred_demo_depth gauge
vupred_demo_depth 1.5
# HELP vupred_demo_latency_seconds Latency.
# TYPE vupred_demo_latency_seconds histogram
vupred_demo_latency_seconds_bucket{le="0.1"} 2
vupred_demo_latency_seconds_bucket{le="1"} 3
vupred_demo_latency_seconds_bucket{le="+Inf"} 4
vupred_demo_latency_seconds_sum 1.35
vupred_demo_latency_seconds_count 4
# HELP vupred_demo_requests_total Requests served.
# TYPE vupred_demo_requests_total counter
vupred_demo_requests_total{pool="a\nb"} 3
vupred_demo_requests_total{pool="q\"uote\\"} 4
)";
  EXPECT_EQ(ToPrometheusText(GoldenSnapshot()), expected);
}

TEST(PrometheusExportTest, GoldenSnapshotRoundTripsThroughParser) {
  std::string text = ToPrometheusText(GoldenSnapshot());
  ParsedMetrics parsed;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(text, &parsed, &error)) << error;

  EXPECT_EQ(parsed.Value("vupred_demo_requests_total",
                         {{"pool", "a\nb"}}),
            3.0);
  EXPECT_EQ(parsed.Value("vupred_demo_requests_total",
                         {{"pool", "q\"uote\\"}}),
            4.0);
  EXPECT_EQ(parsed.Value("vupred_demo_depth"), 1.5);
  EXPECT_EQ(parsed.Value("vupred_demo_latency_seconds_bucket",
                         {{"le", "+Inf"}}),
            4.0);
  EXPECT_EQ(parsed.Value("vupred_demo_latency_seconds_count"), 4.0);
  EXPECT_DOUBLE_EQ(parsed.Value("vupred_demo_latency_seconds_sum"), 1.35);

  bool saw_histogram_type = false;
  for (const auto& [name, type] : parsed.types) {
    if (name == "vupred_demo_latency_seconds") {
      saw_histogram_type = type == "histogram";
    }
  }
  EXPECT_TRUE(saw_histogram_type);
}

TEST(PrometheusExportTest, GarbageLabelValuesRoundTrip) {
  // Registry-built snapshot with adversarial label *values* (names must
  // stay valid): escapes, quotes, newlines, UTF-8, random bytes.
  const char garbage_alphabet[] = "\\\"\n ab{},=\xc3\xa9\x01\x7f";
  Rng rng(20260807);
  std::vector<std::string> values = {
      "\n", "\"", "\\", "\\n", "{}", "a=b,c=d",
      "tab\tand\rreturn", "caf\xc3\xa9 \xe6\x97\xa5",
  };
  for (int i = 0; i < 20; ++i) {
    std::string v;
    int64_t len = rng.UniformInt(0, 12);
    for (int64_t j = 0; j < len; ++j) {
      v += garbage_alphabet[rng.UniformInt(
          0, static_cast<int64_t>(sizeof(garbage_alphabet)) - 2)];
    }
    values.push_back(v);
  }
  // Duplicate values would intern into one shared counter; keep the first.
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  MetricsRegistry registry;
  for (size_t i = 0; i < values.size(); ++i) {
    Counter* c = registry.GetCounter("vupred_fuzz_total", "Fuzz.",
                                     {{"v", values[i]}});
    ASSERT_NE(c, nullptr) << i;
    c->Increment(i + 1);
  }

  MetricsSnapshot snap = registry.Snapshot();
  snap.Normalize();
  std::string text = ToPrometheusText(snap);
  ParsedMetrics parsed;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(text, &parsed, &error)) << error;
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(parsed.Value("vupred_fuzz_total", {{"v", values[i]}}, -1.0),
              static_cast<double>(i + 1))
        << "value index " << i;
  }
}

TEST(PrometheusParserTest, AcceptsSpecialValuesAndTimestamps) {
  ParsedMetrics parsed;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(
      "a_bucket{le=\"+Inf\"} +Inf\nb NaN\nc -Inf\nd 12 1690000000\n",
      &parsed, &error))
      << error;
  EXPECT_TRUE(std::isinf(parsed.Value("a_bucket", {{"le", "+Inf"}})));
  EXPECT_TRUE(std::isnan(parsed.Value("b")));
  EXPECT_TRUE(std::isinf(parsed.Value("c")));
  EXPECT_EQ(parsed.Value("d"), 12.0);  // Timestamp trimmed.
}

TEST(PrometheusParserTest, RejectsMalformedInput) {
  const char* bad[] = {
      "9name 1\n",                  // Invalid metric name.
      "ok{bad-label=\"x\"} 1\n",    // Invalid label name.
      "ok{v=} 1\n",                 // Unquoted label value.
      "ok{v=\"x} 1\n",              // Unterminated label value.
      "ok{v=\"x\" 1\n",             // Unterminated label set.
      "ok{v=\"x\\\"} 1\n",          // Escape eats the closing quote.
      "ok\n",                       // Missing value.
      "ok twelve\n",                // Non-numeric value.
      "# TYPE lonely\n",            // TYPE line without a type.
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(ParsePrometheusText(text, nullptr, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonExportTest, FlatKeysWithQuantilesAndEscaping) {
  std::string json = ToJson(GoldenSnapshot());
  EXPECT_NE(json.find("\"vupred_demo_depth\": 1.5"), std::string::npos);
  // Histograms flatten to _count/_sum/_p50/_p95/_p99.
  EXPECT_NE(json.find("\"vupred_demo_latency_seconds_count\": 4"),
            std::string::npos);
  EXPECT_NE(json.find("\"vupred_demo_latency_seconds_p50\": 0.1"),
            std::string::npos);
  EXPECT_NE(json.find("\"vupred_demo_latency_seconds_p99\""),
            std::string::npos);
  // Label values embedded in keys are exposition-escaped ("a\nb" ->
  // "a\\nb") and then JSON-escaped, so the document carries a doubled
  // backslash and never a raw newline.
  EXPECT_NE(json.find("a\\\\nb"), std::string::npos);
  EXPECT_EQ(json.find("a\nb"), std::string::npos);
}

}  // namespace
}  // namespace vup::obs
