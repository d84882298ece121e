#ifndef VUPRED_OBS_EXPORT_H_
#define VUPRED_OBS_EXPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace vup::obs {

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` headers per family, histograms as
/// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`. Label
/// values are escaped per the format (backslash, double-quote, newline);
/// any other bytes -- including UTF-8 -- pass through verbatim. Call
/// MetricsSnapshot::Normalize() first for deterministic output.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Renders a snapshot as a flat `"key": value` JSON object (the CLI's
/// `--metrics-out=FILE.json`). Counters and gauges map to one key
/// each (labels folded into the key as `name{k="v"}`); histograms emit
/// `_count`, `_sum` and conservative `_p50`/`_p95`/`_p99` keys.
std::string ToJson(const MetricsSnapshot& snapshot);

/// Escapes a label value per the exposition format: \ -> \\, " -> \",
/// newline -> \n.
std::string EscapeLabelValue(std::string_view value);

/// Inverse of EscapeLabelValue (lenient: a trailing lone backslash and
/// unknown escapes are kept verbatim).
std::string UnescapeLabelValue(std::string_view value);

/// One parsed sample line of an exposition document.
struct ParsedSample {
  std::string name;
  LabelSet labels;  // Unescaped values, in document order.
  double value = 0.0;
};

/// Parsed exposition document: samples plus the TYPE declarations seen.
struct ParsedMetrics {
  std::vector<ParsedSample> samples;
  std::vector<std::pair<std::string, std::string>> types;  // name -> type.

  const ParsedSample* Find(std::string_view name,
                           const LabelSet& labels = {}) const;
  double Value(std::string_view name, const LabelSet& labels = {},
               double fallback = 0.0) const;
};

/// Strict-enough parser for the subset of the exposition format
/// ToPrometheusText emits; used by the round-trip tests and by anything
/// that wants to diff two metric dumps. Returns false (with a message in
/// `error`) on a malformed document: bad metric/label names, unterminated
/// quotes, missing values, non-numeric values.
bool ParsePrometheusText(std::string_view text, ParsedMetrics* out,
                         std::string* error);

}  // namespace vup::obs

#endif  // VUPRED_OBS_EXPORT_H_
