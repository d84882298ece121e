#ifndef VUPRED_OBS_EXPORT_H_
#define VUPRED_OBS_EXPORT_H_

#include <string>
#include <string_view>

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

}  // namespace vup::obs

#endif  // VUPRED_OBS_EXPORT_H_
