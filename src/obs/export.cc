#include "obs/export.h"

#include <cmath>
#include <cstdio>

namespace vup::obs {

namespace {

/// Deterministic value rendering: integral values (every counter and
/// bucket count) print without a decimal point; everything else prints
/// with enough digits to round-trip through strtod.
std::string FormatValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (value == std::floor(value) && std::abs(value) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

/// HELP text escaping: backslash and newline only (the format's rule).
std::string EscapeHelp(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendLabels(std::string* out, const LabelSet& labels,
                  const std::string& extra_name = "",
                  const std::string& extra_value = "") {
  if (labels.empty() && extra_name.empty()) return;
  *out += '{';
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += name;
    *out += "=\"";
    *out += EscapeLabelValue(value);
    *out += '"';
  }
  if (!extra_name.empty()) {
    if (!first) *out += ',';
    *out += extra_name;
    *out += "=\"";
    *out += extra_value;  // Always a number or +Inf; nothing to escape.
    *out += '"';
  }
  *out += '}';
}

void AppendSampleLine(std::string* out, const std::string& name,
                      const LabelSet& labels, double value,
                      const std::string& extra_name = "",
                      const std::string& extra_value = "") {
  *out += name;
  AppendLabels(out, labels, extra_name, extra_value);
  *out += ' ';
  *out += FormatValue(value);
  *out += '\n';
}

/// JSON string escaping for exporter keys (metric names may embed label
/// values, which can hold anything).
std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

/// `name{k="v",...}` key for the flat JSON shape; plain name when
/// unlabeled.
std::string JsonKey(const std::string& name, const LabelSet& labels,
                    const char* suffix = "") {
  std::string key = name;
  key += suffix;
  if (!labels.empty()) {
    key += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) key += ',';
      first = false;
      key += k;
      key += "=\"";
      key += EscapeLabelValue(v);
      key += '"';
    }
    key += '}';
  }
  return key;
}

}  // namespace

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricFamily& family : snapshot.families) {
    if (!IsValidMetricName(family.name)) continue;
    if (!family.help.empty()) {
      out += "# HELP " + family.name + " " + EscapeHelp(family.help) + "\n";
    }
    out += "# TYPE " + family.name + " ";
    out += MetricTypeToString(family.type);
    out += '\n';
    for (const MetricSample& sample : family.samples) {
      if (family.type != MetricType::kHistogram) {
        AppendSampleLine(&out, family.name, sample.labels, sample.value);
        continue;
      }
      const HistogramData& h = sample.histogram;
      uint64_t cumulative = 0;
      for (size_t i = 0; i < h.counts.size(); ++i) {
        cumulative += h.counts[i];
        const std::string le = i < h.bounds.size()
                                   ? FormatValue(h.bounds[i])
                                   : std::string("+Inf");
        AppendSampleLine(&out, family.name + "_bucket", sample.labels,
                         static_cast<double>(cumulative), "le", le);
      }
      AppendSampleLine(&out, family.name + "_sum", sample.labels, h.sum);
      AppendSampleLine(&out, family.name + "_count", sample.labels,
                       static_cast<double>(cumulative));
    }
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n";
  bool first = true;
  auto emit = [&](const std::string& key, double value) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + EscapeJson(key) + "\": " + FormatValue(value);
  };
  for (const MetricFamily& family : snapshot.families) {
    for (const MetricSample& sample : family.samples) {
      if (family.type != MetricType::kHistogram) {
        emit(JsonKey(family.name, sample.labels), sample.value);
        continue;
      }
      const HistogramData& h = sample.histogram;
      emit(JsonKey(family.name, sample.labels, "_count"),
           static_cast<double>(h.count));
      emit(JsonKey(family.name, sample.labels, "_sum"), h.sum);
      emit(JsonKey(family.name, sample.labels, "_p50"), h.Quantile(0.50));
      emit(JsonKey(family.name, sample.labels, "_p95"), h.Quantile(0.95));
      emit(JsonKey(family.name, sample.labels, "_p99"), h.Quantile(0.99));
    }
  }
  out += "\n}\n";
  return out;
}

}  // namespace vup::obs
