#ifndef VUPRED_TESTS_TESTING_PROMETHEUS_H_
#define VUPRED_TESTS_TESTING_PROMETHEUS_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

// A parser for the Prometheus text that obs::ToPrometheusText emits: the
// oracle of the export round-trip tests and of the tests that diff two
// metric dumps.

namespace vup::obs {

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

/// Inverse of obs::EscapeLabelValue (lenient: a trailing lone backslash
/// and unknown escapes are kept verbatim).
inline std::string UnescapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '\\' || i + 1 >= value.size()) {
      out += value[i];
      continue;
    }
    ++i;
    switch (value[i]) {
      case '\\':
        out += '\\';
        break;
      case '"':
        out += '"';
        break;
      case 'n':
        out += '\n';
        break;
      default:  // Unknown escape: keep verbatim.
        out += '\\';
        out += value[i];
    }
  }
  return out;
}

namespace internal {

inline bool Fail(std::string* error, const std::string& message,
                 size_t line_no) {
  if (error != nullptr) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "line %zu: ", line_no);
    *error = buf + message;
  }
  return false;
}

}  // namespace internal

inline const ParsedSample* ParsedMetrics::Find(std::string_view name,
                                               const LabelSet& labels) const {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const ParsedSample& sample : samples) {
    if (sample.name != name) continue;
    LabelSet sample_labels = sample.labels;
    std::sort(sample_labels.begin(), sample_labels.end());
    if (sample_labels == sorted) return &sample;
  }
  return nullptr;
}

inline double ParsedMetrics::Value(std::string_view name,
                                   const LabelSet& labels,
                                   double fallback) const {
  const ParsedSample* sample = Find(name, labels);
  return sample != nullptr ? sample->value : fallback;
}

/// Strict-enough parser for the subset of the exposition format
/// ToPrometheusText emits. Returns false (with a message in `error`) on a
/// malformed document: bad metric/label names, unterminated quotes,
/// missing values, non-numeric values.
inline bool ParsePrometheusText(std::string_view text, ParsedMetrics* out,
                                std::string* error) {
  ParsedMetrics parsed;
  size_t line_no = 0;
  size_t at = 0;
  while (at <= text.size()) {
    size_t end = text.find('\n', at);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(at, end - at);
    at = end + 1;
    ++line_no;
    if (line.empty()) {
      if (at > text.size()) break;
      continue;
    }
    if (line[0] == '#') {
      // Only "# TYPE <name> <type>" is retained; HELP and other comments
      // are skipped.
      const std::string_view type_prefix = "# TYPE ";
      if (line.substr(0, type_prefix.size()) == type_prefix) {
        std::string_view rest = line.substr(type_prefix.size());
        size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          return internal::Fail(error, "malformed TYPE line", line_no);
        }
        parsed.types.emplace_back(std::string(rest.substr(0, space)),
                                  std::string(rest.substr(space + 1)));
      }
      continue;
    }

    ParsedSample sample;
    size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    sample.name = std::string(line.substr(0, pos));
    if (!IsValidMetricName(sample.name)) {
      return internal::Fail(
          error, "invalid metric name '" + sample.name + "'", line_no);
    }

    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        size_t eq = line.find('=', pos);
        if (eq == std::string_view::npos) {
          return internal::Fail(error, "label without '='", line_no);
        }
        std::string label(line.substr(pos, eq - pos));
        if (!IsValidLabelName(label)) {
          return internal::Fail(error, "invalid label name '" + label + "'",
                                line_no);
        }
        pos = eq + 1;
        if (pos >= line.size() || line[pos] != '"') {
          return internal::Fail(error, "label value is not quoted", line_no);
        }
        ++pos;
        std::string raw;
        bool closed = false;
        while (pos < line.size()) {
          char c = line[pos];
          if (c == '\\') {
            if (pos + 1 >= line.size()) {
              return internal::Fail(error, "dangling escape in label value",
                                    line_no);
            }
            raw += c;
            raw += line[pos + 1];
            pos += 2;
            continue;
          }
          if (c == '"') {
            closed = true;
            ++pos;
            break;
          }
          raw += c;
          ++pos;
        }
        if (!closed) {
          return internal::Fail(error, "unterminated label value", line_no);
        }
        sample.labels.emplace_back(std::move(label),
                                   UnescapeLabelValue(raw));
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      if (pos >= line.size() || line[pos] != '}') {
        return internal::Fail(error, "unterminated label set", line_no);
      }
      ++pos;
    }

    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) {
      return internal::Fail(error, "missing sample value", line_no);
    }
    std::string value_text(line.substr(pos));
    // Trim a timestamp if present (we never emit one, but accept it).
    size_t value_end = value_text.find(' ');
    if (value_end != std::string::npos) value_text.resize(value_end);
    if (value_text == "+Inf") {
      sample.value = std::numeric_limits<double>::infinity();
    } else if (value_text == "-Inf") {
      sample.value = -std::numeric_limits<double>::infinity();
    } else if (value_text == "NaN") {
      sample.value = std::numeric_limits<double>::quiet_NaN();
    } else {
      char* parse_end = nullptr;
      sample.value = std::strtod(value_text.c_str(), &parse_end);
      if (parse_end == value_text.c_str() || *parse_end != '\0') {
        return internal::Fail(
            error, "non-numeric value '" + value_text + "'", line_no);
      }
    }
    parsed.samples.push_back(std::move(sample));
  }
  if (out != nullptr) *out = std::move(parsed);
  return true;
}

}  // namespace vup::obs

#endif  // VUPRED_TESTS_TESTING_PROMETHEUS_H_
