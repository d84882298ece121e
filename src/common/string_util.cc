#include "common/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <cerrno>
#include <ostream>

namespace vup {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delimiter) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delimiter);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

StatusOr<double> ParseDouble(std::string_view s) {
  std::string trimmed(Trim(s));
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty string is not a double");
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(trimmed.c_str(), &end);
  if (end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("trailing characters in double: '" +
                                   trimmed + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: '" + trimmed + "'");
  }
  return value;
}

StatusOr<long long> ParseInt(std::string_view s) {
  std::string trimmed(Trim(s));
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty string is not an integer");
  }
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(trimmed.c_str(), &end, 10);
  if (end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("trailing characters in integer: '" +
                                   trimmed + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + trimmed + "'");
  }
  return value;
}

void WriteDouble17(std::ostream& os, double v) {
  // The longest %.17g rendering is 24 chars ("-2.2250738585072014e-308").
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  os.write(buf, r.ptr - buf);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace vup
