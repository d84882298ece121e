#ifndef VUPRED_COMMON_STRING_UTIL_H_
#define VUPRED_COMMON_STRING_UTIL_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace vup {

/// Splits `input` on `delimiter`, keeping empty fields.
/// Split("a,,b", ',') -> {"a", "", "b"}; Split("", ',') -> {""}.
std::vector<std::string> Split(std::string_view input, char delimiter);

/// Joins `parts` with `delimiter` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// Case-sensitive prefix/suffix tests.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view s);

/// Strict numeric parsing: the whole (trimmed) string must be consumed.
StatusOr<double> ParseDouble(std::string_view s);
StatusOr<long long> ParseInt(std::string_view s);

/// Writes `v` as exactly the bytes printf("%.17g", v) would produce, so
/// every finite double round-trips. Rendered with std::to_chars (no
/// vsnprintf pass, no temporary string). The text model bundles write
/// their doubles through it.
void WriteDouble17(std::ostream& os, double v);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace vup

#endif  // VUPRED_COMMON_STRING_UTIL_H_
