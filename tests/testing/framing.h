#ifndef VUPRED_TESTS_TESTING_FRAMING_H_
#define VUPRED_TESTS_TESTING_FRAMING_H_

#include <string>
#include <string_view>

#include "common/crc32.h"

namespace vup {

/// `body` followed by its CRC-32 trailer. A sidecar decoder checks the
/// trailer before any field, so a hand-written or tampered body has to be
/// framed to reach the field check a test aims at.
inline std::string Framed(std::string body) {
  AppendCrc32Trailer(&body);
  return body;
}

/// `framed` without its trailer: the text a test can edit and re-frame.
inline std::string Unframed(std::string_view framed) {
  return std::string(framed.substr(0, framed.size() - kCrc32TrailerBytes));
}

}  // namespace vup

#endif  // VUPRED_TESTS_TESTING_FRAMING_H_
