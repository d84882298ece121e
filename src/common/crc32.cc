#include "common/crc32.h"

#include <bit>
#include <cstring>

namespace vup {

namespace {

/// Slice-by-8 tables: t[0] is the classic bytewise table, t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight table lookups fold
/// eight input bytes at once.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables s{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      s.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = s.t[k - 1][i];
        s.t[k][i] = (prev >> 8) ^ s.t[0][prev & 0xFF];
      }
    }
    return s;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes) {
  const auto& t = Tables().t;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    // memcpy loads: any alignment, no aliasing UB; compilers emit plain
    // 32-bit loads.
    for (; n >= 8; p += 8, n -= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32(
      std::span<const uint8_t>(static_cast<const uint8_t*>(data), size));
}

void AppendCrc32Trailer(std::string* bytes) {
  const uint32_t crc = Crc32(bytes->data(), bytes->size());
  for (size_t i = 0; i < kCrc32TrailerBytes; ++i) {
    bytes->push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
}

std::optional<uint32_t> CheckCrc32Trailer(const void* data, size_t size) {
  if (size < kCrc32TrailerBytes) return std::nullopt;
  const uint32_t stored = StoredCrc32Trailer(data, size);
  if (Crc32(data, size - kCrc32TrailerBytes) != stored) return std::nullopt;
  return stored;
}

uint32_t StoredCrc32Trailer(const void* data, size_t size) {
  const auto* tail =
      static_cast<const uint8_t*>(data) + size - kCrc32TrailerBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kCrc32TrailerBytes; ++i) {
    stored |= uint32_t{tail[i]} << (8 * i);
  }
  return stored;
}

}  // namespace vup
