#include "common/crc32.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace vup {
namespace {

/// Bit-at-a-time IEEE CRC-32 register update: no tables, nothing shared
/// with the implementation under test. The CRC of a buffer is the final
/// register value inverted.
uint32_t ReferenceUpdate(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1u) ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  }
  return reg;
}

uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t reg = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) reg = ReferenceUpdate(reg, data[i]);
  return ~reg;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t size) {
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  const char* msg = "123456789";
  EXPECT_EQ(Crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..4096 at start offsets 0..7 cover every alignment of the
  // 8-byte word loads and every tail length after them.
  constexpr size_t kMaxLength = 4096;
  Rng rng(20190326);
  const std::vector<uint8_t> buffer = RandomBytes(rng, kMaxLength + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* start = buffer.data() + offset;
    uint32_t reg = 0xFFFFFFFFu;
    for (size_t length = 0; length <= kMaxLength; ++length) {
      if (length > 0) reg = ReferenceUpdate(reg, start[length - 1]);
      ASSERT_EQ(Crc32(start, length), ~reg)
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnRandomBuffersUpToOneMiB) {
  Rng rng(7);
  const size_t sizes[] = {1 << 20, (1 << 20) - 1, 65537, 12345, 8, 7, 1};
  for (size_t size : sizes) {
    const std::vector<uint8_t> bytes = RandomBytes(rng, size);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
              ReferenceCrc32(bytes.data(), bytes.size()))
        << "size " << size;
  }
  for (int i = 0; i < 8; ++i) {
    const size_t size = static_cast<size_t>(rng.UniformInt(0, 1 << 20));
    const std::vector<uint8_t> bytes = RandomBytes(rng, size);
    EXPECT_EQ(Crc32(std::span<const uint8_t>(bytes)),
              ReferenceCrc32(bytes.data(), bytes.size()))
        << "size " << size;
  }
}

}  // namespace
}  // namespace vup
