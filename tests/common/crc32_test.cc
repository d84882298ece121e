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

const char* PathName(Crc32Path path) {
  return path == Crc32Path::kClmulFold ? "clmul-fold" : "slice-by-8";
}

TEST(Crc32Test, CheckValue) {
  for (Crc32Path path : SupportedCrc32Paths()) {
    SCOPED_TRACE(PathName(path));
    ScopedCrc32Path scoped(path);
    const char* msg = "123456789";
    EXPECT_EQ(Crc32(msg, 9), 0xCBF43926u);
    EXPECT_EQ(Crc32(nullptr, 0), 0u);
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..4096 at start offsets 0..15 cover every alignment of the
  // fold's 16-byte loads and of slice-by-8's word loads, the 64-byte
  // threshold of the fold and every tail length after either.
  constexpr size_t kMaxLength = 4096;
  constexpr size_t kOffsets = 16;
  Rng rng(20190326);
  const std::vector<uint8_t> buffer = RandomBytes(rng, kMaxLength + kOffsets);
  for (Crc32Path path : SupportedCrc32Paths()) {
    ScopedCrc32Path scoped(path);
    for (size_t offset = 0; offset < kOffsets; ++offset) {
      const uint8_t* start = buffer.data() + offset;
      uint32_t reg = 0xFFFFFFFFu;
      for (size_t length = 0; length <= kMaxLength; ++length) {
        if (length > 0) reg = ReferenceUpdate(reg, start[length - 1]);
        ASSERT_EQ(Crc32(start, length), ~reg)
            << PathName(path) << " offset " << offset << " length "
            << length;
      }
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnRandomBuffersUpToOneMiB) {
  for (Crc32Path path : SupportedCrc32Paths()) {
    SCOPED_TRACE(PathName(path));
    ScopedCrc32Path scoped(path);
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
}

TEST(Crc32Test, RunsTheFoldWhereTheCpuHasPclmul) {
  // Asked of the CPU here, not of the library: a build that compiles the
  // fold out on an x86-64 host fails this case.
#if defined(__GNUC__) && defined(__x86_64__)
  __builtin_cpu_init();
  const bool pclmul =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  const bool pclmul = false;
#endif
  EXPECT_EQ(ActiveCrc32Path(),
            pclmul ? Crc32Path::kClmulFold : Crc32Path::kSliceBy8);
  EXPECT_EQ(SupportedCrc32Paths().size(), pclmul ? 2u : 1u);
  EXPECT_EQ(SupportedCrc32Paths().front(), Crc32Path::kSliceBy8);
  {
    ScopedCrc32Path outer(Crc32Path::kSliceBy8);
    EXPECT_EQ(ActiveCrc32Path(), Crc32Path::kSliceBy8);
    {
      ScopedCrc32Path inner(SupportedCrc32Paths().back());
      EXPECT_EQ(ActiveCrc32Path(), SupportedCrc32Paths().back());
    }
    EXPECT_EQ(ActiveCrc32Path(), Crc32Path::kSliceBy8);
  }
  EXPECT_EQ(ActiveCrc32Path(), SupportedCrc32Paths().back());
}

TEST(Crc32Test, FoldTakesEveryWholeBlockFromSixtyFourBytes) {
  // Crc32's own dispatch: on the fold path it folds every whole 16-byte
  // block of a buffer of 64 bytes or more, to the reference register;
  // slice-by-8 takes everything else.
  Rng rng(28);
  const std::vector<uint8_t> bytes = RandomBytes(rng, 4100);
  const auto expect_prefix = [&](size_t n, size_t folded) {
    uint32_t reg = 0xFFFFFFFFu;
    EXPECT_EQ(internal_crc32::FoldPrefix(&reg, bytes.data(), n), folded)
        << "length " << n;
    uint32_t expected = 0xFFFFFFFFu;
    for (size_t i = 0; i < folded; ++i) {
      expected = ReferenceUpdate(expected, bytes[i]);
    }
    EXPECT_EQ(reg, expected) << "length " << n;
  };
  const bool fold = ActiveCrc32Path() == Crc32Path::kClmulFold;
  for (size_t n : {0, 16, 63, 64, 79, 80, 4100}) {
    expect_prefix(n, fold && n >= 64 ? n & ~size_t{15} : 0);
  }
  ScopedCrc32Path slice(Crc32Path::kSliceBy8);
  expect_prefix(4100, 0);
}

}  // namespace
}  // namespace vup
