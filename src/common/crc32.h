#ifndef VUPRED_COMMON_CRC32_H_
#define VUPRED_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace vup {

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320): the checksum of every
/// file of a registry generation (compact bundles, record-file sidecars)
/// and of the MANIFEST entries that list them. On x86-64 CPUs with
/// PCLMULQDQ, buffers of 64 bytes and more are folded with carry-less
/// multiplies; slice-by-8 takes the rest, and everything on other CPUs.
/// Both compute the same CRC.
uint32_t Crc32(std::span<const uint8_t> bytes);
uint32_t Crc32(const void* data, size_t size);

/// The ways Crc32 can run.
enum class Crc32Path : int {
  kSliceBy8 = 0,
  kClmulFold = 1,
};

/// Every path this CPU runs, slice-by-8 first; the fold only in GCC or
/// Clang x86-64 builds on a CPU with PCLMULQDQ and SSE4.1.
std::vector<Crc32Path> SupportedCrc32Paths();

/// The path Crc32 runs on this thread: the fastest supported one, chosen
/// once, unless a ScopedCrc32Path is active.
Crc32Path ActiveCrc32Path();

/// Runs Crc32 on the current thread on `path` (which must be supported)
/// for the scope's lifetime, so tests can check every path against a
/// reference. Scopes nest.
class ScopedCrc32Path {
 public:
  explicit ScopedCrc32Path(Crc32Path path);
  ~ScopedCrc32Path();
  ScopedCrc32Path(const ScopedCrc32Path&) = delete;
  ScopedCrc32Path& operator=(const ScopedCrc32Path&) = delete;

 private:
  int previous_;
};

namespace internal_crc32 {

/// Crc32's dispatch: advances the register `*crc` over the longest prefix
/// of the `n` bytes at `p` that the active path folds, and returns that
/// prefix's length; 0 leaves all of it to slice-by-8. Declared here only
/// so the CRC tests can see which path runs.
size_t FoldPrefix(uint32_t* crc, const uint8_t* p, size_t n);

}  // namespace internal_crc32

/// Trailer framing: a framed buffer ends in the little-endian CRC-32 of
/// the bytes before it. Every file of a published generation is framed
/// so, and the trailer is the per-file digest its MANIFEST records.
inline constexpr size_t kCrc32TrailerBytes = 4;

/// Appends the trailer of `*bytes` to it.
void AppendCrc32Trailer(std::string* bytes);

/// The trailer of a framed buffer when it checks (one CRC pass); nullopt
/// when the buffer is shorter than a trailer or the trailer does not match.
std::optional<uint32_t> CheckCrc32Trailer(const void* data, size_t size);

/// The last 4 bytes of a buffer of at least that size, read as a trailer
/// without a CRC pass: for bytes a decoder has already checked.
uint32_t StoredCrc32Trailer(const void* data, size_t size);

}  // namespace vup

#endif  // VUPRED_COMMON_CRC32_H_
