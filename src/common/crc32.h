#ifndef VUPRED_COMMON_CRC32_H_
#define VUPRED_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace vup {

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320): the checksum of the
/// wire frames, WAL records and every file of a registry generation. Shared
/// here so the serving layer can verify model artifacts without pulling
/// in the wire stack.
uint32_t Crc32(std::span<const uint8_t> bytes);
uint32_t Crc32(const void* data, size_t size);

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
