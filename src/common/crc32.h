#ifndef VUPRED_COMMON_CRC32_H_
#define VUPRED_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace vup {

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320): the checksum of the
/// wire frames, WAL records and registry generation manifests. Shared
/// here so the serving layer can verify model artifacts without pulling
/// in the wire stack.
uint32_t Crc32(std::span<const uint8_t> bytes);
uint32_t Crc32(const void* data, size_t size);

/// The CRC-32 of any buffer that ends in the little-endian CRC-32 of the
/// bytes before it: Crc32(m || le32(Crc32(m))) == kCrc32Residue for every
/// m. So a file framed with its own CRC trailer, once its trailer checks,
/// has this whole-file CRC, and a whole-file CRC recorded elsewhere can be
/// compared without a second pass over the bytes.
inline constexpr uint32_t kCrc32Residue = 0x2144DF1C;

}  // namespace vup

#endif  // VUPRED_COMMON_CRC32_H_
