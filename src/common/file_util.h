#ifndef VUPRED_COMMON_FILE_UTIL_H_
#define VUPRED_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/statusor.h"

namespace vup {

/// Reads the whole file at `path` into one buffer with one read. The size
/// is checked against `max_bytes` BEFORE the buffer is allocated, so a
/// huge or hostile file costs a stat, never an allocation of its size.
///
/// NotFound when the file does not exist; DataLoss when it is larger than
/// `max_bytes` or the read comes up short; Internal for every other stat
/// or open error (a directory in its place, descriptors exhausted).
StatusOr<std::string> ReadFileCapped(const std::string& path,
                                     uint64_t max_bytes);

/// Installs `content` at `path` through a temp file: writes and flushes
/// `path`.tmp, then renames it over `path`, so a reader (or a writer
/// killed mid-way) sees the old file or the new one, never a torn one.
/// No fsync. Internal when the temp file cannot be opened or renamed;
/// DataLoss when the write fails.
Status WriteFileAtomic(const std::string& path, std::string_view content);

}  // namespace vup

#endif  // VUPRED_COMMON_FILE_UTIL_H_
