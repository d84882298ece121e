#ifndef VUPRED_COMMON_RECORD_FILE_H_
#define VUPRED_COMMON_RECORD_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace vup {

/// One line of a record file: a key and the values after it.
struct RecordLine {
  std::string key;
  std::vector<std::string> values;

  friend bool operator==(const RecordLine& a, const RecordLine& b) {
    return a.key == b.key && a.values == b.values;
  }
};

/// The layout of the registry's sidecar files (MANIFEST, registry_meta.txt,
/// clusters.meta, ROLLBACK): a magic line, one `key value...` record per
/// line with single spaces, then the 4-byte CRC-32 trailer of common/crc32.h.
/// Keys and values are non-empty and hold no space and no control byte.
/// The trailer catches any truncation or flipped byte, so no sidecar needs
/// an end sentinel; `head -c -4` shows the text.

/// Renders `records` under `magic` and appends the trailer. A token that
/// breaks the rule above yields bytes DecodeRecords rejects.
std::string EncodeRecords(std::string_view magic,
                          const std::vector<RecordLine>& records);

/// Checks the magic line first, so a file of another version fails as "not
/// a <magic> file" rather than as a bare CRC error; then the trailer; then
/// splits the records. Every failure is InvalidArgument.
StatusOr<std::vector<RecordLine>> DecodeRecords(std::string_view magic,
                                                std::string_view bytes);

/// EncodeRecords, installed at `path` through WriteFileAtomic.
Status WriteRecordFile(const std::string& path, std::string_view magic,
                       const std::vector<RecordLine>& records);

/// Reads at most `max_bytes` of `path` and decodes it. NotFound when the
/// file does not exist; InvalidArgument when it is over the cap, comes up
/// short or does not decode.
StatusOr<std::vector<RecordLine>> ReadRecordFile(const std::string& path,
                                                 std::string_view magic,
                                                 uint64_t max_bytes);

}  // namespace vup

#endif  // VUPRED_COMMON_RECORD_FILE_H_
