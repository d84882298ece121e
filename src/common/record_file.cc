#include "common/record_file.h"

#include <iterator>

#include "common/crc32.h"
#include "common/file_util.h"
#include "common/string_util.h"

namespace vup {

std::string EncodeRecords(std::string_view magic,
                          const std::vector<RecordLine>& records) {
  std::string out(magic);
  out += '\n';
  for (const RecordLine& record : records) {
    out += record.key;
    for (const std::string& value : record.values) {
      out += ' ';
      out += value;
    }
    out += '\n';
  }
  AppendCrc32Trailer(&out);
  return out;
}

StatusOr<std::vector<RecordLine>> DecodeRecords(std::string_view magic,
                                                std::string_view bytes) {
  const std::string magic_line = std::string(magic) + "\n";
  if (!StartsWith(bytes, magic_line)) {
    return Status::InvalidArgument("not a " + std::string(magic) + " file");
  }
  if (bytes.size() < magic_line.size() + kCrc32TrailerBytes ||
      !CheckCrc32Trailer(bytes.data(), bytes.size()).has_value()) {
    return Status::InvalidArgument(std::string(magic) +
                                   " file fails its CRC-32 trailer "
                                   "(truncated or damaged)");
  }
  const std::string_view body =
      bytes.substr(magic_line.size(),
                   bytes.size() - magic_line.size() - kCrc32TrailerBytes);
  if (!body.empty() && body.back() != '\n') {
    return Status::InvalidArgument(std::string(magic) +
                                   " file does not end in a newline");
  }
  for (char c : body) {
    if (c != '\n' && (static_cast<unsigned char>(c) < 0x20 || c == 0x7F)) {
      return Status::InvalidArgument(std::string(magic) +
                                     " file holds a control byte");
    }
  }
  std::vector<RecordLine> records;
  for (size_t at = 0; at < body.size();) {
    const size_t eol = body.find('\n', at);
    std::vector<std::string> tokens = Split(body.substr(at, eol - at), ' ');
    at = eol + 1;
    for (const std::string& token : tokens) {
      if (token.empty()) {
        return Status::InvalidArgument(std::string(magic) +
                                       " record has an empty token");
      }
    }
    records.push_back({std::move(tokens[0]),
                       {std::make_move_iterator(tokens.begin() + 1),
                        std::make_move_iterator(tokens.end())}});
  }
  return records;
}

Status WriteRecordFile(const std::string& path, std::string_view magic,
                       const std::vector<RecordLine>& records) {
  return WriteFileAtomic(path, EncodeRecords(magic, records));
}

StatusOr<std::vector<RecordLine>> ReadRecordFile(const std::string& path,
                                                 std::string_view magic,
                                                 uint64_t max_bytes) {
  StatusOr<std::string> bytes = ReadFileCapped(path, max_bytes);
  if (bytes.status().IsDataLoss()) {
    return Status::InvalidArgument(bytes.status().message());
  }
  VUP_RETURN_IF_ERROR(bytes.status());
  return DecodeRecords(magic, bytes.value());
}

}  // namespace vup
