#include "wire/wal.h"

#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/string_util.h"
#include "wire/frame.h"

namespace vup::wire {

namespace {

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetU32(const uint8_t* p) {
  return p[0] | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

}  // namespace

StatusOr<WriteAheadLog> WriteAheadLog::Open(std::string path) {
  WriteAheadLog wal(std::move(path));
  wal.out_.open(wal.path_, std::ios::binary | std::ios::app);
  if (!wal.out_) {
    return Status::Internal("cannot open WAL for append: " + wal.path_);
  }
  return wal;
}

Status WriteAheadLog::Append(std::span<const uint8_t> payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty WAL payload");
  }
  if (payload.size() > kMaxWalPayloadBytes) {
    return Status::InvalidArgument(
        StrFormat("WAL payload of %zu bytes exceeds the %zu-byte cap",
                  payload.size(), kMaxWalPayloadBytes));
  }
  // One buffered write per record so a crash tears at most the tail
  // record, which replay detects and drops.
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  PutU32(&record, kRecordMagic);
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU32(&record, Crc32(payload));
  record.append(reinterpret_cast<const char*>(payload.data()),
                payload.size());
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) {
    return Status::DataLoss("WAL append failed: " + path_);
  }
  ++records_appended_;
  return Status::OK();
}

Status WriteAheadLog::Append(std::string_view payload) {
  return Append(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
}

Status WriteAheadLog::Reset() {
  out_.close();
  {
    std::ofstream trunc(path_, std::ios::binary | std::ios::trunc);
    if (!trunc) {
      return Status::Internal("cannot truncate WAL: " + path_);
    }
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    return Status::Internal("cannot reopen WAL after truncate: " + path_);
  }
  return Status::OK();
}

StatusOr<WriteAheadLog::ReplayStats> WriteAheadLog::Replay(
    const std::string& path,
    const std::function<Status(std::span<const uint8_t>)>& fn) {
  ReplayStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // No log yet: nothing to replay.
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t remaining = bytes.size() - offset;
    if (remaining < kRecordHeaderBytes) break;  // Torn header.
    const uint8_t* p = bytes.data() + offset;
    if (GetU32(p) != kRecordMagic) break;  // Corrupt tail.
    const uint32_t length = GetU32(p + 4);
    if (length == 0 || length > kMaxWalPayloadBytes) break;
    if (remaining < kRecordHeaderBytes + length) break;  // Torn payload.
    const std::span<const uint8_t> payload(p + kRecordHeaderBytes, length);
    if (GetU32(p + 8) != Crc32(payload)) break;  // Corrupt payload.
    VUP_RETURN_IF_ERROR(fn(payload));
    ++stats.records;
    stats.payload_bytes += length;
    offset += kRecordHeaderBytes + length;
  }
  stats.tail_dropped_bytes = bytes.size() - offset;
  return stats;
}

}  // namespace vup::wire
