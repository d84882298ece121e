#include "common/file_util.h"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/string_util.h"

namespace vup {

StatusOr<std::string> ReadFileCapped(const std::string& path,
                                     uint64_t max_bytes) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::Internal("cannot stat " + path + ": " + ec.message());
  }
  if (size > max_bytes) {
    return Status::DataLoss(StrFormat(
        "%s: %llu bytes exceeds the %llu-byte cap", path.c_str(),
        static_cast<unsigned long long>(size),
        static_cast<unsigned long long>(max_bytes)));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string bytes(static_cast<size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.bad() || static_cast<uintmax_t>(in.gcount()) != size) {
    return Status::DataLoss("short read: " + path);
  }
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open for writing: " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) return Status::DataLoss("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot install " + path + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace vup
