#include "common/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
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
  // fopen, not ifstream: its errno tells a file deleted since the stat
  // (NotFound) from an IO fault such as descriptor exhaustion (Internal),
  // which must never read as "no such file".
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> in(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (in == nullptr) {
    const int error = errno;
    if (error == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(error));
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  if (std::fread(bytes.data(), 1, bytes.size(), in.get()) != bytes.size()) {
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
