#include "serve/manifest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/crc32.h"
#include "common/file_util.h"
#include "common/string_util.h"

namespace vup::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestMagic = "vupred-manifest v1";
constexpr const char* kManifestSentinel = "end-manifest";
// A fleet publishing more files than this into one generation is garbage,
// not configuration; the byte cap bounds the Parse slurp on hostile input.
constexpr size_t kMaxManifestEntries = 10'000'000;
constexpr size_t kMaxManifestBytes = 512ull * 1024 * 1024;
constexpr size_t kMaxFileNameLength = 255;
// Bound on one staged file checksummed into a manifest: far above any
// bundle or sidecar a generation holds.
constexpr uint64_t kMaxListedFileBytes = 1ull << 30;

Status ValidateFileName(std::string_view file) {
  if (file.empty() || file.size() > kMaxFileNameLength) {
    return Status::InvalidArgument("unusable manifest file name");
  }
  if (file == "." || file == "..") {
    return Status::InvalidArgument("manifest file name is a dot path");
  }
  for (char c : file) {
    if (c == '/' || c == '\\' || c == '\n' || c == '\r' || c == ' ' ||
        c == '\t' || c == '\0') {
      return Status::InvalidArgument("manifest file name holds a path "
                                     "separator or whitespace: " +
                                     std::string(file));
    }
  }
  return Status::OK();
}

}  // namespace

Status GenerationManifest::Add(std::string file, uint64_t size,
                               uint32_t crc32) {
  VUP_RETURN_IF_ERROR(ValidateFileName(file));
  if (entries_.size() >= kMaxManifestEntries) {
    return Status::InvalidArgument("manifest has too many entries");
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), file,
      [](const ManifestEntry& e, const std::string& name) {
        return e.file < name;
      });
  if (it != entries_.end() && it->file == file) {
    return Status::InvalidArgument("duplicate manifest entry: " + file);
  }
  entries_.insert(it, ManifestEntry{std::move(file), size, crc32});
  return Status::OK();
}

const ManifestEntry* GenerationManifest::Find(std::string_view file) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), file,
      [](const ManifestEntry& e, std::string_view name) {
        return e.file < name;
      });
  if (it == entries_.end() || it->file != file) return nullptr;
  return &*it;
}

StatusOr<GenerationManifest> GenerationManifest::Parse(std::istream& in) {
  std::string content;
  {
    char buf[4096];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
      content.append(buf, static_cast<size_t>(in.gcount()));
      if (content.size() > kMaxManifestBytes) {
        return Status::InvalidArgument("manifest is implausibly large");
      }
    }
  }
  if (content.empty() || content.back() != '\n') {
    return Status::InvalidArgument(
        "manifest is not newline-terminated (truncated?)");
  }
  std::istringstream stream(content);
  std::string line;
  if (!std::getline(stream, line) || Trim(line) != kManifestMagic) {
    return Status::InvalidArgument(std::string("not a ") + kManifestMagic +
                                   " file");
  }
  GenerationManifest manifest;
  bool saw_sentinel = false;
  while (std::getline(stream, line)) {
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    if (saw_sentinel) {
      return Status::InvalidArgument("content after end-manifest sentinel");
    }
    if (trimmed == kManifestSentinel) {
      saw_sentinel = true;
      continue;
    }
    std::vector<std::string> tokens = Split(trimmed, ' ');
    if (tokens.size() != 4 || tokens[0] != "entry") {
      return Status::InvalidArgument("malformed manifest line: " + trimmed);
    }
    VUP_RETURN_IF_ERROR(ValidateFileName(tokens[1]));
    // Strictly ascending names double as the duplicate check and pin the
    // on-disk byte order, so Serialize(Parse(x)) == x.
    if (!manifest.entries_.empty() &&
        manifest.entries_.back().file >= tokens[1]) {
      return Status::InvalidArgument("manifest entries out of order at " +
                                     tokens[1]);
    }
    VUP_ASSIGN_OR_RETURN(long long size, ParseInt(tokens[2]));
    if (size < 0) {
      return Status::InvalidArgument("negative manifest size for " +
                                     tokens[1]);
    }
    VUP_ASSIGN_OR_RETURN(long long crc, ParseInt(tokens[3]));
    if (crc < 0 || crc > 0xFFFFFFFFll) {
      return Status::InvalidArgument("manifest crc32 out of range for " +
                                     tokens[1]);
    }
    if (manifest.entries_.size() >= kMaxManifestEntries) {
      return Status::InvalidArgument("manifest has too many entries");
    }
    manifest.entries_.push_back(ManifestEntry{
        tokens[1], static_cast<uint64_t>(size), static_cast<uint32_t>(crc)});
  }
  if (!saw_sentinel) {
    return Status::InvalidArgument(
        "manifest is missing the end-manifest sentinel (truncated?)");
  }
  return manifest;
}

std::string GenerationManifest::Serialize() const {
  std::ostringstream os;
  os << kManifestMagic << "\n";
  for (const ManifestEntry& entry : entries_) {
    os << "entry " << entry.file << " " << entry.size << " " << entry.crc32
       << "\n";
  }
  os << kManifestSentinel << "\n";
  return os.str();
}

StatusOr<GenerationManifest> GenerationManifest::BuildFromDirectory(
    const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot list generation directory " + dir +
                            ": " + ec.message());
  }
  GenerationManifest manifest;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (name == kManifestFileName) continue;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") continue;
    VUP_ASSIGN_OR_RETURN(
        std::string bytes,
        ReadFileCapped(entry.path().string(), kMaxListedFileBytes));
    VUP_RETURN_IF_ERROR(manifest.Add(
        name, bytes.size(), Crc32(bytes.data(), bytes.size())));
  }
  return manifest;
}

Status GenerationManifest::VerifyBytes(const ManifestEntry& entry,
                                       std::string_view bytes) {
  if (bytes.size() != entry.size) {
    return Status::DataLoss(StrFormat(
        "%s: size %zu does not match manifest (%llu bytes)",
        entry.file.c_str(), bytes.size(),
        static_cast<unsigned long long>(entry.size)));
  }
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  if (crc != entry.crc32) {
    return Status::DataLoss(StrFormat(
        "%s: crc32 %u does not match manifest (%u)", entry.file.c_str(),
        crc, entry.crc32));
  }
  return Status::OK();
}

Status GenerationManifest::VerifyFile(const std::string& dir,
                                      const ManifestEntry& entry) {
  const std::string path = dir + "/" + entry.file;
  // Capped at the listed size: a grown file is a mismatch found by stat,
  // not by reading it.
  StatusOr<std::string> bytes = ReadFileCapped(path, entry.size);
  if (bytes.status().IsNotFound()) {
    return Status::NotFound("manifest-listed file is missing: " + path);
  }
  if (!bytes.ok()) return bytes.status();
  return VerifyBytes(entry, bytes.value());
}

Status WriteManifestFile(const std::string& directory,
                         const GenerationManifest& manifest) {
  return WriteFileAtomic(directory + "/" + kManifestFileName,
                         manifest.Serialize());
}

StatusOr<GenerationManifest> ReadManifestFile(const std::string& directory) {
  std::ifstream in(directory + "/" + std::string(kManifestFileName),
                   std::ios::binary);
  if (!in) {
    return Status::NotFound("no " + std::string(kManifestFileName) +
                            " in " + directory);
  }
  return GenerationManifest::Parse(in);
}

}  // namespace vup::serve
