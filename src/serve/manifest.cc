#include "serve/manifest.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "common/crc32.h"
#include "common/file_util.h"
#include "common/record_file.h"
#include "common/string_util.h"

namespace vup::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestMagic = "vupred-manifest v2";
// A fleet publishing more files than this into one generation is garbage,
// not configuration; the byte cap bounds the read of a hostile file.
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

StatusOr<GenerationManifest> FromRecords(
    const std::vector<RecordLine>& records) {
  GenerationManifest manifest;
  for (const RecordLine& record : records) {
    if (record.key != "entry" || record.values.size() != 3) {
      return Status::InvalidArgument("malformed manifest record: " +
                                     record.key);
    }
    const std::string& file = record.values[0];
    // Strictly ascending names double as the duplicate check and pin the
    // on-disk byte order, so Serialize(Parse(x)) == x.
    if (manifest.size() > 0 && manifest.entries().back().file >= file) {
      return Status::InvalidArgument("manifest entries out of order at " +
                                     file);
    }
    VUP_ASSIGN_OR_RETURN(long long size, ParseInt(record.values[1]));
    if (size < 0) {
      return Status::InvalidArgument("negative manifest size for " + file);
    }
    VUP_ASSIGN_OR_RETURN(long long crc, ParseInt(record.values[2]));
    if (crc < 0 || crc > 0xFFFFFFFFll) {
      return Status::InvalidArgument("manifest crc32 out of range for " +
                                     file);
    }
    VUP_RETURN_IF_ERROR(manifest.Add(file, static_cast<uint64_t>(size),
                                     static_cast<uint32_t>(crc)));
  }
  return manifest;
}

std::vector<RecordLine> ToRecords(const GenerationManifest& manifest) {
  std::vector<RecordLine> records;
  records.reserve(manifest.size());
  for (const ManifestEntry& entry : manifest.entries()) {
    records.push_back({"entry",
                       {entry.file, std::to_string(entry.size),
                        std::to_string(entry.crc32)}});
  }
  return records;
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

StatusOr<GenerationManifest> GenerationManifest::Parse(
    std::string_view bytes) {
  VUP_ASSIGN_OR_RETURN(std::vector<RecordLine> records,
                       DecodeRecords(kManifestMagic, bytes));
  return FromRecords(records);
}

std::string GenerationManifest::Serialize() const {
  return EncodeRecords(kManifestMagic, ToRecords(*this));
}

StatusOr<GenerationManifest> GenerationManifest::FromEntries(
    std::vector<ManifestEntry> entries) {
  if (entries.size() > kMaxManifestEntries) {
    return Status::InvalidArgument("manifest has too many entries");
  }
  std::sort(entries.begin(), entries.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.file < b.file;
            });
  for (size_t i = 0; i < entries.size(); ++i) {
    VUP_RETURN_IF_ERROR(ValidateFileName(entries[i].file));
    if (i > 0 && entries[i - 1].file == entries[i].file) {
      return Status::InvalidArgument("duplicate manifest entry: " +
                                     entries[i].file);
    }
  }
  GenerationManifest manifest;
  manifest.entries_ = std::move(entries);
  return manifest;
}

StatusOr<GenerationManifest> GenerationManifest::BuildFromDirectory(
    const std::string& dir, const KnownEntries& known) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot list generation directory " + dir +
                            ": " + ec.message());
  }
  std::vector<ManifestEntry> entries;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    std::string name = entry.path().filename().string();
    if (name == kManifestFileName) continue;
    if (EndsWith(name, ".tmp")) continue;
    // A recorded file still at its recorded size holds the bytes its
    // writer recorded; one that changed size is read like a foreign file.
    const auto recorded = known.find(name);
    if (recorded != known.end()) {
      const uint64_t size = entry.file_size(ec);
      if (!ec && size == recorded->second.size) {
        entries.push_back({std::move(name), size, recorded->second.crc32});
        continue;
      }
    }
    VUP_ASSIGN_OR_RETURN(
        std::string bytes,
        ReadFileCapped(entry.path().string(), kMaxListedFileBytes));
    const std::optional<uint32_t> trailer =
        CheckCrc32Trailer(bytes.data(), bytes.size());
    if (!trailer.has_value()) {
      return Status::DataLoss("staged file " + name +
                              " does not end in its own CRC-32 trailer");
    }
    entries.push_back({std::move(name), bytes.size(), *trailer});
  }
  return FromEntries(std::move(entries));
}

Status GenerationManifest::VerifyBytes(const ManifestEntry& entry,
                                       std::string_view bytes) {
  if (bytes.size() != entry.size) {
    return Status::DataLoss(StrFormat(
        "%s: size %zu does not match manifest (%llu bytes)",
        entry.file.c_str(), bytes.size(),
        static_cast<unsigned long long>(entry.size)));
  }
  const std::optional<uint32_t> trailer =
      CheckCrc32Trailer(bytes.data(), bytes.size());
  if (!trailer.has_value()) {
    return Status::DataLoss(entry.file +
                            ": crc32 trailer does not match its bytes");
  }
  if (*trailer != entry.crc32) {
    return Status::DataLoss(StrFormat(
        "%s: crc32 %u does not match manifest (%u)", entry.file.c_str(),
        *trailer, entry.crc32));
  }
  return Status::OK();
}

Status VerifyListedFiles(const std::string& dir,
                         const GenerationManifest& manifest) {
  for (const ManifestEntry& entry : manifest.entries()) {
    StatusOr<std::string> bytes =
        ReadFileCapped(dir + "/" + entry.file, entry.size);
    if (bytes.status().IsNotFound()) {
      return Status::DataLoss(entry.file + ": listed file is missing");
    }
    VUP_RETURN_IF_ERROR(bytes.status());
    VUP_RETURN_IF_ERROR(GenerationManifest::VerifyBytes(entry, bytes.value()));
  }
  return Status::OK();
}

Status WriteManifestFile(const std::string& directory,
                         const GenerationManifest& manifest) {
  return WriteRecordFile(directory + "/" + kManifestFileName, kManifestMagic,
                         ToRecords(manifest));
}

StatusOr<GenerationManifest> ReadManifestFile(const std::string& directory) {
  VUP_ASSIGN_OR_RETURN(
      std::vector<RecordLine> records,
      ReadRecordFile(directory + "/" + kManifestFileName, kManifestMagic,
                     kMaxManifestBytes));
  return FromRecords(records);
}

}  // namespace vup::serve
