#ifndef VUPRED_SERVE_MANIFEST_H_
#define VUPRED_SERVE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"

namespace vup::serve {

/// Name of the per-generation integrity manifest, written by
/// GenerationPublisher next to registry_meta.txt.
inline constexpr char kManifestFileName[] = "MANIFEST";

/// One file of a published generation: its byte size and CRC-32 trailer.
struct ManifestEntry {
  std::string file;   // Plain file name inside the generation directory.
  uint64_t size = 0;  // Exact byte count.
  uint32_t crc32 = 0; // The file's trailer: CRC-32 of its first size-4 bytes.

  friend bool operator==(const ManifestEntry& a, const ManifestEntry& b) {
    return a.file == b.file && a.size == b.size && a.crc32 == b.crc32;
  }
};

/// Integrity manifest of one generation directory: every published file
/// (model bundles, registry_meta.txt, sidecars) with its size and its
/// CRC-32 trailer. Every such file ends in the CRC-32 of the bytes before
/// it (common/crc32.h), so the trailer is a per-file digest: two valid
/// bundles of the same size still differ in it. Persisted as `MANIFEST`,
/// a record file (common/record_file.h) under `vupred-manifest v2` with one
/// record per file:
///
///   entry <file> <size> <crc32>
///
/// Entries are strictly ascending by file name (duplicates rejected), and
/// counts and name lengths are capped, so a damaged manifest fails parse,
/// never crashes or half-loads.
class GenerationManifest {
 public:
  /// Strict parse of MANIFEST bytes; any damage (framing, unsorted or
  /// duplicate entries, garbage numbers, unusable names) is an
  /// InvalidArgument.
  static StatusOr<GenerationManifest> Parse(std::string_view bytes);

  /// Serializes in the format Parse accepts (entries sorted by name).
  std::string Serialize() const;

  /// Entries a writer recorded for the bytes it just wrote, by file name.
  using KnownEntries = std::unordered_map<std::string, ManifestEntry>;

  /// Scans `dir` and lists every regular file except the manifest itself
  /// and `*.tmp` leftovers. A file in `known` whose on-disk size equals the
  /// recorded size takes the recorded entry unread; every other file is
  /// read once and must end in its own CRC-32 trailer (DataLoss when it
  /// does not, so such a generation is never finalized). Deterministic:
  /// entries are sorted by file name regardless of directory iteration
  /// order.
  static StatusOr<GenerationManifest> BuildFromDirectory(
      const std::string& dir, const KnownEntries& known);

  /// A manifest of `entries` in any order, sorted by name once.
  /// InvalidArgument on an unusable name, a duplicate or too many entries.
  static StatusOr<GenerationManifest> FromEntries(
      std::vector<ManifestEntry> entries);

  /// Adds one entry in sorted position (linear in the entries after it;
  /// FromEntries builds a whole manifest at once). InvalidArgument on an
  /// unusable name (empty, path separators, "..", over-long) or a
  /// duplicate.
  Status Add(std::string file, uint64_t size, uint32_t crc32);

  /// The entry of `file`, or nullptr when the manifest does not list it.
  const ManifestEntry* Find(std::string_view file) const;

  /// Checks `bytes` against `entry`: DataLoss when the size differs, when
  /// the bytes fail their own CRC-32 trailer, or when that trailer is not
  /// the listed one.
  static Status VerifyBytes(const ManifestEntry& entry,
                            std::string_view bytes);

  const std::vector<ManifestEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  friend bool operator==(const GenerationManifest& a,
                         const GenerationManifest& b) {
    return a.entries_ == b.entries_;
  }

 private:
  std::vector<ManifestEntry> entries_;  // Sorted by file name.
};

/// Writes `manifest` into `directory` as MANIFEST (temp + rename).
Status WriteManifestFile(const std::string& directory,
                         const GenerationManifest& manifest);

/// Reads and parses `directory`/MANIFEST. NotFound when there is none: a
/// committed generation without one is incomplete and never served.
StatusOr<GenerationManifest> ReadManifestFile(const std::string& directory);

/// Reads every file `manifest` lists from `dir` and checks it with
/// VerifyBytes. Each read is capped at the listed size, so a grown file
/// costs a stat, never a read. DataLoss naming the first damaged file: a
/// missing one, a size other than the listed one, bytes that fail their
/// trailer, or another file's bytes of the same size.
Status VerifyListedFiles(const std::string& dir,
                         const GenerationManifest& manifest);

}  // namespace vup::serve

#endif  // VUPRED_SERVE_MANIFEST_H_
