#ifndef VUPRED_SERVE_MANIFEST_H_
#define VUPRED_SERVE_MANIFEST_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace vup::serve {

/// Name of the per-generation integrity manifest, written by
/// GenerationPublisher next to registry_meta.txt.
inline constexpr char kManifestFileName[] = "MANIFEST";

/// One file of a published generation: its byte size and IEEE CRC-32.
struct ManifestEntry {
  std::string file;   // Plain file name inside the generation directory.
  uint64_t size = 0;  // Exact byte count.
  uint32_t crc32 = 0; // CRC-32 of the whole file content.

  friend bool operator==(const ManifestEntry& a, const ManifestEntry& b) {
    return a.file == b.file && a.size == b.size && a.crc32 == b.crc32;
  }
};

/// Integrity manifest of one generation directory: every published file
/// (model bundles, registry_meta.txt, clusters.meta) with its size and
/// CRC-32. Persisted as `MANIFEST` (`vupred-manifest v1`):
///
///   vupred-manifest v1
///   entry <file> <size> <crc32>
///   ...
///   end-manifest
///
/// The format follows the registry-meta discipline: newline-terminated
/// lines, an explicit end sentinel so truncation is always detectable,
/// entries strictly ascending by file name (duplicates rejected) and hard
/// caps on counts and token lengths -- the file may be hand-inspected but
/// a hand-mangled one must fail parse, never crash or half-load.
class GenerationManifest {
 public:
  /// Strict parse; any structural damage (bad magic, missing sentinel,
  /// unsorted/duplicate entries, garbage numbers, over-long tokens,
  /// missing trailing newline) is an InvalidArgument.
  static StatusOr<GenerationManifest> Parse(std::istream& in);

  /// Serializes in the format Parse accepts (entries sorted by name).
  std::string Serialize() const;

  /// Scans `dir` and checksums every regular file except the manifest
  /// itself and `*.tmp` leftovers. Deterministic: entries are sorted by
  /// file name regardless of directory iteration order.
  static StatusOr<GenerationManifest> BuildFromDirectory(
      const std::string& dir);

  /// Adds one entry. InvalidArgument on an unusable name (empty, path
  /// separators, "..", over-long) or a duplicate.
  Status Add(std::string file, uint64_t size, uint32_t crc32);

  /// The entry of `file`, or nullptr when the manifest does not list it.
  const ManifestEntry* Find(std::string_view file) const;

  /// Checks `bytes` against `entry`: DataLoss on a size or CRC mismatch.
  static Status VerifyBytes(const ManifestEntry& entry,
                            std::string_view bytes);

  /// Re-reads `dir`/entry.file from disk and verifies it. NotFound when
  /// the file vanished, DataLoss on size/CRC mismatch.
  static Status VerifyFile(const std::string& dir,
                           const ManifestEntry& entry);

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

/// Reads and parses `directory`/MANIFEST. NotFound when the generation
/// predates manifests (legacy, served unverified).
StatusOr<GenerationManifest> ReadManifestFile(const std::string& directory);

}  // namespace vup::serve

#endif  // VUPRED_SERVE_MANIFEST_H_
