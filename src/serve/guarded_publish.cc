#include "serve/guarded_publish.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/file_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "serve/manifest.h"
#include "serve/model_registry.h"

namespace vup::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kRollbackMagic = "vupred-rollback v1";
constexpr const char* kRollbackSentinel = "end-rollback";
constexpr size_t kMaxJournalBytes = 4096;
constexpr size_t kMaxGenerationNameLength = 64;
constexpr const char* kNonePrevious = "none";

Status ValidateGenerationName(std::string_view name) {
  if (name.empty() || name.size() > kMaxGenerationNameLength) {
    return Status::InvalidArgument("unusable generation name");
  }
  if (!StartsWith(name, "gen_")) {
    return Status::InvalidArgument("not a generation name: " +
                                   std::string(name));
  }
  std::string_view digits = name.substr(4);
  if (digits.empty() || digits.size() > 18) {
    return Status::InvalidArgument("generation number out of range: " +
                                   std::string(name));
  }
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("garbage generation name: " +
                                     std::string(name));
    }
  }
  return Status::OK();
}

/// A generation is complete when its directory exists, its meta parses
/// and -- when present -- its manifest parses. Incomplete generations must
/// never become CURRENT, in either direction.
Status VerifyGenerationComplete(const std::string& root,
                                const std::string& name) {
  VUP_RETURN_IF_ERROR(ValidateGenerationName(name));
  const std::string dir = root + "/" + name;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    return Status::NotFound("generation directory is missing: " + dir);
  }
  StatusOr<RegistryMeta> meta = ReadRegistryMetaFile(dir);
  if (!meta.ok()) {
    return Status::DataLoss("generation " + name + " is incomplete: " +
                            meta.status().ToString());
  }
  StatusOr<GenerationManifest> manifest = ReadManifestFile(dir);
  if (!manifest.ok() && manifest.status().code() != StatusCode::kNotFound) {
    return Status::DataLoss("generation " + name +
                            " has a damaged manifest: " +
                            manifest.status().ToString());
  }
  return Status::OK();
}

/// Reads the single-line CURRENT pointer. NotFound when no generation has
/// ever been published under `root`.
StatusOr<std::string> ReadCurrentPointer(const std::string& root) {
  const std::string path = root + "/" + kCurrentFileName;
  std::ifstream in(path);
  if (!in) return Status::NotFound("no " + path);
  std::string name;
  if (!std::getline(in, name)) {
    return Status::DataLoss("cannot read " + path);
  }
  name = std::string(Trim(name));
  VUP_RETURN_IF_ERROR(ValidateGenerationName(name));
  return name;
}

}  // namespace

std::string RollbackJournal::Serialize() const {
  std::ostringstream os;
  os << kRollbackMagic << "\n";
  os << "promoted " << promoted << "\n";
  os << "previous " << (previous.empty() ? kNonePrevious : previous) << "\n";
  os << kRollbackSentinel << "\n";
  return os.str();
}

StatusOr<RollbackJournal> RollbackJournal::Parse(const std::string& content) {
  if (content.size() > kMaxJournalBytes) {
    return Status::InvalidArgument("rollback journal is implausibly large");
  }
  if (content.empty() || content.back() != '\n') {
    return Status::InvalidArgument(
        "rollback journal is not newline-terminated (truncated?)");
  }
  std::istringstream stream(content);
  std::string line;
  if (!std::getline(stream, line) || Trim(line) != kRollbackMagic) {
    return Status::InvalidArgument(std::string("not a ") + kRollbackMagic +
                                   " file");
  }
  RollbackJournal journal;
  bool saw_promoted = false;
  bool saw_previous = false;
  bool saw_sentinel = false;
  while (std::getline(stream, line)) {
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    if (saw_sentinel) {
      return Status::InvalidArgument("content after end-rollback sentinel");
    }
    if (trimmed == kRollbackSentinel) {
      saw_sentinel = true;
      continue;
    }
    std::vector<std::string> tokens = Split(trimmed, ' ');
    if (tokens.size() != 2) {
      return Status::InvalidArgument("malformed journal line: " + trimmed);
    }
    if (tokens[0] == "promoted") {
      if (saw_promoted) {
        return Status::InvalidArgument("duplicate promoted line");
      }
      VUP_RETURN_IF_ERROR(ValidateGenerationName(tokens[1]));
      journal.promoted = tokens[1];
      saw_promoted = true;
    } else if (tokens[0] == "previous") {
      if (saw_previous) {
        return Status::InvalidArgument("duplicate previous line");
      }
      if (tokens[1] != kNonePrevious) {
        VUP_RETURN_IF_ERROR(ValidateGenerationName(tokens[1]));
        journal.previous = tokens[1];
      }
      saw_previous = true;
    } else {
      return Status::InvalidArgument("unknown journal key: " + tokens[0]);
    }
  }
  if (!saw_sentinel) {
    return Status::InvalidArgument(
        "rollback journal is missing the end-rollback sentinel (truncated?)");
  }
  if (!saw_promoted || !saw_previous) {
    return Status::InvalidArgument("rollback journal is missing a field");
  }
  return journal;
}

StatusOr<RollbackJournal> ReadRollbackJournal(const std::string& root) {
  VUP_ASSIGN_OR_RETURN(
      std::string content,
      ReadFileCapped(root + "/" + kRollbackJournalFileName, kMaxJournalBytes));
  return RollbackJournal::Parse(content);
}

Status WriteRollbackJournal(const std::string& root,
                            const RollbackJournal& journal) {
  VUP_RETURN_IF_ERROR(ValidateGenerationName(journal.promoted));
  if (!journal.previous.empty()) {
    VUP_RETURN_IF_ERROR(ValidateGenerationName(journal.previous));
  }
  return WriteFileAtomic(root + "/" + kRollbackJournalFileName,
                         journal.Serialize());
}

Status PromoteGeneration(const std::string& root,
                         const std::string& generation) {
  VUP_RETURN_IF_ERROR(VerifyGenerationComplete(root, generation));
  StatusOr<std::string> current = ReadCurrentPointer(root);
  if (!current.ok() && current.status().code() != StatusCode::kNotFound) {
    return current.status();
  }
  const std::string previous = current.ok() ? current.value() : "";
  if (previous == generation) return Status::OK();
  // Journal first, pointer second: a crash between the two writes leaves
  // CURRENT on the old complete generation and a journal that merely
  // announces a promotion that never happened -- RollbackGeneration
  // detects the mismatch and refuses, readers are unaffected.
  VUP_RETURN_IF_ERROR(WriteRollbackJournal(
      root, RollbackJournal{generation, previous}));
  return WriteFileAtomic(root + "/" + kCurrentFileName, generation + "\n");
}

StatusOr<std::string> RollbackGeneration(const std::string& root) {
  VUP_ASSIGN_OR_RETURN(RollbackJournal journal, ReadRollbackJournal(root));
  VUP_ASSIGN_OR_RETURN(std::string current, ReadCurrentPointer(root));
  if (current != journal.promoted) {
    return Status::FailedPrecondition(
        "rollback journal is stale: CURRENT is " + current +
        " but the journal promoted " + journal.promoted);
  }
  if (journal.previous.empty()) {
    return Status::FailedPrecondition(
        "nothing to roll back to: " + journal.promoted +
        " was the first published generation");
  }
  VUP_RETURN_IF_ERROR(VerifyGenerationComplete(root, journal.previous));
  // The journal stays in place, still naming `promoted`: once CURRENT no
  // longer matches it, a second rollback of the same promotion fails with
  // FailedPrecondition instead of ping-ponging between generations.
  VUP_RETURN_IF_ERROR(WriteFileAtomic(root + "/" + kCurrentFileName,
                                      journal.previous + "\n"));
  return journal.previous;
}

CanaryVerdict JudgeCanary(const CanarySnapshot& snapshot,
                          const CanaryOptions& options) {
  CanaryVerdict verdict;
  verdict.snapshot = snapshot;
  if (snapshot.shadow_scores < options.min_shadow) {
    verdict.healthy = true;
    verdict.reason = StrFormat(
        "vacuous: %llu shadow scores (< %llu observed)",
        static_cast<unsigned long long>(snapshot.shadow_scores),
        static_cast<unsigned long long>(options.min_shadow));
    return verdict;
  }
  if (snapshot.nonfinite_outputs > 0) {
    verdict.reason = StrFormat(
        "staged generation produced %llu non-finite outputs",
        static_cast<unsigned long long>(snapshot.nonfinite_outputs));
    return verdict;
  }
  if (snapshot.shadow_errors > 0) {
    verdict.reason = StrFormat(
        "staged generation failed %llu requests the live one served",
        static_cast<unsigned long long>(snapshot.shadow_errors));
    return verdict;
  }
  const double breach_fraction =
      static_cast<double>(snapshot.divergence_breaches) /
      static_cast<double>(snapshot.shadow_scores);
  if (breach_fraction > options.max_breach_fraction) {
    verdict.reason = StrFormat(
        "divergence breach fraction %.4f exceeds %.4f "
        "(%llu/%llu shadow scores diverged > %.2fh, max |delta| %.2fh)",
        breach_fraction, options.max_breach_fraction,
        static_cast<unsigned long long>(snapshot.divergence_breaches),
        static_cast<unsigned long long>(snapshot.shadow_scores),
        options.divergence_hours, snapshot.max_abs_divergence);
    return verdict;
  }
  verdict.healthy = true;
  verdict.reason = StrFormat(
      "healthy: %llu shadow scores, %llu divergence breaches, "
      "mean |delta| %.4fh",
      static_cast<unsigned long long>(snapshot.shadow_scores),
      static_cast<unsigned long long>(snapshot.divergence_breaches),
      snapshot.sum_abs_divergence /
          static_cast<double>(snapshot.shadow_scores));
  return verdict;
}

bool InCanarySlice(uint64_t seed, double fraction, int64_t vehicle_id) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  const uint64_t hash =
      SplitMix64(seed ^ SplitMix64(static_cast<uint64_t>(vehicle_id)));
  // Top 53 bits -> uniform double in [0, 1), the Rng::Uniform mapping.
  const double draw = static_cast<double>(hash >> 11) * 0x1.0p-53;
  return draw < fraction;
}

}  // namespace vup::serve
