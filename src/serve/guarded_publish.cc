#include "serve/guarded_publish.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>

#include "common/random.h"
#include "common/string_util.h"
#include "serve/model_registry.h"

namespace vup::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kNonePrevious = "none";
// Longer than any target this code installs: two generation names.
constexpr size_t kMaxLinkTarget = 128;

/// "`what` `path`: <errno text>", reading errno before anything allocates.
std::string ErrnoMessage(const char* what, const std::string& path) {
  const std::string reason = std::strerror(errno);
  return std::string(what) + " " + path + ": " + reason;
}

/// Serializes every pointer flip in this process: PromoteGeneration's and
/// RollbackGeneration's read-check-write of the journal and CURRENT, and a
/// lone WriteRollbackJournal. Two publishers promoting at once would
/// otherwise share InstallLink's fixed temp name, and could leave the
/// journal naming one generation and CURRENT the other. Flips are rare (a
/// publish a night), so one lock for all registries costs nothing.
/// Promotes from several processes are not supported (DESIGN.md §13).
std::mutex pointer_mutex;

/// Points root/`name` at `target`: a fresh `name`.tmp link renamed over the
/// old one. A symlink this short keeps its target in the inode, so the
/// rename installs the old pointer or the new one, never an empty file, and
/// ext4 does not flush data ahead of it as it does for a regular file. The
/// caller holds pointer_mutex, which makes the fixed temp name safe.
Status InstallLink(const std::string& root, const char* name,
                   const std::string& target) {
  const std::string path = root + "/" + name;
  const std::string tmp = path + ".tmp";
  // A link left behind by a writer killed before its rename.
  if (::unlink(tmp.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(ErrnoMessage("cannot remove", tmp));
  }
  if (::symlink(target.c_str(), tmp.c_str()) != 0) {
    return Status::Internal(ErrnoMessage("cannot create link", tmp));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal(ErrnoMessage("cannot install link", path));
  }
  return Status::OK();
}

/// The target of the root/`name` link. NotFound when there is none;
/// DataLoss when `name` is not a symlink -- the pointer files of an older
/// build, which this one does not read.
StatusOr<std::string> ReadLink(const std::string& root, const char* name) {
  const std::string path = root + "/" + name;
  char target[kMaxLinkTarget];
  const ssize_t n = ::readlink(path.c_str(), target, sizeof(target));
  if (n >= 0 && static_cast<size_t>(n) < sizeof(target)) {
    return std::string(target, static_cast<size_t>(n));
  }
  if (n >= 0) return Status::DataLoss(path + " has an over-long target");
  if (errno == ENOENT) return Status::NotFound(path + " does not exist");
  if (errno == EINVAL) {
    return Status::DataLoss(
        path + " is not a symlink (a registry written by an older build): "
               "delete CURRENT and ROLLBACK, then publish");
  }
  return Status::Internal(ErrnoMessage("cannot read link", path));
}

/// Both names must be generation names; `previous` may be empty.
Status ValidateJournal(const RollbackJournal& journal) {
  VUP_RETURN_IF_ERROR(
      ModelRegistry::ParseGenerationName(journal.promoted).status());
  if (journal.previous.empty()) return Status::OK();
  return ModelRegistry::ParseGenerationName(journal.previous).status();
}

/// WriteRollbackJournal; the caller holds pointer_mutex.
Status WriteJournalLocked(const std::string& root,
                          const RollbackJournal& journal) {
  VUP_RETURN_IF_ERROR(ValidateJournal(journal));
  return InstallLink(
      root, kRollbackJournalFileName,
      journal.promoted + " " +
          (journal.previous.empty() ? kNonePrevious : journal.previous));
}

}  // namespace

StatusOr<std::string> ReadCurrentPointer(const std::string& root) {
  VUP_ASSIGN_OR_RETURN(std::string name, ReadLink(root, kCurrentFileName));
  VUP_RETURN_IF_ERROR(ModelRegistry::ParseGenerationName(name).status());
  return name;
}

StatusOr<GenerationManifest> VerifyGenerationComplete(
    const std::string& root, const std::string& generation) {
  VUP_RETURN_IF_ERROR(
      ModelRegistry::ParseGenerationName(generation).status());
  const std::string dir = root + "/" + generation;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    return Status::NotFound("generation directory is missing: " + dir);
  }
  // The meta is written right before the MANIFEST seals the generation;
  // a missing or unreadable one of either means the generation is torn or
  // incomplete.
  StatusOr<RegistryMeta> meta = ReadRegistryMetaFile(dir);
  if (!meta.ok()) {
    return Status::DataLoss("generation " + generation +
                            " is incomplete: " + meta.status().ToString());
  }
  StatusOr<GenerationManifest> manifest = ReadManifestFile(dir);
  if (!manifest.ok()) {
    return Status::DataLoss("generation " + generation +
                            " is incomplete: " +
                            manifest.status().ToString());
  }
  return manifest;
}

StatusOr<RollbackJournal> ReadRollbackJournal(const std::string& root) {
  VUP_ASSIGN_OR_RETURN(const std::string target,
                       ReadLink(root, kRollbackJournalFileName));
  const size_t space = target.find(' ');
  if (space == std::string::npos || space + 1 == target.size()) {
    return Status::InvalidArgument("rollback journal is not two names: " +
                                   target);
  }
  RollbackJournal journal{target.substr(0, space), target.substr(space + 1)};
  if (journal.previous == kNonePrevious) journal.previous.clear();
  VUP_RETURN_IF_ERROR(ValidateJournal(journal));
  return journal;
}

Status WriteRollbackJournal(const std::string& root,
                            const RollbackJournal& journal) {
  std::lock_guard<std::mutex> lock(pointer_mutex);
  return WriteJournalLocked(root, journal);
}

Status PromoteGeneration(const std::string& root,
                         const std::string& generation) {
  VUP_RETURN_IF_ERROR(VerifyGenerationComplete(root, generation).status());
  std::lock_guard<std::mutex> lock(pointer_mutex);
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
  VUP_RETURN_IF_ERROR(
      WriteJournalLocked(root, RollbackJournal{generation, previous}));
  return InstallLink(root, kCurrentFileName, generation);
}

StatusOr<std::string> RollbackGeneration(const std::string& root) {
  std::lock_guard<std::mutex> lock(pointer_mutex);
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
  VUP_RETURN_IF_ERROR(
      VerifyGenerationComplete(root, journal.previous).status());
  // The journal stays in place, still naming `promoted`: once CURRENT no
  // longer matches it, a second rollback of the same promotion fails with
  // FailedPrecondition instead of ping-ponging between generations.
  VUP_RETURN_IF_ERROR(
      InstallLink(root, kCurrentFileName, journal.previous));
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
