#ifndef VUPRED_SERVE_GUARDED_PUBLISH_H_
#define VUPRED_SERVE_GUARDED_PUBLISH_H_

#include <cstdint>
#include <string>

#include "common/statusor.h"
#include "serve/manifest.h"

namespace vup::serve {

/// The two root pointers of a registry, living next to the gen_*
/// directories. Both are relative symlinks whose target is the pointer
/// itself, so one `rename` installs either and one `readlink` reads it.
inline constexpr char kCurrentFileName[] = "CURRENT";
inline constexpr char kRollbackJournalFileName[] = "ROLLBACK";

/// Reads the CURRENT link under `root` (`CURRENT -> gen_000042`) and checks
/// that it names a generation. NotFound when no generation has ever been
/// promoted there; DataLoss when CURRENT is not a symlink (a registry
/// published by an older build), with the fix in the message.
StatusOr<std::string> ReadCurrentPointer(const std::string& root);

/// Checks that root/`generation` is complete: a well-formed name, the
/// directory present (NotFound otherwise), a registry meta and a MANIFEST
/// that both decode (DataLoss otherwise). Returns the manifest, the only
/// definition of what the generation serves. Incomplete generations must
/// never become CURRENT, in either direction.
StatusOr<GenerationManifest> VerifyGenerationComplete(
    const std::string& root, const std::string& generation);

/// The rollback journal: installed immediately BEFORE the CURRENT pointer
/// advances, so a crash between the two leaves enough on disk to either
/// roll forward (re-flip CURRENT) or roll back (restore `previous`).
/// Persisted as the `ROLLBACK` symlink, whose target holds both names:
///
///   ROLLBACK -> "gen_000042 gen_000041"   (promoted, then previous)
///   ROLLBACK -> "gen_000042 none"         (a first publish)
struct RollbackJournal {
  std::string promoted;  // Generation CURRENT was advanced to.
  std::string previous;  // Generation CURRENT held before; "" = none.

  friend bool operator==(const RollbackJournal& a, const RollbackJournal& b) {
    return a.promoted == b.promoted && a.previous == b.previous;
  }
};

/// Reads root/ROLLBACK. NotFound when no guarded promotion ever ran;
/// InvalidArgument when its target is not two generation names (the
/// second may be `none`); DataLoss when ROLLBACK is not a symlink.
StatusOr<RollbackJournal> ReadRollbackJournal(const std::string& root);

/// Installs root/ROLLBACK atomically (temp link + rename).
Status WriteRollbackJournal(const std::string& root,
                            const RollbackJournal& journal);

/// Advances root/CURRENT to `generation` ("gen_NNNNNN"), journaling the
/// step first so it can be undone. Verifies the target is a complete
/// generation (well-formed name, directory present, parseable meta and
/// manifest) before touching any pointer.
/// Promoting the generation CURRENT already names is an idempotent no-op
/// that leaves the journal alone.
Status PromoteGeneration(const std::string& root,
                         const std::string& generation);

/// Undoes the journaled promotion: CURRENT must still name
/// journal.promoted (FailedPrecondition otherwise -- a later publish made
/// the journal stale), journal.previous must exist and be complete, and
/// every file its MANIFEST lists must hold the listed bytes
/// (VerifyListedFiles; DataLoss naming the generation and the file
/// otherwise, with CURRENT and ROLLBACK untouched).
/// Flips CURRENT back and returns the restored generation name. The
/// journal is left in place, so a second rollback of the same promotion
/// fails cleanly instead of ping-ponging.
StatusOr<std::string> RollbackGeneration(const std::string& root);

class ModelRegistry;

/// Canary shadow-scoring configuration for PredictionService: a seeded
/// hash-slice of vehicles is scored a second time against `staged` and the
/// divergence from the live answer is accumulated.
struct CanaryOptions {
  ModelRegistry* staged = nullptr;  // nullptr disables the canary.
  double fraction = 0.1;            // Slice of vehicles shadow-scored.
  uint64_t seed = 42;               // Slice membership hash seed.
  double divergence_hours = 6.0;    // |staged - live| above this = breach.
  double max_breach_fraction = 0.05;  // Breaches / shadow scores allowed.
  uint64_t min_shadow = 1;  // Verdict is vacuous below this sample count.

  bool enabled() const { return staged != nullptr && fraction > 0.0; }
};

/// Counters accumulated by the shadow scorer; a point-in-time copy is
/// returned by PredictionService::canary_counts().
struct CanarySnapshot {
  uint64_t shadow_scores = 0;       // Requests scored against staged.
  uint64_t divergence_breaches = 0; // |staged - live| > divergence_hours.
  uint64_t nonfinite_outputs = 0;   // Staged produced NaN/inf.
  uint64_t shadow_errors = 0;       // Staged failed where live succeeded.
  double max_abs_divergence = 0.0;
  double sum_abs_divergence = 0.0;

  uint64_t breaches() const {
    return divergence_breaches + nonfinite_outputs + shadow_errors;
  }
};

/// Health verdict over a canary snapshot.
struct CanaryVerdict {
  bool healthy = false;
  std::string reason;  // Human-readable breach description when unhealthy.
  CanarySnapshot snapshot;
};

/// Pure guardrail judgment: non-finite outputs and shadow errors are
/// always breaches; divergence breaches are tolerated up to
/// max_breach_fraction of shadow scores. With fewer than min_shadow
/// samples the verdict is healthy-by-vacuity (nothing observed).
CanaryVerdict JudgeCanary(const CanarySnapshot& snapshot,
                          const CanaryOptions& options);

/// Deterministic slice membership: hashes (seed, vehicle_id) and admits
/// the vehicle when the resulting uniform [0,1) draw is below `fraction`.
/// Stable across processes so the same vehicles canary on every replica.
bool InCanarySlice(uint64_t seed, double fraction, int64_t vehicle_id);

}  // namespace vup::serve

#endif  // VUPRED_SERVE_GUARDED_PUBLISH_H_
