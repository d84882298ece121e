#ifndef VUPRED_SERVE_GUARDED_PUBLISH_H_
#define VUPRED_SERVE_GUARDED_PUBLISH_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "serve/manifest.h"

namespace vup::serve {

/// Name of the registry pointer file and the rollback journal, both living
/// in the registry root next to the gen_* directories.
inline constexpr char kCurrentFileName[] = "CURRENT";
inline constexpr char kRollbackJournalFileName[] = "ROLLBACK";

/// Reads the one-line CURRENT pointer under `root` and checks that it
/// names a generation. NotFound when no generation has ever been promoted
/// there.
StatusOr<std::string> ReadCurrentPointer(const std::string& root);

/// Checks that root/`generation` is complete: a well-formed name, the
/// directory present (NotFound otherwise), a registry meta and a MANIFEST
/// that both decode (DataLoss otherwise). Returns the manifest, the only
/// definition of what the generation serves. Incomplete generations must
/// never become CURRENT, in either direction.
StatusOr<GenerationManifest> VerifyGenerationComplete(
    const std::string& root, const std::string& generation);

/// The rollback journal: written atomically immediately BEFORE the CURRENT
/// pointer advances, so a crash between the two leaves enough on disk to
/// either roll forward (re-flip CURRENT) or roll back (restore `previous`).
/// Persisted as `ROLLBACK`, a record file (common/record_file.h) under
/// `vupred-rollback v2`:
///
///   promoted gen_000042
///   previous gen_000041      (or `previous none` for a first publish)
struct RollbackJournal {
  std::string promoted;  // Generation CURRENT was advanced to.
  std::string previous;  // Generation CURRENT held before; "" = none.

  std::string Serialize() const;
  static StatusOr<RollbackJournal> Parse(std::string_view bytes);

  friend bool operator==(const RollbackJournal& a, const RollbackJournal& b) {
    return a.promoted == b.promoted && a.previous == b.previous;
  }
};

/// Reads root/ROLLBACK. NotFound when no guarded promotion ever ran.
StatusOr<RollbackJournal> ReadRollbackJournal(const std::string& root);

/// Writes root/ROLLBACK atomically (temp + rename).
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
/// the journal stale), journal.previous must exist and be complete.
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
