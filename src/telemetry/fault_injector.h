#ifndef VUPRED_TELEMETRY_FAULT_INJECTOR_H_
#define VUPRED_TELEMETRY_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "telemetry/usage_model.h"

namespace vup {

/// Rates of the fault classes real fleet telemetry exhibits (connectivity
/// gaps, duplicate re-deliveries after recovery, clock skew on devices,
/// corrupt sensor fields) plus control-plane failures (report source down,
/// training backend crashing). All rates default to 0 = no faults; each
/// class is independently configurable.
struct FaultProfile {
  // ---- Data-stream corruption -------------------------------------------
  /// P(a day loses some of its 10-minute slot reports): a partial-day
  /// undercount, the day keeps a random fraction of its hours.
  double slot_drop_prob = 0.0;
  /// P(the whole day's reports are lost) per calendar day.
  double day_gap_prob = 0.0;
  /// P(a report is re-delivered) — a storm of 1..max_duplicates copies is
  /// appended right after the original.
  double duplicate_prob = 0.0;
  int max_duplicates = 3;
  /// P(a report is delivered out of order): it is swapped up to
  /// max_reorder_distance positions away.
  double reorder_prob = 0.0;
  int max_reorder_distance = 12;
  /// P(a report's date is skewed by ±1..max_skew_days) — device clock
  /// drift, so the report lands on the wrong day.
  double clock_skew_prob = 0.0;
  int max_skew_days = 2;
  /// P(one field of a report is corrupted to NaN/inf or an out-of-physical
  /// range value).
  double field_corrupt_prob = 0.0;

  // ---- Control-plane failures -------------------------------------------
  /// P(a vehicle's report source is flaky): its first 1..max_source_failures
  /// fetch attempts fail with DataLoss. Exceeding the retry budget means the
  /// vehicle cannot be prepared at all.
  double source_failure_prob = 0.0;
  int max_source_failures = 1;
  /// P(a vehicle's ML training backend is flaky): its first
  /// 1..max_training_failures training attempts fail with Internal.
  double training_failure_prob = 0.0;
  int max_training_failures = 1;

  // ---- On-disk corruption (bit-rot) -------------------------------------
  /// P(a stored artifact is corrupted on disk) per CorruptFileOnDisk call.
  /// The corruption kind (bit flips, truncation, zero-fill) is drawn
  /// uniformly; this models silent media rot and torn writes under model
  /// registries, the class the MANIFEST checks are built to catch.
  double file_corrupt_prob = 0.0;
  int max_file_bit_flips = 8;  // Bit-flip kind flips 1..this many bits.

  /// Any data-stream corruption class enabled?
  bool AnyStreamFaults() const;
  /// Any class at all enabled?
  bool AnyFaults() const;
  /// Stable hash of every rate/knob, for cache invalidation.
  uint64_t Fingerprint() const;

  static FaultProfile None() { return FaultProfile{}; }
  /// Light corruption: occasional gaps, duplicates and skew; recoverable
  /// control-plane blips.
  static FaultProfile Mild();
  /// Heavy corruption on every class; source/training outages that can
  /// exhaust default retry budgets.
  static FaultProfile Severe();
  /// Certain on-disk corruption, nothing else: every CorruptFileOnDisk
  /// call damages its file. The chaos suites use this to make bit-rot
  /// deterministic instead of probabilistic.
  static FaultProfile BitRot();
};

/// What the injector did to one stream, for reconciliation in tests.
struct FaultInjectionStats {
  size_t records_in = 0;
  size_t records_out = 0;
  size_t days_dropped = 0;        // Whole-day gaps.
  size_t partial_days = 0;        // Daily-level undercounts (slot loss).
  size_t duplicates_injected = 0;
  size_t reports_reordered = 0;
  size_t dates_skewed = 0;
  size_t fields_corrupted = 0;

  std::string ToString() const;
};

/// How CorruptFileOnDisk damaged a file (kNone = the Bernoulli draw spared
/// it).
enum class FileCorruptionKind {
  kNone = 0,
  kBitFlip = 1,   // 1..max_file_bit_flips random bits inverted.
  kTruncate = 2,  // File cut to 10-90% of its length.
  kZeroFill = 3,  // A contiguous range overwritten with zeros.
};

std::string_view FileCorruptionKindToString(FileCorruptionKind kind);

/// What CorruptFileOnDisk did across calls, for reconciliation in tests.
struct FileCorruptionStats {
  size_t files_seen = 0;
  size_t files_corrupted = 0;
  size_t bits_flipped = 0;
  size_t bytes_truncated = 0;
  size_t bytes_zeroed = 0;

  std::string ToString() const;
};

/// Deterministic telemetry fault-injection harness: transforms a clean
/// daily-record stream into a corrupted one. Every decision is
/// derived from (seed, profile, stream_tag), so the same inputs always
/// produce a byte-identical corrupted stream — chaos tests are exactly
/// reproducible. The injector is stateless and const; it can be shared
/// across threads and queried repeatedly with identical results.
class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, uint64_t seed);

  /// Corrupts a daily-record stream with the fault classes at daily
  /// granularity. `stream_tag` decorrelates streams (use the vehicle id);
  /// the same tag always draws the same faults.
  std::vector<DailyUsageRecord> CorruptDaily(
      std::vector<DailyUsageRecord> days, uint64_t stream_tag,
      FaultInjectionStats* stats = nullptr) const;

  /// Number of leading fetch attempts that fail for this entity
  /// (0 = healthy source). Deterministic in (seed, profile, tag).
  int SourceFailuresFor(uint64_t entity_tag) const;

  /// Number of leading training attempts that fail for this entity.
  int TrainingFailuresFor(uint64_t entity_tag) const;

  /// Corrupts the file at `path` in place, deterministically in (seed,
  /// profile, file_tag): the Bernoulli(file_corrupt_prob) draw decides
  /// whether to touch it at all, then the kind and damage sites are drawn
  /// from the same stream. Returns the kind applied (kNone when spared).
  /// NotFound when the file does not exist; a spared file is untouched
  /// byte-for-byte. An empty file can only be spared or zero-length
  /// truncated, so it degrades to kNone.
  StatusOr<FileCorruptionKind> CorruptFileOnDisk(
      const std::string& path, uint64_t file_tag,
      FileCorruptionStats* stats = nullptr) const;

  const FaultProfile& profile() const { return profile_; }
  uint64_t seed() const { return seed_; }

 private:
  FaultProfile profile_;
  uint64_t seed_;
};

}  // namespace vup

#endif  // VUPRED_TELEMETRY_FAULT_INJECTOR_H_
