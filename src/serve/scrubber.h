#ifndef VUPRED_SERVE_SCRUBBER_H_
#define VUPRED_SERVE_SCRUBBER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/statusor.h"
#include "obs/metrics.h"

namespace vup::serve {

class ModelRegistry;

struct ScrubOptions {
  std::string root;  // Registry root (CURRENT + gen_* dirs).
  /// When set, corruption found in the ACTIVE generation quarantines the
  /// affected vehicle immediately instead of waiting for its next load.
  ModelRegistry* registry = nullptr;
  /// Time source for the scrub schedule; null means Clock::Real().
  const Clock* clock = nullptr;
  int64_t interval_ms = 60'000;  // Scheduled gap between scrubs.
  /// Real-time poll granularity of the background thread. Small so tests
  /// driving a FakeClock see the thread react promptly; the *schedule*
  /// still comes from the injected clock.
  int64_t poll_ms = 5;
};

/// What one scrub pass found.
struct ScrubReport {
  size_t generations_scanned = 0;
  size_t damaged_manifests = 0;  // MANIFEST missing or failed to parse.
  size_t files_checked = 0;
  size_t crc_mismatches = 0;
  size_t size_mismatches = 0;
  size_t missing_files = 0;
  size_t quarantined = 0;  // Active-generation vehicles quarantined.

  size_t corruptions() const {
    return crc_mismatches + size_mismatches + missing_files +
           damaged_manifests;
  }
  bool clean() const { return corruptions() == 0; }

  std::string ToString() const;
};

/// Background integrity scrubber: periodically re-verifies every committed
/// generation's files against its MANIFEST, catching bit-rot between the
/// moment a generation was published and the moment a load would trip over
/// it. Corruption in the active generation quarantines the vehicle through
/// the registry (so serving degrades via the fallback hierarchy instead of
/// scoring rotten bytes); corruption elsewhere is reported and counted but
/// left in place for forensics.
///
/// The schedule runs on an injectable Clock: tests drive Due()/MaybeScrub()
/// with a FakeClock, production uses Start()/Stop() for a real thread.
class RegistryScrubber {
 public:
  explicit RegistryScrubber(ScrubOptions options);
  ~RegistryScrubber();

  RegistryScrubber(const RegistryScrubber&) = delete;
  RegistryScrubber& operator=(const RegistryScrubber&) = delete;

  /// One synchronous scrub pass over every committed generation under the
  /// root. Error only when the root itself is unlistable.
  StatusOr<ScrubReport> ScrubOnce();

  /// True when the schedule calls for a scrub (first call is always due).
  bool Due() const;

  /// ScrubOnce iff Due; returns whether a pass ran. The next pass is due
  /// interval_ms after this one started.
  StatusOr<bool> MaybeScrub();

  /// Starts/stops the background thread (idempotent).
  void Start();
  void Stop();

  /// Report of the most recent completed pass.
  ScrubReport last_report() const;

  /// Completed scrub passes.
  uint64_t runs() const { return runs_.value(); }

  /// Appends the scrubber metric families (vupred_scrub_*) to `out`.
  void CollectMetrics(obs::MetricsSnapshot* out,
                      const obs::LabelSet& labels = {}) const;

 private:
  const Clock& clock() const {
    return options_.clock != nullptr ? *options_.clock : Clock::Real();
  }

  ScrubOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::thread thread_;
  bool schedule_started_ = false;   // next_due_ holds a real deadline.
  Clock::TimePoint next_due_{};
  ScrubReport last_report_;

  obs::Counter runs_;
  obs::Counter files_verified_;
  obs::Counter crc_mismatches_;
  obs::Counter size_mismatches_;
  obs::Counter missing_files_;
  obs::Counter quarantines_;
};

}  // namespace vup::serve

#endif  // VUPRED_SERVE_SCRUBBER_H_
