#ifndef VUPRED_SERVE_MODEL_REGISTRY_H_
#define VUPRED_SERVE_MODEL_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/retry.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "core/forecaster.h"
#include "obs/metrics.h"
#include "serve/manifest.h"

namespace vup::serve {

/// How the training fleet behind a registry was generated, so any consumer
/// can rebuild byte-identical feature windows from the registry directory
/// alone. Persisted as `registry_meta.txt`, a record file
/// (common/record_file.h) under `vupred-registry v2`:
///
///   fleet_seed <n>
///   fleet_vehicles <n>
///   algorithm <word>
struct RegistryMeta {
  uint64_t fleet_seed = 42;
  size_t fleet_vehicles = 40;
  std::string algorithm = "Lasso";

  /// Strict parse of meta bytes: exactly the three records above (any
  /// order, duplicates rejected). Damaged framing, garbage, absurd counts
  /// and over-long tokens are InvalidArgument, never crashes.
  static StatusOr<RegistryMeta> Parse(std::string_view bytes);

  /// Serializes in the format Parse accepts.
  std::string Serialize() const;

  friend bool operator==(const RegistryMeta& a, const RegistryMeta& b) {
    return a.fleet_seed == b.fleet_seed &&
           a.fleet_vehicles == b.fleet_vehicles &&
           a.algorithm == b.algorithm;
  }
};

/// Writes `meta` into `directory` as registry_meta.txt (temp + rename).
Status WriteRegistryMetaFile(const std::string& directory,
                             const RegistryMeta& meta);

/// Reads and parses `directory`/registry_meta.txt. NotFound when the file
/// does not exist.
StatusOr<RegistryMeta> ReadRegistryMetaFile(const std::string& directory);

/// Reads the bundle `entry` lists in `directory`, capped at its listed
/// size, and decodes it in place; the forecaster owns the buffer. NotFound
/// when the file is missing; DataLoss when its size, framing or CRC-32
/// trailer does not match `entry` (the bytes are never scored); the read's
/// error otherwise (Internal for a directory in its place).
StatusOr<VehicleForecaster> LoadListedBundle(const std::string& directory,
                                             const ManifestEntry& entry);

/// Per-vehicle circuit-breaker state exposed in registry stats.
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

std::string_view BreakerStateToString(BreakerState state);

/// Per-shard slice of the registry counters. All integers stay integers
/// end-to-end: these are plain uint64_t tallies guarded by the shard
/// mutex, never round-tripped through double.
struct ModelRegistryShardStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t load_failures = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_short_circuits = 0;
  uint64_t quarantines = 0;
  uint64_t quarantine_blocks = 0;
  uint64_t resident_models = 0;     // Models resident in this shard's LRU.
  uint64_t cache_bytes = 0;         // Resident bytes charged to the budget.
  uint64_t breaker_open_vehicles = 0;
  uint64_t quarantined_models = 0;
};

/// Cache/IO/breaker counters of a ModelRegistry. Counts are cumulative
/// since Open. Every top-level counter is exactly the sum of its
/// per-shard slice (the invariant the shard test suite asserts).
struct ModelRegistryStats {
  uint64_t hits = 0;           // Get served from the resident cache.
  uint64_t misses = 0;         // Get had to load the bundle from disk.
  uint64_t evictions = 0;      // Resident models displaced by the LRU policy.
  uint64_t load_failures = 0;  // Disk loads that returned an error.
  uint64_t breaker_opens = 0;  // closed/half-open -> open transitions.
  uint64_t breaker_short_circuits = 0;  // Gets rejected while a breaker was
                                        // open (no disk touched).
  uint64_t breaker_open_vehicles = 0;   // Breakers currently open/half-open.
  uint64_t reloads = 0;        // Generation swaps performed by Reload().
  uint64_t generation = 0;     // Active generation number (0 = none).
  uint64_t quarantines = 0;    // Models quarantined (manifest mismatch or
                               // explicit Quarantine()).
  uint64_t quarantine_blocks = 0;  // Gets answered NotFound because the
                                   // vehicle's model is quarantined.
  uint64_t quarantined_models = 0; // Currently quarantined vehicle count.
  uint64_t promotes_observed = 0;  // Reloads that moved to a newer generation.
  uint64_t rollbacks_observed = 0; // Reloads that moved to an older one.
  uint64_t resident_models = 0;    // Models resident across all shards.
  uint64_t cache_bytes = 0;        // Resident bytes across all shards.
  /// One slice per shard, indexed by shard number.
  std::vector<ModelRegistryShardStats> shards;
};

class GenerationPublisher;

/// Directory-backed store of per-vehicle model bundles with a bounded LRU
/// cache of resident models, per-vehicle circuit breakers around the
/// disk-load path, and atomically swappable generations. Every bundle is
/// a `vupc v2` compact bundle (ml/compact.h), read into a buffer the model
/// owns and scored in place.
///
/// On-disk layout:
///
///   <registry>/
///     CURRENT -> gen_000003 # symlink naming the active generation
///     ROLLBACK -> "gen_000003 gen_000002"  # journal (guarded_publish.h)
///     gen_000002/           # a complete, immutable published fleet
///       registry_meta.txt
///       MANIFEST
///       vehicle_<id>.cfcst
///     gen_000003/ ...
///
/// `CURRENT` is installed temp link + rename and flipped only after the
/// generation directory (bundles + meta + MANIFEST) is fully on disk, so a
/// publisher killed mid-write can never expose a torn fleet: readers
/// either keep the old complete generation or see the new complete one.
///
/// The MANIFEST is the only definition of what a generation serves: a
/// vehicle is in the fleet when its bundle is listed, and a listed bundle
/// is served only when its bytes match the listed size and trailer. A
/// registry root without `CURRENT` is served as generation 0 from its own
/// MANIFEST (the canary drill opens a finalized generation this way); with
/// no MANIFEST either, it serves nothing.
///
/// Circuit breaker: consecutive load *failures* (IO errors -- NotFound
/// and quarantine are not failures) trip a per-vehicle breaker after
/// `failure_threshold`; while open, Get fails fast with `Unavailable`
/// instead of re-reading a bundle known to be bad. After a seeded,
/// jittered exponential backoff (schedule from common/retry.h) the
/// breaker half-opens and admits one probe load: success closes it,
/// failure re-opens it with the next backoff step.
///
/// All methods are thread-safe. Get returns a shared_ptr so a model stays
/// valid for in-flight scoring even when the LRU policy evicts it or a
/// Reload swaps the whole generation concurrently.
class ModelRegistry {
 public:
  struct BreakerOptions {
    /// Consecutive load failures before the breaker opens (>= 1).
    int failure_threshold = 3;
    /// Backoff schedule for the open state, reusing the retry vocabulary:
    /// open period k is min(initial * multiplier^(k-1), max), jittered.
    RetryOptions backoff = {.max_attempts = 1,
                            .initial_backoff_ms = 1000,
                            .backoff_multiplier = 2.0,
                            .max_backoff_ms = 60'000,
                            .retryable = {}};
    /// Each open period is scaled by a factor uniform in
    /// [1 - jitter_fraction, 1 + jitter_fraction], derived
    /// deterministically from (jitter_seed, vehicle_id, open count) so
    /// same-seed runs reproduce the exact schedule.
    double jitter_fraction = 0.1;
    uint64_t jitter_seed = 42;
  };

  struct Options {
    Options() = default;
    Options(std::string directory_in, size_t cache_capacity_in)
        : directory(std::move(directory_in)),
          cache_capacity(cache_capacity_in) {}

    std::string directory;
    /// Total resident-model count bound across all shards (0 disables
    /// caching entirely). Split evenly per shard, rounded up.
    size_t cache_capacity = 64;
    /// Total resident-byte budget across all shards (0 = unbounded).
    /// Split evenly per shard; a model whose ResidentBytes() exceeds its
    /// shard's slice is served but never cached. A compact model is
    /// charged its whole bundle, which it owns and scores in place.
    size_t cache_max_bytes = 0;
    /// Lock/LRU/breaker shards (>= 1). Vehicles route by SplitMix64 of
    /// their id, so same-fleet runs shard identically.
    size_t shards = 1;
    /// Ignored: compact bundles are the only format, and every registry
    /// serves them. Kept so existing callers still compile.
    bool prefer_compact = false;
    /// Time source for breaker transitions; null means Clock::Real().
    const Clock* clock = nullptr;
    BreakerOptions breaker;
  };

  /// Opens (and creates, if missing) the registry directory, resolving
  /// `CURRENT` to the active generation (the root's own MANIFEST when
  /// absent). DataLoss when that generation is incomplete.
  static StatusOr<ModelRegistry> Open(Options options);

  ModelRegistry(ModelRegistry&&) noexcept = default;
  ModelRegistry& operator=(ModelRegistry&&) noexcept = default;

  /// Starts a new generation staged invisibly next to the active one;
  /// `Commit` makes it the fleet `CURRENT` points at. Concurrent readers
  /// of this registry are unaffected until Reload(). The generation number
  /// is reserved by an exclusive mkdir of its staging directory, so
  /// publishers on different threads (or processes) never share one.
  StatusOr<GenerationPublisher> NewGeneration();

  /// Re-resolves `CURRENT` and atomically swaps the active generation if
  /// it changed: the cache and breakers reset, in-flight shared_ptr
  /// models stay valid. On any error (missing/garbage CURRENT, torn or
  /// incomplete generation) the old generation stays active.
  Status Reload();

  /// Deletes non-active generation directories, keeping the newest
  /// `keep` of them (0 keeps none but the active one). Generations the
  /// rollback journal still points at (promoted or previous) are never
  /// deleted, whatever `keep` says -- pruning the rollback target would
  /// turn the journal into a loaded footgun. A journal that cannot be read
  /// (NotFound aside) fails the prune before anything is deleted.
  Status PruneGenerations(size_t keep);

  /// Undoes the last journaled promotion (guarded_publish.h) and reloads,
  /// so this registry serves the restored generation immediately.
  Status Rollback();

  /// The model of `vehicle_id`, from cache or disk. NotFound when the
  /// active MANIFEST does not list its bundle (no disk IO), when the listed
  /// file is missing, OR when the model is quarantined (so callers degrade
  /// through the same fallback chain either way); the read's error
  /// (Internal) when the listed file cannot be read; Unavailable (fast, no
  /// disk IO) while the vehicle's breaker is open.
  ///
  /// Every disk load is verified against the MANIFEST: a size or trailer
  /// mismatch quarantines the model (never decoded, never scored) and
  /// returns NotFound, and so does a listed bundle the decoder rejects (a
  /// `vupc v1` bundle among them). Quarantine does not touch the circuit
  /// breaker -- corruption is a publisher/disk fault, not a load-path
  /// fault, and burning breaker probes on it would delay recovery after
  /// the generation is repaired.
  StatusOr<std::shared_ptr<const VehicleForecaster>> Get(int64_t vehicle_id);

  /// Marks the model of `vehicle_id` as unservable (drops any resident
  /// copy). Used by the scrubber when a background re-verify catches
  /// bit-rot before any Get does.
  void Quarantine(int64_t vehicle_id);

  bool IsQuarantined(int64_t vehicle_id) const;

  /// Meta of the active generation.
  StatusOr<RegistryMeta> ReadMeta() const;

  /// True when the active MANIFEST lists the vehicle's bundle (touches
  /// neither the disk nor the cache).
  bool Contains(int64_t vehicle_id) const;

  /// Vehicle ids whose bundle the active MANIFEST lists, ascending.
  std::vector<int64_t> ListVehicleIds() const;

  /// Number of models currently resident in the cache (all shards).
  size_t resident_models() const;

  /// Resident bytes currently charged against the cache budget.
  size_t resident_bytes() const;

  /// Number of lock/LRU/breaker shards this registry runs with.
  size_t num_shards() const { return shards_.size(); }

  /// Shard a vehicle routes to: SplitMix64(id) % num_shards. Exposed so
  /// tests and benches can aim traffic at specific shards.
  size_t ShardIndexForVehicle(int64_t vehicle_id) const;

  /// Breaker state of one vehicle (kClosed when never tripped).
  BreakerState breaker_state(int64_t vehicle_id) const;

  /// The jittered open period before half-open probe `open_count` (1-based)
  /// of `vehicle_id` -- deterministic in (jitter_seed, vehicle, count).
  int64_t BreakerBackoffMs(int64_t vehicle_id, int open_count) const;

  ModelRegistryStats stats() const;

  /// Appends the registry metric families (vupred_registry_*) to `out`,
  /// every sample tagged with `labels`. One locked read, so the export is
  /// as consistent as stats().
  void CollectMetrics(obs::MetricsSnapshot* out,
                      const obs::LabelSet& labels = {}) const;

  uint64_t active_generation() const;

  const std::string& directory() const { return options_.directory; }

  /// The bundle file of a vehicle: "vehicle_<id>.cfcst".
  static std::string BundleFileName(int64_t vehicle_id);
  /// Same as BundleFileName; kept so existing callers still compile.
  static std::string CompactBundleFileName(int64_t vehicle_id) {
    return BundleFileName(vehicle_id);
  }
  /// Bundle path inside the active generation.
  std::string BundlePath(int64_t vehicle_id) const;

  /// Inverse of BundleFileName: "vehicle_<id>.cfcst" -> id, nullopt for
  /// anything else (meta, manifest, tmp leftovers, and the text bundles
  /// of generations published before compact-only generations).
  static std::optional<int64_t> ParseBundleFileName(std::string_view name);

  static std::string GenerationDirName(uint64_t number);
  /// Inverse of GenerationDirName: "gen_NNNNNN" -> its number (> 0),
  /// InvalidArgument for anything else.
  static StatusOr<uint64_t> ParseGenerationName(std::string_view name);

 private:
  friend class GenerationPublisher;

  struct Breaker {
    int consecutive_failures = 0;
    BreakerState state = BreakerState::kClosed;
    int open_count = 0;             // Times this breaker has opened.
    Clock::TimePoint open_until{};  // End of the current open period.
  };

  struct ActiveGeneration {
    std::string dir;
    uint64_t number = 0;
    /// What the generation serves: a bundle it does not list is not part
    /// of it.
    GenerationManifest manifest;
  };

  /// One lock domain of the registry: its own mutex, LRU (with per-entry
  /// byte accounting), breaker map, quarantine set and counters. A
  /// vehicle's entire serving state lives in exactly one shard, so two
  /// Gets for vehicles in different shards never contend.
  ///
  /// Lock ordering: a shard's mutex is always taken BEFORE active_mu_
  /// (Get holds its shard while the load path peeks at the active
  /// generation), and Reload takes every shard mutex in ascending index
  /// order before active_mu_ -- one global order, no deadlock, and a
  /// generation swap that a Get observes is always complete (torn-free
  /// per shard).
  struct Shard {
    struct LruEntry {
      int64_t vehicle_id = 0;
      std::shared_ptr<const VehicleForecaster> model;
      size_t bytes = 0;  // ResidentBytes() charged at insert time.
    };

    mutable std::mutex mu;
    std::list<LruEntry> lru;  // Most recently used at the front.
    std::unordered_map<int64_t, std::list<LruEntry>::iterator> index;
    std::unordered_map<int64_t, Breaker> breakers;
    /// Vehicles whose model failed manifest verification (or were flagged
    /// by the scrubber). Cleared on a generation swap: the new fleet's
    /// bundles get verified on their own merits.
    std::unordered_set<int64_t> quarantined;
    size_t resident_bytes = 0;

    // Plain integer counters, guarded by mu -- never doubles.
    ModelRegistryShardStats counters;
  };

  explicit ModelRegistry(Options options, ActiveGeneration active);

  const Clock& clock() const {
    return options_.clock != nullptr ? *options_.clock : Clock::Real();
  }

  /// Resolves CURRENT under `root` and checks the generation is complete
  /// (VerifyGenerationComplete). Without CURRENT the root itself is
  /// generation 0, serving what its MANIFEST lists -- nothing when there
  /// is none.
  static StatusOr<ActiveGeneration> ResolveActive(const std::string& root);

  Shard& ShardForVehicle(int64_t vehicle_id) const;

  /// Reads the listed bundle of `vehicle_id` from the active generation
  /// into a buffer it owns, capped at its listed size, and decodes it in
  /// place over that buffer. NotFound, with no disk access, when the
  /// MANIFEST does not list it; a size, decode or trailer mismatch
  /// quarantines the vehicle and returns NotFound. Caller holds the
  /// vehicle's shard mutex; this takes active_mu_ inside (see Shard's lock
  /// ordering).
  StatusOr<std::shared_ptr<const VehicleForecaster>> LoadVerifiedLocked(
      Shard& shard, int64_t vehicle_id);

  /// Breaker bookkeeping after a failed (non-NotFound) load. Caller holds
  /// the shard mutex.
  void RecordLoadFailureLocked(Shard& shard, int64_t vehicle_id);

  /// Breakers currently open or half-open. Caller holds the shard mutex.
  static size_t OpenBreakersLocked(const Shard& shard);

  /// Assembles the stats struct. Caller holds ALL shard mutexes and
  /// active_mu_.
  ModelRegistryStats StatsAllLocked() const;

  Options options_;
  /// Per-shard count / byte slices of the totals in options_.
  size_t shard_capacity_ = 0;
  size_t shard_max_bytes_ = 0;

  /// Guards active_ and the registry-level counters below. unique_ptr so
  /// the registry stays movable (mutexes are not).
  std::unique_ptr<std::mutex> active_mu_ = std::make_unique<std::mutex>();
  ActiveGeneration active_;
  uint64_t reloads_ = 0;
  uint64_t promotes_observed_ = 0;
  uint64_t rollbacks_observed_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Bundle writers of every publisher of this registry, created at the
  /// first NewGeneration; a publisher holds it until it is released.
  /// Guarded by active_mu_.
  std::shared_ptr<ThreadPool> writers_;
};

/// Stages one new generation: bundles are added into a hidden staging
/// directory; Finalize writes the meta + integrity MANIFEST and renames
/// the staging directory to its final `gen_NNNNNN` name (still invisible
/// to readers); Promote journals the step and atomically flips `CURRENT`.
/// Commit = Finalize + Promote. The split exists so a publish gate
/// (GenerationValidator, canary drill) can inspect the complete,
/// checksummed generation BEFORE any reader can be pointed at it.
///
/// Add is write-behind: it snapshots the trained pipeline and queues the
/// bundle write on the registry's writer pool, which every publisher of
/// the registry shares. Each publisher counts its own queued writes and
/// keeps its own first error. Every point that reads the staging
/// directory (staging_dir, Finalize, a re-Add of a still-queued id) waits
/// for this publisher's writes first, and so does the destructor before it
/// removes the staging directory.
///
/// A publisher destroyed without Finalize removes its staging directory;
/// one destroyed after Finalize but without Promote leaves the complete
/// generation on disk un-promoted (prunable, never served). A publisher
/// *killed* at any step leaves either an ignored staging directory or an
/// un-promoted generation behind -- never a torn active fleet.
///
/// Not thread-safe: one thread drives a publisher. Publishers of one
/// registry may run on different threads.
class GenerationPublisher {
 public:
  /// Moves carry everything, queued writes included. Assigning over a
  /// publisher first releases its generation as its destructor would.
  GenerationPublisher(GenerationPublisher&& other) noexcept;
  GenerationPublisher& operator=(GenerationPublisher&& other) noexcept;
  ~GenerationPublisher();

  /// Ignored: Add always stages the compact bundle, the only format. Kept
  /// so existing callers still compile.
  void set_emit_compact(bool /*emit*/) {}

  /// Stages the compact bundle of `vehicle_id`. Checks run here, with
  /// Save's statuses: FailedPrecondition after Finalize or for an
  /// untrained forecaster, Unimplemented for a baseline. The bundle is
  /// then written behind from a deep snapshot, so the caller may retrain
  /// or destroy `forecaster` as soon as this returns; open and write
  /// failures surface at Finalize. Blocks while the writers' queue is
  /// full. A later Add or AddPrebuilt of the same id replaces this one.
  Status Add(int64_t vehicle_id, const VehicleForecaster& forecaster);

  /// Writes pre-serialized compact bundle bytes for `vehicle_id` -- the
  /// fast path for synthetic registries (serve_rss_ceiling_test and
  /// perfbench replicate one trained template across up to 10^5
  /// vehicle ids without re-serializing each). `text_bytes` is ignored and kept so existing
  /// callers still compile; empty `compact_bytes` is InvalidArgument.
  /// Synchronous: errors return here.
  Status AddPrebuilt(int64_t vehicle_id, std::string_view text_bytes,
                     std::string_view compact_bytes = {});

  /// Completes the staged generation: waits for the writers and returns
  /// the first error of any queued Add (the generation is then left
  /// staged, never renamed), then meta, MANIFEST (size + CRC-32 trailer of
  /// every staged file), rename to the final gen_NNNNNN name. Readers are
  /// unaffected; CURRENT does not move.
  ///
  /// The MANIFEST is sealed from what this publisher wrote: every bundle
  /// written by Add or AddPrebuilt and the meta keep the entry of the
  /// bytes written, and a file still at its recorded size is listed
  /// unread. Any other file (clusters.meta, anything foreign, a recorded
  /// file whose size changed) is read and must pass its own CRC-32
  /// trailer (DataLoss otherwise). Once staging_dir() has handed the
  /// staging directory out, no recorded entry is trusted and every file
  /// is read back: the caller may have rewritten one at the same size.
  Status Finalize(const RegistryMeta& meta);

  /// Journals and flips CURRENT to the finalized generation
  /// (FailedPrecondition before Finalize). Readers pick the new fleet up
  /// via ModelRegistry::Reload; Rollback can undo it.
  Status Promote();

  /// Finalize + Promote in one step. The publisher is spent afterwards.
  Status Commit(const RegistryMeta& meta);

  /// Number this generation will publish as.
  uint64_t number() const { return number_; }

  /// Before Finalize: the hidden staging directory. After: the final
  /// generation directory. Waits for queued writes first, so every
  /// bundle staged so far is on disk when the caller reads the directory
  /// (a failed write is reported by Finalize, not here). Called before
  /// Finalize, it makes Finalize read back every staged file.
  const std::string& staging_dir() const;

 private:
  friend class ModelRegistry;

  GenerationPublisher(std::string root, uint64_t number,
                      std::string staging_dir,
                      std::shared_ptr<ThreadPool> writers)
      : root_(std::move(root)),
        number_(number),
        staging_dir_(std::move(staging_dir)),
        writers_(std::move(writers)) {}

  /// Blocks until every write this publisher queued has finished; returns
  /// the first writer error of this publisher's lifetime (OK if none).
  /// Other publishers' writes on the shared pool are not waited for.
  Status DrainWriters() const;

  /// The destructor's work: wait for this publisher's queued writes, then
  /// remove the staging directory unless finalized. No-op when moved from.
  void Release();

  std::string root_;
  uint64_t number_ = 0;
  std::string staging_dir_;
  bool finalized_ = false;
  bool committed_ = false;
  bool moved_from_ = false;
  /// Write-behind bundle writers, shared with every publisher of the
  /// registry.
  std::shared_ptr<ThreadPool> writers_;
  /// Ids queued on writers_ since the last drain.
  mutable std::unordered_set<int64_t> pending_ids_;

  /// What this publisher's writer tasks report back: the manifest entries
  /// of the files it wrote, taken from the bytes it held, and the count
  /// and first error of its queued writes. Writer tasks update it, hence
  /// the mutex; held on the heap so the tasks' pointer survives a move of
  /// the publisher.
  struct WrittenFiles {
    /// Drops the entry of `file` before it is rewritten, so a failed
    /// write leaves the file to Finalize's read-back.
    void Forget(const std::string& file);
    void Record(ManifestEntry entry);
    /// Counts a write about to be queued.
    void Queue();
    /// A queued write finished with `status`; the first error sticks.
    void Done(Status status);
    /// Blocks until no write is queued; returns the first error.
    Status Wait();

    std::mutex mu;
    std::condition_variable idle;  // queued dropped to 0.
    size_t queued = 0;
    Status first_error;
    GenerationManifest::KnownEntries entries;
  };
  std::unique_ptr<WrittenFiles> written_ = std::make_unique<WrittenFiles>();
  /// Set when staging_dir() hands the staging directory out before
  /// Finalize: from then on written_ is not trusted.
  mutable bool staging_handed_out_ = false;
};

}  // namespace vup::serve

#endif  // VUPRED_SERVE_MODEL_REGISTRY_H_
