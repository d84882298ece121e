#include "serve/model_registry.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <system_error>
#include <thread>

#include "common/crc32.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/record_file.h"
#include "common/string_util.h"
#include "ml/compact.h"
#include "serve/guarded_publish.h"

namespace vup::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kBundleSuffix = ".cfcst";
constexpr const char* kBundlePrefix = "vehicle_";
constexpr const char* kGenerationPrefix = "gen_";
constexpr const char* kMetaFile = "registry_meta.txt";
constexpr const char* kMetaMagic = "vupred-registry v2";
// Sanity caps for the meta file: a fleet size or token far beyond these is
// garbage, not configuration.
constexpr long long kMaxMetaVehicles = 100'000'000;
constexpr size_t kMaxMetaTokenLength = 128;
constexpr size_t kMaxMetaBytes = 64 * 1024;

/// Creates (truncates) `path` and writes `bytes` into it.
Status WriteBundleFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return Status::Internal("cannot open bundle for writing: " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::DataLoss("bundle write failed: " + path);
  return Status::OK();
}

/// Largest generation number present under `root` (committed or staging),
/// 0 when none.
uint64_t MaxGenerationNumber(const std::string& root) {
  uint64_t max_number = 0;
  std::error_code ec;
  fs::directory_iterator it(root, ec);
  if (ec) return 0;
  for (const fs::directory_entry& entry : it) {
    const std::string file = entry.path().filename().string();
    std::string_view name = file;
    // Strip a ".staging" suffix so abandoned stagings still reserve their
    // number.
    if (EndsWith(name, ".staging")) name.remove_suffix(8);
    StatusOr<uint64_t> number = ModelRegistry::ParseGenerationName(name);
    if (number.ok()) max_number = std::max(max_number, number.value());
  }
  return max_number;
}

}  // namespace

// ---- RegistryMeta ------------------------------------------------------

namespace {

StatusOr<RegistryMeta> MetaFromRecords(
    const std::vector<RecordLine>& records) {
  RegistryMeta meta;
  std::set<std::string> seen;
  for (const RecordLine& record : records) {
    if (record.values.size() != 1 ||
        record.values[0].size() > kMaxMetaTokenLength) {
      return Status::InvalidArgument("malformed meta record: " + record.key);
    }
    if (!seen.insert(record.key).second) {
      return Status::InvalidArgument("duplicate meta key: " + record.key);
    }
    const std::string& value = record.values[0];
    if (record.key == "fleet_seed") {
      VUP_ASSIGN_OR_RETURN(long long v, ParseInt(value));
      if (v < 0) {
        return Status::InvalidArgument("fleet_seed out of range: " + value);
      }
      meta.fleet_seed = static_cast<uint64_t>(v);
    } else if (record.key == "fleet_vehicles") {
      VUP_ASSIGN_OR_RETURN(long long v, ParseInt(value));
      if (v <= 0 || v > kMaxMetaVehicles) {
        return Status::InvalidArgument("fleet_vehicles out of range: " +
                                       value);
      }
      meta.fleet_vehicles = static_cast<size_t>(v);
    } else if (record.key == "algorithm") {
      for (char c : value) {
        const bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!word) {
          return Status::InvalidArgument("algorithm is not a word: " + value);
        }
      }
      meta.algorithm = value;
    } else {
      return Status::InvalidArgument("unknown meta key: " + record.key);
    }
  }
  if (seen.size() != 3) {
    return Status::InvalidArgument("meta file is missing a required key");
  }
  return meta;
}

std::vector<RecordLine> MetaToRecords(const RegistryMeta& meta) {
  return {{"fleet_seed", {std::to_string(meta.fleet_seed)}},
          {"fleet_vehicles", {std::to_string(meta.fleet_vehicles)}},
          {"algorithm", {meta.algorithm}}};
}

}  // namespace

StatusOr<RegistryMeta> RegistryMeta::Parse(std::string_view bytes) {
  VUP_ASSIGN_OR_RETURN(std::vector<RecordLine> records,
                       DecodeRecords(kMetaMagic, bytes));
  return MetaFromRecords(records);
}

std::string RegistryMeta::Serialize() const {
  return EncodeRecords(kMetaMagic, MetaToRecords(*this));
}

Status WriteRegistryMetaFile(const std::string& directory,
                             const RegistryMeta& meta) {
  return WriteRecordFile(directory + "/" + kMetaFile, kMetaMagic,
                         MetaToRecords(meta));
}

StatusOr<RegistryMeta> ReadRegistryMetaFile(const std::string& directory) {
  VUP_ASSIGN_OR_RETURN(std::vector<RecordLine> records,
                       ReadRecordFile(directory + "/" + kMetaFile, kMetaMagic,
                                      kMaxMetaBytes));
  return MetaFromRecords(records);
}

StatusOr<VehicleForecaster> LoadListedBundle(const std::string& directory,
                                             const ManifestEntry& entry) {
  // Read capped at the listed size, so a grown file is a mismatch found by
  // its stat, never read.
  VUP_ASSIGN_OR_RETURN(std::string bytes,
                       ReadFileCapped(directory + "/" + entry.file,
                                      entry.size));
  if (bytes.size() != entry.size) {
    return Status::DataLoss(StrFormat(
        "%s: size %zu does not match manifest (%llu bytes)",
        entry.file.c_str(), bytes.size(),
        static_cast<unsigned long long>(entry.size)));
  }
  // The decoder makes the one CRC pass: it checks the bundle's own trailer
  // before it trusts any structural field, so corrupt bytes are never
  // scored. A bundle that fails its own framing is corruption (or a bundle
  // this build cannot read).
  const uint32_t trailer =
      bytes.size() >= kCrc32TrailerBytes
          ? StoredCrc32Trailer(bytes.data(), bytes.size())
          : 0;
  StatusOr<VehicleForecaster> forecaster =
      VehicleForecaster::LoadCompact(std::move(bytes));
  if (!forecaster.ok()) {
    return Status::DataLoss(std::string(forecaster.status().message()));
  }
  // The decoder checked the trailer, so comparing it with the manifest's
  // needs no second pass. It differs from bundle to bundle, so a valid
  // bundle copied over another vehicle's of the same size is caught here.
  if (entry.crc32 != trailer) {
    return Status::DataLoss(
        StrFormat("%s: crc32 %u does not match manifest (%u)",
                  entry.file.c_str(), trailer, entry.crc32));
  }
  return forecaster;
}

std::string_view BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

// ---- ModelRegistry -----------------------------------------------------

std::string ModelRegistry::BundleFileName(int64_t vehicle_id) {
  return StrFormat("%s%lld%s", kBundlePrefix,
                   static_cast<long long>(vehicle_id), kBundleSuffix);
}

std::optional<int64_t> ModelRegistry::ParseBundleFileName(
    std::string_view name) {
  const size_t prefix_len = std::string_view(kBundlePrefix).size();
  const size_t suffix_len = std::string_view(kBundleSuffix).size();
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  if (!StartsWith(name, kBundlePrefix) || !EndsWith(name, kBundleSuffix)) {
    return std::nullopt;
  }
  std::string_view digits = name;
  digits.remove_prefix(prefix_len);
  digits.remove_suffix(suffix_len);
  StatusOr<long long> id = ParseInt(digits);
  if (!id.ok()) return std::nullopt;
  return static_cast<int64_t>(id.value());
}

std::string ModelRegistry::GenerationDirName(uint64_t number) {
  return StrFormat("%s%06llu", kGenerationPrefix,
                   static_cast<unsigned long long>(number));
}

StatusOr<uint64_t> ModelRegistry::ParseGenerationName(std::string_view name) {
  const std::string_view digits =
      StartsWith(name, kGenerationPrefix)
          ? name.substr(std::string_view(kGenerationPrefix).size())
          : std::string_view();
  // 1 to 18 digits, not all zero: a positive number that fits a long long.
  if (digits.empty() || digits.size() > 18 ||
      digits.find_first_not_of("0123456789") != std::string_view::npos ||
      digits.find_first_not_of('0') == std::string_view::npos) {
    return Status::InvalidArgument("not a generation name: " +
                                   std::string(name));
  }
  return static_cast<uint64_t>(ParseInt(digits).value());
}

std::string ModelRegistry::BundlePath(int64_t vehicle_id) const {
  std::lock_guard<std::mutex> lock(*active_mu_);
  return active_.dir + "/" + BundleFileName(vehicle_id);
}

ModelRegistry::ModelRegistry(Options options, ActiveGeneration active)
    : options_(std::move(options)), active_(std::move(active)) {
  const size_t shards = std::max<size_t>(1, options_.shards);
  // Even slices of the registry-wide budgets, rounded up so the total is
  // never silently under the configured bound by more than rounding.
  shard_capacity_ = options_.cache_capacity == 0
                        ? 0
                        : (options_.cache_capacity + shards - 1) / shards;
  shard_max_bytes_ = options_.cache_max_bytes == 0
                         ? 0
                         : std::max<size_t>(
                               1, (options_.cache_max_bytes + shards - 1) /
                                      shards);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ModelRegistry::ShardIndexForVehicle(int64_t vehicle_id) const {
  return static_cast<size_t>(
      SplitMix64(static_cast<uint64_t>(vehicle_id)) % shards_.size());
}

ModelRegistry::Shard& ModelRegistry::ShardForVehicle(
    int64_t vehicle_id) const {
  return *shards_[ShardIndexForVehicle(vehicle_id)];
}

StatusOr<ModelRegistry::ActiveGeneration> ModelRegistry::ResolveActive(
    const std::string& root) {
  StatusOr<std::string> name = ReadCurrentPointer(root);
  if (name.status().IsNotFound()) {
    // No generation was ever promoted here: the root serves what its own
    // MANIFEST lists (the canary drill opens a finalized gen_NNNNNN
    // directory this way), and nothing without one -- bundles lying under
    // the root are never read.
    StatusOr<GenerationManifest> manifest = ReadManifestFile(root);
    if (manifest.status().IsNotFound()) return ActiveGeneration{root, 0, {}};
    if (!manifest.ok()) {
      return Status::DataLoss("registry manifest is damaged: " +
                              manifest.status().ToString());
    }
    return ActiveGeneration{root, 0, std::move(manifest).value()};
  }
  VUP_RETURN_IF_ERROR(name.status());
  // A torn or incomplete generation is refused whole rather than trusting
  // any part of it.
  VUP_ASSIGN_OR_RETURN(GenerationManifest manifest,
                       VerifyGenerationComplete(root, name.value()));
  return ActiveGeneration{root + "/" + name.value(),
                          ParseGenerationName(name.value()).value(),
                          std::move(manifest)};
}

StatusOr<ModelRegistry> ModelRegistry::Open(Options options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("registry directory must not be empty");
  }
  if (options.breaker.failure_threshold < 1) {
    return Status::InvalidArgument("breaker failure_threshold must be >= 1");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("registry needs >= 1 shard");
  }
  if (options.shards > 4096) {
    return Status::InvalidArgument("registry shard count implausibly large");
  }
  std::error_code ec;
  fs::create_directories(options.directory, ec);
  if (ec) {
    return Status::Internal("cannot create registry directory '" +
                            options.directory + "': " + ec.message());
  }
  if (!fs::is_directory(options.directory, ec) || ec) {
    return Status::InvalidArgument("registry path is not a directory: " +
                                   options.directory);
  }
  VUP_ASSIGN_OR_RETURN(ActiveGeneration active,
                       ResolveActive(options.directory));
  return ModelRegistry(std::move(options), std::move(active));
}

Status ModelRegistry::Reload() {
  VUP_ASSIGN_OR_RETURN(ActiveGeneration resolved,
                       ResolveActive(options_.directory));
  // Take every shard (ascending index) before active_mu_ -- the global
  // lock order -- so the swap is atomic against every in-flight Get: a
  // reader either ran entirely against the old generation or starts after
  // the caches are clear. Torn-free per shard.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard_locks.emplace_back(shard->mu);
  }
  std::lock_guard<std::mutex> lock(*active_mu_);
  if (resolved.dir == active_.dir) return Status::OK();
  // Swap the active generation: resident models, breaker states and
  // quarantine verdicts belong to the outgoing fleet. In-flight shared_ptr
  // models stay valid until their holders drop them.
  if (resolved.number > active_.number) {
    ++promotes_observed_;
  } else if (resolved.number < active_.number) {
    ++rollbacks_observed_;
  }
  active_ = std::move(resolved);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->lru.clear();
    shard->index.clear();
    shard->breakers.clear();
    shard->quarantined.clear();
    shard->resident_bytes = 0;
  }
  ++reloads_;
  return Status::OK();
}

StatusOr<GenerationPublisher> ModelRegistry::NewGeneration() {
  // The exclusive mkdir of gen_N.staging reserves N: of two publishers
  // that read the same maximum, one creates the directory and the other
  // moves on to N+1. A stale staging never blocks a number, because
  // MaxGenerationNumber counts it. A directory listing taken while another
  // publisher renames its staging may miss both names, so a reserved N
  // whose gen_N already exists is given up as well.
  std::string staging;
  uint64_t number = MaxGenerationNumber(options_.directory);
  for (;;) {
    ++number;
    const std::string final_dir =
        options_.directory + "/" + GenerationDirName(number);
    staging = final_dir + ".staging";
    std::error_code ec;
    if (!fs::create_directory(staging, ec)) {
      if (ec) {
        return Status::Internal("cannot create staging directory " +
                                staging + ": " + ec.message());
      }
      continue;  // Another publisher holds N.
    }
    const bool taken = fs::exists(final_dir, ec);
    if (ec) {
      const std::string error = ec.message();
      fs::remove(staging, ec);
      return Status::Internal("cannot check " + final_dir + ": " + error);
    }
    if (!taken) break;
    fs::remove(staging, ec);
  }
  std::shared_ptr<ThreadPool> writers;
  {
    std::lock_guard<std::mutex> lock(*active_mu_);
    if (writers_ == nullptr) {
      // One writer per hardware thread; the queue bound caps the snapshots
      // held in memory however many vehicles a publish stages.
      const size_t workers =
          std::max<size_t>(1, std::thread::hardware_concurrency());
      writers_ = std::make_shared<ThreadPool>(
          ThreadPool::Options(workers, 2 * workers));
    }
    writers = writers_;
  }
  return GenerationPublisher(options_.directory, number, staging,
                             std::move(writers));
}

Status ModelRegistry::PruneGenerations(size_t keep) {
  std::string active_dir;
  {
    std::lock_guard<std::mutex> lock(*active_mu_);
    active_dir = active_.dir;
  }
  // The rollback journal pins generations: deleting the one `previous`
  // names would leave Rollback() pointing into the void, and deleting
  // `promoted` would orphan the journal's sanity check. Both are retained
  // regardless of age or `keep` -- and they consume the keep budget, so
  // `keep` stays an upper bound on retained non-active generations
  // whenever the pinned ones fit in it. A journal that cannot be read
  // pins an unknown pair, so nothing is pruned.
  std::string pinned_promoted, pinned_previous;
  StatusOr<RollbackJournal> journal = ReadRollbackJournal(options_.directory);
  if (journal.ok()) {
    pinned_promoted = journal.value().promoted;
    pinned_previous = journal.value().previous;
  } else if (!journal.status().IsNotFound()) {
    return journal.status();
  }
  std::vector<std::pair<uint64_t, std::string>> generations;
  std::error_code ec;
  fs::directory_iterator it(options_.directory, ec);
  if (ec) {
    return Status::Internal("cannot list " + options_.directory + ": " +
                            ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_directory(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    StatusOr<uint64_t> number = ParseGenerationName(name);
    if (!number.ok()) continue;
    const std::string dir = entry.path().string();
    if (dir == active_dir) continue;
    generations.emplace_back(number.value(), dir);
  }
  // Newest first: retain pinned generations plus the newest unpinned ones
  // until the keep budget runs out, delete the rest.
  std::sort(generations.rbegin(), generations.rend());
  size_t kept = 0;
  for (const auto& [number, dir] : generations) {
    const std::string name = fs::path(dir).filename().string();
    const bool pinned = name == pinned_promoted || name == pinned_previous;
    if (pinned || kept < keep) {
      ++kept;
      continue;
    }
    fs::remove_all(dir, ec);
    if (ec) {
      return Status::Internal("cannot prune " + dir + ": " + ec.message());
    }
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const VehicleForecaster>>
ModelRegistry::LoadVerifiedLocked(Shard& shard, int64_t vehicle_id) {
  // One consistent peek at the active generation (dir + manifest entry):
  // shard.mu is already held, active_mu_ nests inside it -- the global
  // lock order -- so a concurrent Reload can never hand this load the new
  // generation's manifest with the old generation's directory.
  std::string dir;
  ManifestEntry entry;
  const std::string file = BundleFileName(vehicle_id);
  auto no_bundle = [&] {
    return Status::NotFound(
        StrFormat("no model bundle for vehicle %lld in %s",
                  static_cast<long long>(vehicle_id), dir.c_str()));
  };
  {
    std::lock_guard<std::mutex> lock(*active_mu_);
    dir = active_.dir;
    const ManifestEntry* listed = active_.manifest.Find(file);
    // Not listed, not part of the generation: whatever file may lie under
    // that name is never read.
    if (listed == nullptr) return no_bundle();
    entry = *listed;
  }

  // Every mismatch with the entry -- size, framing, trailer -- is
  // DataLoss: quarantine it. A read error counts against the breaker.
  StatusOr<VehicleForecaster> forecaster = LoadListedBundle(dir, entry);
  if (forecaster.status().IsNotFound()) return no_bundle();
  if (forecaster.status().IsDataLoss()) {
    shard.quarantined.insert(vehicle_id);
    ++shard.counters.quarantines;
    return Status::NotFound(StrFormat(
        "model of vehicle %lld quarantined: %s",
        static_cast<long long>(vehicle_id),
        forecaster.status().message().c_str()));
  }
  VUP_RETURN_IF_ERROR(forecaster.status());
  return std::make_shared<const VehicleForecaster>(
      std::move(forecaster).value());
}

int64_t ModelRegistry::BreakerBackoffMs(int64_t vehicle_id,
                                        int open_count) const {
  const BreakerOptions& breaker = options_.breaker;
  // Reuse the retry schedule: open period k follows the same
  // min(initial * multiplier^(k-1), max) curve a retrying client would.
  const RetryPolicy policy(breaker.backoff);
  const int64_t base = policy.BackoffMs(open_count);
  if (base <= 0 || breaker.jitter_fraction <= 0) return base;
  // Deterministic jitter: same (seed, vehicle, open count) -> same period,
  // regardless of thread interleaving, so seeded runs reproduce exactly.
  Rng rng(SplitMix64(breaker.jitter_seed ^
                     SplitMix64(static_cast<uint64_t>(vehicle_id))) +
          static_cast<uint64_t>(open_count));
  const double fraction = std::clamp(breaker.jitter_fraction, 0.0, 1.0);
  const double factor = 1.0 + fraction * (2.0 * rng.Uniform() - 1.0);
  return std::max<int64_t>(1, static_cast<int64_t>(
                                  static_cast<double>(base) * factor));
}

void ModelRegistry::RecordLoadFailureLocked(Shard& shard,
                                            int64_t vehicle_id) {
  ++shard.counters.load_failures;
  Breaker& breaker = shard.breakers[vehicle_id];
  ++breaker.consecutive_failures;
  const bool reopen = breaker.state == BreakerState::kHalfOpen;
  if (!reopen &&
      breaker.consecutive_failures < options_.breaker.failure_threshold) {
    return;
  }
  // Trip (or re-trip after a failed half-open probe): fail fast until the
  // jittered backoff elapses.
  breaker.state = BreakerState::kOpen;
  ++breaker.open_count;
  ++shard.counters.breaker_opens;
  breaker.open_until =
      clock().Now() + std::chrono::milliseconds(
                          BreakerBackoffMs(vehicle_id, breaker.open_count));
}

StatusOr<std::shared_ptr<const VehicleForecaster>> ModelRegistry::Get(
    int64_t vehicle_id) {
  Shard& shard = ShardForVehicle(vehicle_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(vehicle_id);
  if (it != shard.index.end()) {
    ++shard.counters.hits;
    // Move to the front (most recently used).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->model;
  }

  if (shard.quarantined.count(vehicle_id) != 0) {
    // Quarantine is sticky until the generation swaps -- no disk IO, no breaker involvement, and NotFound so
    // the caller degrades through the same fallback chain as a missing
    // bundle.
    ++shard.counters.quarantine_blocks;
    return Status::NotFound(
        StrFormat("model of vehicle %lld is quarantined (manifest "
                  "verification failed)",
                  static_cast<long long>(vehicle_id)));
  }

  auto breaker_it = shard.breakers.find(vehicle_id);
  if (breaker_it != shard.breakers.end() &&
      breaker_it->second.state == BreakerState::kOpen) {
    Breaker& breaker = breaker_it->second;
    if (clock().Now() < breaker.open_until) {
      ++shard.counters.breaker_short_circuits;
      return Status::Unavailable(StrFormat(
          "circuit breaker open for vehicle %lld (retry in %lld ms)",
          static_cast<long long>(vehicle_id),
          static_cast<long long>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  breaker.open_until - clock().Now())
                  .count())));
    }
    // Backoff elapsed: half-open, admit this Get as the single probe (the
    // shard mutex serializes probes for every vehicle that hashes here).
    breaker.state = BreakerState::kHalfOpen;
  }

  ++shard.counters.misses;
  StatusOr<std::shared_ptr<const VehicleForecaster>> loaded =
      LoadVerifiedLocked(shard, vehicle_id);
  if (!loaded.ok()) {
    // A missing bundle is the degradation path, not a fault; only real
    // load failures (IO errors) count against the breaker. A fresh
    // quarantine surfaces as NotFound for the same reason.
    if (!loaded.status().IsNotFound()) {
      RecordLoadFailureLocked(shard, vehicle_id);
    }
    if (shard.quarantined.count(vehicle_id) != 0) {
      ++shard.counters.quarantine_blocks;
    }
    return loaded.status();
  }
  if (breaker_it != shard.breakers.end()) {
    // Successful load (including a half-open probe): close the breaker.
    shard.breakers.erase(vehicle_id);
  }
  std::shared_ptr<const VehicleForecaster> model = std::move(loaded).value();

  if (shard_capacity_ > 0) {
    const size_t bytes = model->ResidentBytes();
    // Evict from the cold end until both bounds hold: the per-shard entry
    // count AND the per-shard byte budget (0 = unbounded bytes). Breakers
    // and quarantine marks are deliberately NOT touched by eviction --
    // evicting a model must never reset its failure history.
    while (!shard.lru.empty() &&
           (shard.lru.size() >= shard_capacity_ ||
            (shard_max_bytes_ > 0 &&
             shard.resident_bytes + bytes > shard_max_bytes_))) {
      const Shard::LruEntry& victim = shard.lru.back();
      shard.resident_bytes -= victim.bytes;
      shard.index.erase(victim.vehicle_id);
      shard.lru.pop_back();
      ++shard.counters.evictions;
    }
    // A model larger than the whole shard budget is served but never
    // cached; caching it would evict everything else and still bust the
    // budget.
    if (shard_max_bytes_ == 0 || bytes <= shard_max_bytes_) {
      shard.lru.push_front(Shard::LruEntry{vehicle_id, model, bytes});
      shard.index[vehicle_id] = shard.lru.begin();
      shard.resident_bytes += bytes;
    }
  }
  return model;
}

void ModelRegistry::Quarantine(int64_t vehicle_id) {
  Shard& shard = ShardForVehicle(vehicle_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.quarantined.insert(vehicle_id).second) return;
  ++shard.counters.quarantines;
  // A resident copy was deserialized from bytes that verified at load
  // time; the scrubber has since seen different bytes on disk, so the
  // cached model's provenance is gone -- drop it.
  auto it = shard.index.find(vehicle_id);
  if (it != shard.index.end()) {
    shard.resident_bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
}

bool ModelRegistry::IsQuarantined(int64_t vehicle_id) const {
  Shard& shard = ShardForVehicle(vehicle_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.quarantined.count(vehicle_id) != 0;
}

Status ModelRegistry::Rollback() {
  VUP_RETURN_IF_ERROR(RollbackGeneration(options_.directory).status());
  return Reload();
}

StatusOr<RegistryMeta> ModelRegistry::ReadMeta() const {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(*active_mu_);
    dir = active_.dir;
  }
  return ReadRegistryMetaFile(dir);
}

bool ModelRegistry::Contains(int64_t vehicle_id) const {
  std::lock_guard<std::mutex> lock(*active_mu_);
  return active_.manifest.Find(BundleFileName(vehicle_id)) != nullptr;
}

std::vector<int64_t> ModelRegistry::ListVehicleIds() const {
  std::vector<int64_t> ids;
  {
    std::lock_guard<std::mutex> lock(*active_mu_);
    for (const ManifestEntry& entry : active_.manifest.entries()) {
      std::optional<int64_t> id = ParseBundleFileName(entry.file);
      if (id.has_value()) ids.push_back(*id);
    }
  }
  // Entries are sorted by file name, not by id.
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t ModelRegistry::resident_models() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

size_t ModelRegistry::resident_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->resident_bytes;
  }
  return total;
}

BreakerState ModelRegistry::breaker_state(int64_t vehicle_id) const {
  Shard& shard = ShardForVehicle(vehicle_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.breakers.find(vehicle_id);
  return it == shard.breakers.end() ? BreakerState::kClosed
                                    : it->second.state;
}

size_t ModelRegistry::OpenBreakersLocked(const Shard& shard) {
  size_t open = 0;
  for (const auto& [vehicle_id, breaker] : shard.breakers) {
    if (breaker.state != BreakerState::kClosed) ++open;
  }
  return open;
}

ModelRegistryStats ModelRegistry::StatsAllLocked() const {
  // Caller holds every shard mutex plus active_mu_. The registry-level
  // totals are sums of the per-shard slices BY CONSTRUCTION -- the shard
  // vector is the source of truth and the totals are derived here, so the
  // "totals == sum of shards" invariant can never drift.
  ModelRegistryStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ModelRegistryShardStats slice = shard->counters;
    // Derived from live state, so a generation swap that clears breakers
    // can never leave a stale open-vehicle count behind.
    slice.breaker_open_vehicles = OpenBreakersLocked(*shard);
    slice.resident_models = static_cast<uint64_t>(shard->lru.size());
    slice.cache_bytes = static_cast<uint64_t>(shard->resident_bytes);
    slice.quarantined_models =
        static_cast<uint64_t>(shard->quarantined.size());
    stats.hits += slice.hits;
    stats.misses += slice.misses;
    stats.evictions += slice.evictions;
    stats.load_failures += slice.load_failures;
    stats.breaker_opens += slice.breaker_opens;
    stats.breaker_short_circuits += slice.breaker_short_circuits;
    stats.breaker_open_vehicles += slice.breaker_open_vehicles;
    stats.quarantines += slice.quarantines;
    stats.quarantine_blocks += slice.quarantine_blocks;
    stats.quarantined_models += slice.quarantined_models;
    stats.resident_models += slice.resident_models;
    stats.cache_bytes += slice.cache_bytes;
    stats.shards.push_back(slice);
  }
  stats.reloads = reloads_;
  stats.generation = active_.number;
  stats.promotes_observed = promotes_observed_;
  stats.rollbacks_observed = rollbacks_observed_;
  return stats;
}

ModelRegistryStats ModelRegistry::stats() const {
  // Lock order: every shard ascending, then active_mu_ -- identical to
  // Reload, so a concurrent swap can never deadlock against a stats scrape.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (const auto& shard : shards_) shard_locks.emplace_back(shard->mu);
  std::lock_guard<std::mutex> lock(*active_mu_);
  return StatsAllLocked();
}

void ModelRegistry::CollectMetrics(obs::MetricsSnapshot* out,
                                   const obs::LabelSet& labels) const {
  const ModelRegistryStats stats = this->stats();
  auto add = [&](const char* name, const char* help, obs::MetricType type,
                 double value) {
    obs::MetricFamily family;
    family.name = name;
    family.help = help;
    family.type = type;
    obs::MetricSample sample;
    sample.labels = labels;
    sample.value = value;
    family.samples.push_back(std::move(sample));
    out->families.push_back(std::move(family));
  };
  using obs::MetricType;
  add("vupred_registry_hits_total", "Gets served from the resident cache.",
      MetricType::kCounter, static_cast<double>(stats.hits));
  add("vupred_registry_misses_total",
      "Gets that loaded the bundle from disk.", MetricType::kCounter,
      static_cast<double>(stats.misses));
  add("vupred_registry_evictions_total",
      "Resident models displaced by the LRU policy.", MetricType::kCounter,
      static_cast<double>(stats.evictions));
  add("vupred_registry_load_failures_total",
      "Disk loads that returned an error.", MetricType::kCounter,
      static_cast<double>(stats.load_failures));
  add("vupred_registry_breaker_opens_total",
      "Circuit breaker closed/half-open to open transitions.",
      MetricType::kCounter, static_cast<double>(stats.breaker_opens));
  add("vupred_registry_breaker_short_circuits_total",
      "Gets rejected while a breaker was open.", MetricType::kCounter,
      static_cast<double>(stats.breaker_short_circuits));
  add("vupred_registry_reloads_total",
      "Generation swaps performed by Reload().", MetricType::kCounter,
      static_cast<double>(stats.reloads));
  add("vupred_registry_quarantines_total",
      "Models quarantined after failing manifest verification.",
      MetricType::kCounter, static_cast<double>(stats.quarantines));
  add("vupred_registry_quarantine_blocks_total",
      "Gets answered NotFound because the model is quarantined.",
      MetricType::kCounter, static_cast<double>(stats.quarantine_blocks));
  add("vupred_publish_promotes_total",
      "Reloads that advanced to a newer generation.", MetricType::kCounter,
      static_cast<double>(stats.promotes_observed));
  add("vupred_publish_rollbacks_total",
      "Reloads that reverted to an older generation.", MetricType::kCounter,
      static_cast<double>(stats.rollbacks_observed));
  add("vupred_registry_breaker_open_vehicles",
      "Breakers currently open or half-open.", MetricType::kGauge,
      static_cast<double>(stats.breaker_open_vehicles));
  add("vupred_registry_resident_models",
      "Models resident in the LRU cache.", MetricType::kGauge,
      static_cast<double>(stats.resident_models));
  add("vupred_registry_cache_bytes",
      "Bytes of model state resident in the LRU cache.", MetricType::kGauge,
      static_cast<double>(stats.cache_bytes));
  add("vupred_registry_quarantined_models",
      "Models currently quarantined.", MetricType::kGauge,
      static_cast<double>(stats.quarantined_models));
  add("vupred_registry_generation", "Active generation number.",
      MetricType::kGauge, static_cast<double>(stats.generation));
}

uint64_t ModelRegistry::active_generation() const {
  std::lock_guard<std::mutex> lock(*active_mu_);
  return active_.number;
}

// ---- GenerationPublisher -----------------------------------------------

GenerationPublisher::GenerationPublisher(GenerationPublisher&& other) noexcept
    : root_(std::move(other.root_)),
      number_(other.number_),
      staging_dir_(std::move(other.staging_dir_)),
      finalized_(other.finalized_),
      committed_(other.committed_),
      moved_from_(other.moved_from_),
      writers_(std::move(other.writers_)),
      pending_ids_(std::move(other.pending_ids_)),
      written_(std::move(other.written_)),
      staging_handed_out_(other.staging_handed_out_) {
  other.moved_from_ = true;
}

GenerationPublisher& GenerationPublisher::operator=(
    GenerationPublisher&& other) noexcept {
  if (this != &other) {
    Release();
    root_ = std::move(other.root_);
    number_ = other.number_;
    staging_dir_ = std::move(other.staging_dir_);
    finalized_ = other.finalized_;
    committed_ = other.committed_;
    moved_from_ = other.moved_from_;
    writers_ = std::move(other.writers_);
    pending_ids_ = std::move(other.pending_ids_);
    written_ = std::move(other.written_);
    staging_handed_out_ = other.staging_handed_out_;
    other.moved_from_ = true;
  }
  return *this;
}

GenerationPublisher::~GenerationPublisher() { Release(); }

void GenerationPublisher::Release() {
  if (moved_from_) return;
  // This publisher's queued writes first: none may land in the staging
  // directory after it is removed, or outlive the state they record into.
  (void)written_->Wait();
  writers_.reset();
  if (finalized_) return;
  // Abandoned without Finalize: the staging directory was never visible to
  // readers, remove it. A finalized-but-unpromoted generation stays on
  // disk deliberately -- the publish gate may have failed it, and the
  // evidence (plus the prune policy) is worth more than the space.
  std::error_code ec;
  fs::remove_all(staging_dir_, ec);
}

Status GenerationPublisher::DrainWriters() const {
  pending_ids_.clear();
  return written_->Wait();
}

const std::string& GenerationPublisher::staging_dir() const {
  (void)DrainWriters();  // Writer errors surface at Finalize.
  if (!finalized_) staging_handed_out_ = true;
  return staging_dir_;
}

void GenerationPublisher::WrittenFiles::Forget(const std::string& file) {
  std::lock_guard<std::mutex> lock(mu);
  entries.erase(file);
}

void GenerationPublisher::WrittenFiles::Record(ManifestEntry entry) {
  std::lock_guard<std::mutex> lock(mu);
  std::string file = entry.file;
  entries.insert_or_assign(std::move(file), std::move(entry));
}

void GenerationPublisher::WrittenFiles::Queue() {
  std::lock_guard<std::mutex> lock(mu);
  ++queued;
}

void GenerationPublisher::WrittenFiles::Done(Status status) {
  std::lock_guard<std::mutex> lock(mu);
  if (first_error.ok()) first_error = std::move(status);
  if (--queued == 0) idle.notify_all();
}

Status GenerationPublisher::WrittenFiles::Wait() {
  std::unique_lock<std::mutex> lock(mu);
  idle.wait(lock, [this] { return queued == 0; });
  return first_error;
}

Status GenerationPublisher::Add(int64_t vehicle_id,
                                const VehicleForecaster& forecaster) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "generation already finalized (its manifest is sealed)");
  }
  // The snapshot is what the writer renders, so the caller may retrain or
  // destroy `forecaster` as soon as this returns.
  VUP_ASSIGN_OR_RETURN(VehicleForecaster snapshot, forecaster.Snapshot());
  // A queued write of the same id lands first, so this Add wins.
  if (pending_ids_.count(vehicle_id) != 0) (void)DrainWriters();
  pending_ids_.insert(vehicle_id);
  auto bundle =
      std::make_shared<const VehicleForecaster>(std::move(snapshot));
  // Counted before it is queued, so a fast writer cannot finish first.
  written_->Queue();
  Status submitted = writers_->Submit(
      [dir = staging_dir_, file = ModelRegistry::BundleFileName(vehicle_id),
       bundle, written = written_.get()]() -> Status {
        auto write = [&]() -> Status {
          VUP_ASSIGN_OR_RETURN(const std::string bytes,
                               bundle->SaveCompact());
          // A failed write fails Finalize for good, so only a written
          // bundle needs an entry. The encoder framed these bytes: their
          // last four are the trailer, no CRC pass.
          VUP_RETURN_IF_ERROR(WriteBundleFile(dir + "/" + file, bytes));
          written->Record({file, bytes.size(),
                           StoredCrc32Trailer(bytes.data(), bytes.size())});
          return Status::OK();
        };
        // The error belongs to this publisher, not to the shared pool.
        written->Done(RunGuarded(write));
        return Status::OK();
      });
  if (!submitted.ok()) written_->Done(Status::OK());  // Never queued.
  return submitted;
}

Status GenerationPublisher::AddPrebuilt(int64_t vehicle_id,
                                        std::string_view /*text_bytes*/,
                                        std::string_view compact_bytes) {
  // Byte-level Add for synthetic fleets: the RSS ceiling test and the
  // perfbench serving set-ups stamp one trained model's bundle bytes
  // across up to hundreds of thousands of vehicle ids
  // without re-serializing (or re-training) per id.
  if (finalized_) {
    return Status::FailedPrecondition(
        "generation already finalized (its manifest is sealed)");
  }
  if (compact_bytes.empty()) {
    return Status::InvalidArgument("AddPrebuilt needs compact bundle bytes");
  }
  // A queued Add of the same id lands first, so these bytes win.
  if (pending_ids_.count(vehicle_id) != 0) (void)DrainWriters();
  std::string file = ModelRegistry::BundleFileName(vehicle_id);
  written_->Forget(file);
  VUP_RETURN_IF_ERROR(
      WriteBundleFile(staging_dir_ + "/" + file, compact_bytes));
  // The caller's bytes are checked here, in memory. Unframed ones stay
  // unrecorded, so Finalize reads them back and refuses them.
  const std::optional<uint32_t> trailer =
      CheckCrc32Trailer(compact_bytes.data(), compact_bytes.size());
  if (trailer.has_value()) {
    written_->Record({std::move(file), compact_bytes.size(), *trailer});
  }
  return Status::OK();
}

Status GenerationPublisher::Finalize(const RegistryMeta& meta) {
  if (finalized_) {
    return Status::FailedPrecondition("generation already finalized");
  }
  // Order matters for crash-consistency: (1) meta completes the staging
  // directory, (2) the MANIFEST lists every staged file -- including the
  // meta -- with its size and trailer, so any later bit-rot is
  // detectable, (3) the directory rename makes the complete generation
  // appear under its final name. A crash between any two steps leaves at
  // worst an ignored staging directory; CURRENT never moves here. The
  // writers drain first, so the MANIFEST covers only complete files, and
  // a generation with a failed bundle write is never renamed.
  VUP_RETURN_IF_ERROR(DrainWriters());
  const std::string meta_bytes = meta.Serialize();
  VUP_RETURN_IF_ERROR(
      WriteFileAtomic(staging_dir_ + "/" + kMetaFile, meta_bytes));
  written_->Record({kMetaFile, meta_bytes.size(),
                    StoredCrc32Trailer(meta_bytes.data(), meta_bytes.size())});
  // Sealed from the recorded entries, unless the staging directory was
  // handed out: then every file is read back and checked. The writers are
  // drained, so written_ is no longer shared.
  const GenerationManifest::KnownEntries none;
  VUP_ASSIGN_OR_RETURN(
      GenerationManifest manifest,
      GenerationManifest::BuildFromDirectory(
          staging_dir_, staging_handed_out_ ? none : written_->entries));
  VUP_RETURN_IF_ERROR(WriteManifestFile(staging_dir_, manifest));
  const std::string final_dir =
      root_ + "/" + ModelRegistry::GenerationDirName(number_);
  std::error_code ec;
  fs::rename(staging_dir_, final_dir, ec);
  if (ec) {
    return Status::Internal("cannot finalize generation " + final_dir +
                            ": " + ec.message());
  }
  staging_dir_ = final_dir;
  finalized_ = true;
  return Status::OK();
}

Status GenerationPublisher::Promote() {
  if (!finalized_) {
    return Status::FailedPrecondition("generation is not finalized");
  }
  if (committed_) {
    return Status::FailedPrecondition("generation already committed");
  }
  // Journaled CURRENT flip: the rollback journal lands first, so the
  // promotion can be undone (and a crash between journal and flip is
  // harmless -- see PromoteGeneration).
  VUP_RETURN_IF_ERROR(
      PromoteGeneration(root_, ModelRegistry::GenerationDirName(number_)));
  committed_ = true;
  return Status::OK();
}

Status GenerationPublisher::Commit(const RegistryMeta& meta) {
  VUP_RETURN_IF_ERROR(Finalize(meta));
  return Promote();
}

}  // namespace vup::serve
