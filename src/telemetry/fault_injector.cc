#include "telemetry/fault_injector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"

namespace vup {

namespace {

// Stage tags for decorrelated per-stage generators.
constexpr uint64_t kStageDayGap = 1;
constexpr uint64_t kStageSlotDrop = 2;
constexpr uint64_t kStageSkew = 3;
constexpr uint64_t kStageCorrupt = 4;
constexpr uint64_t kStageDuplicate = 5;
constexpr uint64_t kStageReorder = 6;
constexpr uint64_t kStageFileCorrupt = 7;
constexpr uint64_t kSaltSource = 0xF00D5A17ull;
constexpr uint64_t kSaltTraining = 0x7EA1B00Cull;

uint64_t MixDouble(uint64_t h, double v) {
  return SplitMix64(h ^ std::bit_cast<uint64_t>(v));
}

uint64_t MixInt(uint64_t h, int64_t v) {
  return SplitMix64(h ^ static_cast<uint64_t>(v));
}

/// Seed of one stream's fault draws.
uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  return SplitMix64(seed ^ SplitMix64(tag));
}

/// Whole-day gap decision, independent of delivery order: the same
/// (stream, date) always drops or survives together.
bool DayDropped(uint64_t stream_seed, double prob, int32_t day_number) {
  if (prob <= 0.0) return false;
  Rng rng(SplitMix64(stream_seed ^
                     (kStageDayGap * 0x9E3779B97F4A7C15ull) ^
                     static_cast<uint64_t>(static_cast<uint32_t>(day_number))));
  return rng.Bernoulli(prob);
}

int SkewDays(Rng* rng, int max_skew_days) {
  int magnitude =
      static_cast<int>(rng->UniformInt(1, std::max(1, max_skew_days)));
  return rng->Bernoulli(0.5) ? magnitude : -magnitude;
}

void CorruptDailyField(DailyUsageRecord* r, Rng* rng) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (rng->UniformInt(0, 5)) {
    case 0: r->hours = kNan; break;
    case 1: r->fuel_used_l = kInf; break;
    case 2: r->hours = 1000.0; break;                // Impossible day.
    case 3: r->avg_engine_load_pct = 400.0; break;   // > 100 %.
    case 4: r->avg_engine_rpm = -kInf; break;
    default: r->fuel_level_end_pct = -40.0; break;   // Below empty.
  }
}

/// Per-entity leading-failure count for a control-plane channel.
int LeadingFailures(uint64_t seed, uint64_t tag, uint64_t salt, double prob,
                    int max_failures) {
  if (prob <= 0.0 || max_failures <= 0) return 0;
  Rng rng(SplitMix64(seed ^ SplitMix64(tag ^ salt)));
  if (!rng.Bernoulli(prob)) return 0;
  return static_cast<int>(rng.UniformInt(1, max_failures));
}

}  // namespace

bool FaultProfile::AnyStreamFaults() const {
  return slot_drop_prob > 0.0 || day_gap_prob > 0.0 ||
         duplicate_prob > 0.0 || reorder_prob > 0.0 ||
         clock_skew_prob > 0.0 || field_corrupt_prob > 0.0;
}

bool FaultProfile::AnyFaults() const {
  return AnyStreamFaults() || source_failure_prob > 0.0 ||
         training_failure_prob > 0.0 || file_corrupt_prob > 0.0;
}

uint64_t FaultProfile::Fingerprint() const {
  uint64_t h = 0x1234F00Dull;
  h = MixDouble(h, slot_drop_prob);
  h = MixDouble(h, day_gap_prob);
  h = MixDouble(h, duplicate_prob);
  h = MixInt(h, max_duplicates);
  h = MixDouble(h, reorder_prob);
  h = MixInt(h, max_reorder_distance);
  h = MixDouble(h, clock_skew_prob);
  h = MixInt(h, max_skew_days);
  h = MixDouble(h, field_corrupt_prob);
  h = MixDouble(h, source_failure_prob);
  h = MixInt(h, max_source_failures);
  h = MixDouble(h, training_failure_prob);
  h = MixInt(h, max_training_failures);
  h = MixDouble(h, file_corrupt_prob);
  h = MixInt(h, max_file_bit_flips);
  return h;
}

FaultProfile FaultProfile::Mild() {
  FaultProfile p;
  p.slot_drop_prob = 0.02;
  p.day_gap_prob = 0.01;
  p.duplicate_prob = 0.02;
  p.reorder_prob = 0.02;
  p.clock_skew_prob = 0.005;
  p.field_corrupt_prob = 0.01;
  p.source_failure_prob = 0.05;
  p.max_source_failures = 1;
  p.training_failure_prob = 0.05;
  p.max_training_failures = 1;
  return p;
}

FaultProfile FaultProfile::BitRot() {
  FaultProfile p;
  p.file_corrupt_prob = 1.0;
  return p;
}

FaultProfile FaultProfile::Severe() {
  FaultProfile p;
  p.slot_drop_prob = 0.10;
  p.day_gap_prob = 0.05;
  p.duplicate_prob = 0.10;
  p.max_duplicates = 5;
  p.reorder_prob = 0.10;
  p.max_reorder_distance = 24;
  p.clock_skew_prob = 0.03;
  p.max_skew_days = 3;
  p.field_corrupt_prob = 0.08;
  p.source_failure_prob = 0.30;
  p.max_source_failures = 6;
  p.training_failure_prob = 0.25;
  p.max_training_failures = 6;
  return p;
}

std::string FaultInjectionStats::ToString() const {
  return StrFormat(
      "in=%zu out=%zu day_gaps=%zu partial_days=%zu duplicates=%zu "
      "reordered=%zu skewed=%zu corrupted=%zu",
      records_in, records_out, days_dropped, partial_days,
      duplicates_injected, reports_reordered, dates_skewed,
      fields_corrupted);
}

FaultInjector::FaultInjector(FaultProfile profile, uint64_t seed)
    : profile_(profile), seed_(seed) {}

std::vector<DailyUsageRecord> FaultInjector::CorruptDaily(
    std::vector<DailyUsageRecord> days, uint64_t stream_tag,
    FaultInjectionStats* stats) const {
  FaultInjectionStats local;
  FaultInjectionStats* st = stats != nullptr ? stats : &local;
  *st = FaultInjectionStats{};
  st->records_in = days.size();

  const uint64_t stream_seed = StreamSeed(seed_, stream_tag);
  Rng base(stream_seed);

  // Whole-day gaps + partial-day undercounts (daily image of slot loss).
  {
    Rng rng = base.Fork(kStageSlotDrop);
    std::vector<DailyUsageRecord> kept;
    kept.reserve(days.size());
    for (DailyUsageRecord& r : days) {
      bool partial = rng.Bernoulli(profile_.slot_drop_prob);
      double retention = partial ? rng.Uniform(0.2, 0.9) : 1.0;
      if (DayDropped(stream_seed, profile_.day_gap_prob,
                     r.date.day_number())) {
        ++st->days_dropped;
        continue;
      }
      if (partial) {
        r.hours *= retention;
        r.fuel_used_l *= retention;
        r.distance_km *= retention;
        r.idle_hours *= retention;
        ++st->partial_days;
      }
      kept.push_back(std::move(r));
    }
    days = std::move(kept);
  }

  // Clock skew.
  {
    Rng rng = base.Fork(kStageSkew);
    for (DailyUsageRecord& r : days) {
      if (!rng.Bernoulli(profile_.clock_skew_prob)) continue;
      r.date = r.date.AddDays(SkewDays(&rng, profile_.max_skew_days));
      ++st->dates_skewed;
    }
  }

  // Field corruption.
  {
    Rng rng = base.Fork(kStageCorrupt);
    for (DailyUsageRecord& r : days) {
      if (!rng.Bernoulli(profile_.field_corrupt_prob)) continue;
      CorruptDailyField(&r, &rng);
      ++st->fields_corrupted;
    }
  }

  // Duplicate re-deliveries.
  if (profile_.duplicate_prob > 0.0) {
    Rng rng = base.Fork(kStageDuplicate);
    std::vector<DailyUsageRecord> out;
    out.reserve(days.size());
    for (const DailyUsageRecord& r : days) {
      out.push_back(r);
      if (!rng.Bernoulli(profile_.duplicate_prob)) continue;
      int copies = static_cast<int>(
          rng.UniformInt(1, std::max(1, profile_.max_duplicates)));
      for (int c = 0; c < copies; ++c) out.push_back(r);
      st->duplicates_injected += static_cast<size_t>(copies);
    }
    days = std::move(out);
  }

  // Out-of-order delivery.
  if (profile_.reorder_prob > 0.0 && days.size() > 1) {
    Rng rng = base.Fork(kStageReorder);
    for (size_t i = 0; i < days.size(); ++i) {
      if (!rng.Bernoulli(profile_.reorder_prob)) continue;
      size_t j = std::min(
          days.size() - 1,
          i + static_cast<size_t>(rng.UniformInt(
                  1, std::max(1, profile_.max_reorder_distance))));
      if (j == i) continue;
      std::swap(days[i], days[j]);
      ++st->reports_reordered;
    }
  }

  st->records_out = days.size();
  return days;
}

int FaultInjector::SourceFailuresFor(uint64_t entity_tag) const {
  return LeadingFailures(seed_, entity_tag, kSaltSource,
                         profile_.source_failure_prob,
                         profile_.max_source_failures);
}

int FaultInjector::TrainingFailuresFor(uint64_t entity_tag) const {
  return LeadingFailures(seed_, entity_tag, kSaltTraining,
                         profile_.training_failure_prob,
                         profile_.max_training_failures);
}

std::string_view FileCorruptionKindToString(FileCorruptionKind kind) {
  switch (kind) {
    case FileCorruptionKind::kNone: return "none";
    case FileCorruptionKind::kBitFlip: return "bit-flip";
    case FileCorruptionKind::kTruncate: return "truncate";
    case FileCorruptionKind::kZeroFill: return "zero-fill";
  }
  return "unknown";
}

std::string FileCorruptionStats::ToString() const {
  return StrFormat(
      "files_seen=%zu corrupted=%zu bits_flipped=%zu bytes_truncated=%zu "
      "bytes_zeroed=%zu",
      files_seen, files_corrupted, bits_flipped, bytes_truncated,
      bytes_zeroed);
}

StatusOr<FileCorruptionKind> FaultInjector::CorruptFileOnDisk(
    const std::string& path, uint64_t file_tag,
    FileCorruptionStats* stats) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open for corruption: " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Internal("cannot read for corruption: " + path);
  }
  in.close();
  if (stats != nullptr) ++stats->files_seen;

  Rng rng(SplitMix64(StreamSeed(seed_, file_tag) ^
                     (kStageFileCorrupt * 0x9E3779B97F4A7C15ull)));
  if (profile_.file_corrupt_prob <= 0.0 ||
      !rng.Bernoulli(profile_.file_corrupt_prob)) {
    return FileCorruptionKind::kNone;
  }
  // Nothing to flip or zero in an empty file, and truncation is a no-op:
  // degrade to spared rather than pretend damage happened.
  if (bytes.empty()) return FileCorruptionKind::kNone;

  const auto kind = static_cast<FileCorruptionKind>(rng.UniformInt(1, 3));
  switch (kind) {
    case FileCorruptionKind::kBitFlip: {
      const int flips = static_cast<int>(
          rng.UniformInt(1, std::max(1, profile_.max_file_bit_flips)));
      for (int i = 0; i < flips; ++i) {
        const size_t byte = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
        const int bit = static_cast<int>(rng.UniformInt(0, 7));
        bytes[byte] = static_cast<char>(
            static_cast<uint8_t>(bytes[byte]) ^ (1u << bit));
      }
      if (stats != nullptr) stats->bits_flipped += flips;
      break;
    }
    case FileCorruptionKind::kTruncate: {
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(rng.Uniform(0.1, 0.9) *
                                 static_cast<double>(bytes.size())));
      if (stats != nullptr) stats->bytes_truncated += bytes.size() - keep;
      bytes.resize(keep);
      break;
    }
    case FileCorruptionKind::kZeroFill: {
      const size_t start = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
      const size_t len = std::min<size_t>(
          bytes.size() - start,
          static_cast<size_t>(
              rng.UniformInt(1, static_cast<int64_t>(bytes.size()))));
      std::fill(bytes.begin() + start, bytes.begin() + start + len, '\0');
      if (stats != nullptr) stats->bytes_zeroed += len;
      break;
    }
    case FileCorruptionKind::kNone:
      break;
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot rewrite for corruption: " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    return Status::Internal("short rewrite for corruption: " + path);
  }
  if (stats != nullptr) ++stats->files_corrupted;
  return kind;
}

}  // namespace vup
