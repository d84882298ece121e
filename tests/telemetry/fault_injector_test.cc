#include "telemetry/fault_injector.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/cleaning.h"

namespace vup {
namespace {

Date D0() { return Date::FromYmd(2017, 5, 1).value(); }

std::vector<DailyUsageRecord> CleanDaily(int days) {
  std::vector<DailyUsageRecord> out;
  for (int d = 0; d < days; ++d) {
    DailyUsageRecord r;
    r.date = D0().AddDays(d);
    r.hours = 5.0 + (d % 3);
    r.fuel_used_l = 40.0;
    r.avg_engine_load_pct = 55.0;
    r.avg_engine_rpm = 1400.0;
    r.fuel_level_end_pct = 70.0;
    r.distance_km = 30.0;
    out.push_back(r);
  }
  return out;
}

bool SameDaily(const DailyUsageRecord& a, const DailyUsageRecord& b) {
  auto eq = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  return a.date == b.date && eq(a.hours, b.hours) &&
         eq(a.fuel_used_l, b.fuel_used_l) &&
         eq(a.avg_engine_load_pct, b.avg_engine_load_pct) &&
         eq(a.avg_engine_rpm, b.avg_engine_rpm) &&
         eq(a.fuel_level_end_pct, b.fuel_level_end_pct) &&
         eq(a.distance_km, b.distance_km);
}

bool SameStream(const std::vector<DailyUsageRecord>& a,
                const std::vector<DailyUsageRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameDaily(a[i], b[i])) return false;
  }
  return true;
}

TEST(FaultProfileTest, FlagsAndFingerprint) {
  EXPECT_FALSE(FaultProfile::None().AnyFaults());
  EXPECT_TRUE(FaultProfile::Mild().AnyStreamFaults());
  EXPECT_TRUE(FaultProfile::Severe().AnyFaults());
  EXPECT_EQ(FaultProfile::Mild().Fingerprint(),
            FaultProfile::Mild().Fingerprint());
  EXPECT_NE(FaultProfile::Mild().Fingerprint(),
            FaultProfile::Severe().Fingerprint());
  EXPECT_NE(FaultProfile::None().Fingerprint(),
            FaultProfile::Mild().Fingerprint());
}

TEST(FaultInjectorTest, NoFaultsIsIdentity) {
  FaultInjector injector(FaultProfile::None(), 1);
  std::vector<DailyUsageRecord> in = CleanDaily(20);
  FaultInjectionStats stats;
  EXPECT_TRUE(SameStream(injector.CorruptDaily(in, 7, &stats), in));
  EXPECT_EQ(stats.records_in, in.size());
  EXPECT_EQ(stats.records_out, in.size());
  EXPECT_EQ(stats.days_dropped + stats.partial_days +
                stats.duplicates_injected + stats.reports_reordered +
                stats.dates_skewed + stats.fields_corrupted,
            0u);
}

TEST(FaultInjectorTest, DifferentSeedOrTagDiverges) {
  std::vector<DailyUsageRecord> in = CleanDaily(60);
  FaultInjector a(FaultProfile::Severe(), 123);
  FaultInjector c(FaultProfile::Severe(), 124);
  EXPECT_FALSE(SameStream(a.CorruptDaily(in, 7), c.CorruptDaily(in, 7)));
  EXPECT_FALSE(SameStream(a.CorruptDaily(in, 7), a.CorruptDaily(in, 8)));
}

TEST(FaultInjectorTest, DuplicateStormDoublesStream) {
  FaultProfile p;
  p.duplicate_prob = 1.0;
  p.max_duplicates = 1;
  FaultInjector injector(p, 5);
  std::vector<DailyUsageRecord> in = CleanDaily(10);
  FaultInjectionStats stats;
  std::vector<DailyUsageRecord> out = injector.CorruptDaily(in, 1, &stats);
  ASSERT_EQ(out.size(), 2 * in.size());
  EXPECT_EQ(stats.duplicates_injected, in.size());
  // Copies are adjacent to their originals (a re-delivery storm).
  for (size_t i = 0; i < out.size(); i += 2) {
    EXPECT_TRUE(SameDaily(out[i], in[i / 2])) << "record " << i;
    EXPECT_TRUE(SameDaily(out[i + 1], in[i / 2])) << "record " << i + 1;
  }
}

TEST(FaultInjectorTest, StatsReconcileWithStreamSize) {
  FaultProfile p;
  p.slot_drop_prob = 0.1;
  p.day_gap_prob = 0.15;
  p.duplicate_prob = 0.2;
  FaultInjector injector(p, 77);
  std::vector<DailyUsageRecord> in = CleanDaily(60);
  FaultInjectionStats stats;
  std::vector<DailyUsageRecord> out = injector.CorruptDaily(in, 3, &stats);
  // Gaps remove whole days, partial days keep their record, and every
  // duplicate adds one: the counters fully explain the output size.
  EXPECT_EQ(stats.records_out, stats.records_in - stats.days_dropped +
                                   stats.duplicates_injected);
  EXPECT_EQ(out.size(), stats.records_out);
  EXPECT_GT(stats.days_dropped, 0u);
  EXPECT_GT(stats.partial_days, 0u);
  EXPECT_GT(stats.duplicates_injected, 0u);
}

TEST(FaultInjectorTest, ClockSkewMovesCountedDates) {
  FaultProfile p;
  p.clock_skew_prob = 0.3;
  p.max_skew_days = 2;
  FaultInjector injector(p, 9);
  std::vector<DailyUsageRecord> in = CleanDaily(40);
  FaultInjectionStats stats;
  std::vector<DailyUsageRecord> out = injector.CorruptDaily(in, 2, &stats);
  ASSERT_EQ(out.size(), in.size());  // Skew never drops records.
  size_t moved = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (!(out[i].date == in[i].date)) {
      ++moved;
      EXPECT_LE(std::abs(out[i].date - in[i].date), 2);
    }
  }
  EXPECT_EQ(moved, stats.dates_skewed);
  EXPECT_GT(moved, 0u);
}

TEST(FaultInjectorTest, FieldCorruptionProducesInvalidValues) {
  FaultProfile p;
  p.field_corrupt_prob = 1.0;
  FaultInjector injector(p, 11);
  std::vector<DailyUsageRecord> in = CleanDaily(20);
  FaultInjectionStats stats;
  std::vector<DailyUsageRecord> out = injector.CorruptDaily(in, 4, &stats);
  EXPECT_EQ(stats.fields_corrupted, in.size());
  for (const DailyUsageRecord& r : out) {
    const bool invalid =
        !std::isfinite(r.hours) || !std::isfinite(r.fuel_used_l) ||
        !std::isfinite(r.avg_engine_rpm) || r.hours > 24.0 ||
        r.avg_engine_load_pct > 100.0 || r.fuel_level_end_pct < 0.0;
    EXPECT_TRUE(invalid) << r.date.ToString();
  }
}

TEST(FaultInjectorTest, ReorderPermutesWithoutLoss) {
  FaultProfile p;
  p.reorder_prob = 0.5;
  p.max_reorder_distance = 6;
  FaultInjector injector(p, 13);
  std::vector<DailyUsageRecord> in = CleanDaily(30);
  FaultInjectionStats stats;
  std::vector<DailyUsageRecord> out = injector.CorruptDaily(in, 6, &stats);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_GT(stats.reports_reordered, 0u);
  std::multiset<int32_t> before, after;
  for (const DailyUsageRecord& r : in) before.insert(r.date.day_number());
  for (const DailyUsageRecord& r : out) after.insert(r.date.day_number());
  EXPECT_EQ(before, after);
  EXPECT_FALSE(SameStream(out, in));
}

TEST(FaultInjectorTest, CorruptDailyDeterministicAndCleanable) {
  FaultInjector injector(FaultProfile::Severe(), 21);
  std::vector<DailyUsageRecord> in = CleanDaily(60);
  FaultInjectionStats s1, s2;
  std::vector<DailyUsageRecord> a = injector.CorruptDaily(in, 5, &s1);
  std::vector<DailyUsageRecord> b = injector.CorruptDaily(in, 5, &s2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(SameDaily(a[i], b[i])) << "record " << i;
  }
  EXPECT_EQ(s1.ToString(), s2.ToString());
  EXPECT_GT(s1.days_dropped + s1.partial_days + s1.duplicates_injected +
                s1.dates_skewed + s1.fields_corrupted,
            0u);

  // The cleaning stage repairs the corrupted stream back to full calendar
  // coverage with physical values -- the contract the chaos runs rely on.
  CleaningReport rep;
  auto cleaned = CleanDailyRecords(a, in.front().date, in.back().date,
                                   CleaningOptions(), &rep)
                     .value();
  ASSERT_EQ(cleaned.size(), in.size());
  for (const DailyUsageRecord& r : cleaned) {
    EXPECT_TRUE(std::isfinite(r.hours));
    EXPECT_GE(r.hours, 0.0);
    EXPECT_LE(r.hours, 24.0);
  }
}

TEST(FaultInjectorTest, PartialDaysUndercountHours) {
  FaultProfile p;
  p.slot_drop_prob = 1.0;  // Daily image: every day keeps only a fraction.
  FaultInjector injector(p, 31);
  std::vector<DailyUsageRecord> in = CleanDaily(20);
  FaultInjectionStats stats;
  std::vector<DailyUsageRecord> out = injector.CorruptDaily(in, 9, &stats);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(stats.partial_days, in.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_LT(out[i].hours, in[i].hours);
    EXPECT_GT(out[i].hours, 0.0);
  }
}

TEST(FaultInjectorTest, ControlPlaneChannelsDeterministicAndBounded) {
  FaultProfile p;
  p.source_failure_prob = 0.5;
  p.max_source_failures = 4;
  p.training_failure_prob = 0.5;
  p.max_training_failures = 2;
  FaultInjector injector(p, 55);
  size_t flaky_sources = 0, flaky_trainers = 0;
  for (uint64_t tag = 1; tag <= 200; ++tag) {
    int s = injector.SourceFailuresFor(tag);
    int t = injector.TrainingFailuresFor(tag);
    EXPECT_EQ(s, injector.SourceFailuresFor(tag));
    EXPECT_EQ(t, injector.TrainingFailuresFor(tag));
    EXPECT_GE(s, 0);
    EXPECT_LE(s, 4);
    EXPECT_GE(t, 0);
    EXPECT_LE(t, 2);
    if (s > 0) ++flaky_sources;
    if (t > 0) ++flaky_trainers;
  }
  // Roughly half of 200 tags on each independent channel.
  EXPECT_GT(flaky_sources, 60u);
  EXPECT_LT(flaky_sources, 140u);
  EXPECT_GT(flaky_trainers, 60u);
  EXPECT_LT(flaky_trainers, 140u);

  FaultInjector healthy(FaultProfile::None(), 55);
  EXPECT_EQ(healthy.SourceFailuresFor(1), 0);
  EXPECT_EQ(healthy.TrainingFailuresFor(1), 0);
}

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(FaultProfileTest, BitRotFlagsAndFingerprint) {
  EXPECT_TRUE(FaultProfile::BitRot().AnyFaults());
  EXPECT_FALSE(FaultProfile::BitRot().AnyStreamFaults());
  EXPECT_NE(FaultProfile::BitRot().Fingerprint(),
            FaultProfile::None().Fingerprint());
  FaultProfile capped = FaultProfile::BitRot();
  capped.max_file_bit_flips = 1;
  EXPECT_NE(capped.Fingerprint(), FaultProfile::BitRot().Fingerprint());
}

TEST(FaultInjectorTest, FileCorruptionIsDeterministicPerSeedAndTag) {
  const std::string payload(256, 'M');
  const std::string a = WriteTempFile("vup_fi_det_a", payload);
  const std::string b = WriteTempFile("vup_fi_det_b", payload);

  FaultInjector rot(FaultProfile::BitRot(), 99);
  FileCorruptionStats stats;
  StatusOr<FileCorruptionKind> ka = rot.CorruptFileOnDisk(a, 5, &stats);
  StatusOr<FileCorruptionKind> kb = rot.CorruptFileOnDisk(b, 5, &stats);
  ASSERT_TRUE(ka.ok()) << ka.status().ToString();
  ASSERT_TRUE(kb.ok());
  // Same seed, same tag: identical kind and byte-identical damage.
  EXPECT_EQ(ka.value(), kb.value());
  EXPECT_NE(ka.value(), FileCorruptionKind::kNone);
  EXPECT_EQ(ReadAll(a), ReadAll(b));
  EXPECT_NE(ReadAll(a), payload);
  EXPECT_EQ(stats.files_seen, 2u);
  EXPECT_EQ(stats.files_corrupted, 2u);

  // A different tag draws its own damage.
  const std::string c = WriteTempFile("vup_fi_det_c", payload);
  StatusOr<FileCorruptionKind> kc = rot.CorruptFileOnDisk(c, 6, &stats);
  ASSERT_TRUE(kc.ok());
  EXPECT_TRUE(kc.value() != ka.value() || ReadAll(c) != ReadAll(a));
  std::filesystem::remove(a);
  std::filesystem::remove(b);
  std::filesystem::remove(c);
}

TEST(FaultInjectorTest, FileCorruptionSparesByProfileAndEmptyFiles) {
  const std::string payload = "precious model bytes";
  const std::string spared = WriteTempFile("vup_fi_spared", payload);
  FaultInjector healthy(FaultProfile::None(), 3);
  FileCorruptionStats stats;
  StatusOr<FileCorruptionKind> kind =
      healthy.CorruptFileOnDisk(spared, 1, &stats);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.value(), FileCorruptionKind::kNone);
  EXPECT_EQ(ReadAll(spared), payload);  // Untouched, not rewritten.
  EXPECT_EQ(stats.files_seen, 1u);
  EXPECT_EQ(stats.files_corrupted, 0u);

  // An empty file has no bytes to damage: spared even under BitRot.
  const std::string empty = WriteTempFile("vup_fi_empty", "");
  FaultInjector rot(FaultProfile::BitRot(), 3);
  StatusOr<FileCorruptionKind> ek = rot.CorruptFileOnDisk(empty, 1, &stats);
  ASSERT_TRUE(ek.ok());
  EXPECT_EQ(ek.value(), FileCorruptionKind::kNone);
  std::filesystem::remove(spared);
  std::filesystem::remove(empty);
}

TEST(FaultInjectorTest, FileCorruptionMissingFileIsNotFound) {
  FaultInjector rot(FaultProfile::BitRot(), 3);
  EXPECT_TRUE(rot.CorruptFileOnDisk(::testing::TempDir() + "/vup_fi_nope", 1)
                  .status()
                  .IsNotFound());
}

TEST(FaultInjectorTest, FileCorruptionStatsTrackEachKind) {
  // Walk tags until every corruption kind has occurred, then reconcile
  // the aggregate stats against the per-kind evidence.
  FaultInjector rot(FaultProfile::BitRot(), 17);
  FileCorruptionStats stats;
  bool seen[4] = {false, false, false, false};
  for (uint64_t tag = 0; tag < 48; ++tag) {
    const std::string path = WriteTempFile(
        "vup_fi_kind_" + std::to_string(tag), std::string(128, 'x'));
    StatusOr<FileCorruptionKind> kind =
        rot.CorruptFileOnDisk(path, tag, &stats);
    ASSERT_TRUE(kind.ok());
    seen[static_cast<int>(kind.value())] = true;
    std::filesystem::remove(path);
  }
  EXPECT_TRUE(seen[static_cast<int>(FileCorruptionKind::kBitFlip)]);
  EXPECT_TRUE(seen[static_cast<int>(FileCorruptionKind::kTruncate)]);
  EXPECT_TRUE(seen[static_cast<int>(FileCorruptionKind::kZeroFill)]);
  EXPECT_EQ(stats.files_seen, 48u);
  EXPECT_EQ(stats.files_corrupted, 48u);  // BitRot corrupts every file.
  EXPECT_GT(stats.bits_flipped, 0u);
  EXPECT_GT(stats.bytes_truncated, 0u);
  EXPECT_GT(stats.bytes_zeroed, 0u);
  EXPECT_FALSE(stats.ToString().empty());
}

}  // namespace
}  // namespace vup
