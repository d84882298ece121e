#include "serve/scrubber.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/forecaster.h"
#include "serve/model_registry.h"
#include "testing/registry.h"
#include "telemetry/fault_injector.h"

namespace vup::serve {
namespace {

namespace fs = std::filesystem;

const Country& Italy() {
  return *CountryRegistry::Global().Find("IT").value();
}

Date D(int day) { return Date::FromYmd(2016, 2, 1).value().AddDays(day); }

VehicleDataset MakeDataset(int64_t level_key, int n = 220) {
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < n; ++i) {
    DailyUsageRecord r;
    r.date = D(i);
    int wd = static_cast<int>(r.date.weekday());
    double level = 2.0 + static_cast<double>(level_key % 7);
    r.hours = wd < 5 ? level + wd + 0.05 * (i % 3) : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = level_key;
  return VehicleDataset::Build(info, recs, Italy()).value();
}

VehicleForecaster TrainForecaster(const VehicleDataset& ds) {
  ForecasterConfig cfg;
  cfg.algorithm = Algorithm::kLasso;
  cfg.windowing.lookback_w = 14;
  cfg.selection.top_k = 7;
  VehicleForecaster forecaster(cfg);
  EXPECT_TRUE(forecaster.Train(ds, 20, 200).ok());
  return forecaster;
}

class ScrubberTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_scrubber_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ModelRegistry OpenRegistry() {
    StatusOr<ModelRegistry> registry = ModelRegistry::Open({dir_, 4});
    EXPECT_TRUE(registry.ok()) << registry.status().ToString();
    return std::move(registry.value());
  }

  /// Trains a model for each id and publishes them as one generation.
  void PublishTrained(ModelRegistry* registry,
                         const std::vector<int64_t>& ids) {
    std::map<int64_t, VehicleForecaster> models;
    std::map<int64_t, const VehicleForecaster*> fleet;
    for (int64_t id : ids) {
      fleet[id] =
          &models.emplace(id, TrainForecaster(MakeDataset(id))).first->second;
    }
    ASSERT_TRUE(PublishFleet(*registry, fleet).ok());
  }

  std::string dir_;
};

TEST_F(ScrubberTest, CleanGenerationScrubsClean) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1, 2, 3});

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  StatusOr<ScrubReport> report = scrubber.ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().clean()) << report.value().ToString();
  EXPECT_EQ(report.value().generations_scanned, 1u);
  EXPECT_EQ(report.value().damaged_manifests, 0u);
  // 3 bundles + registry_meta.txt, all verified.
  EXPECT_EQ(report.value().files_checked, 4u);
  EXPECT_EQ(report.value().quarantined, 0u);
  EXPECT_EQ(scrubber.runs(), 1u);
  EXPECT_EQ(scrubber.last_report().files_checked, 4u);
}

TEST_F(ScrubberTest, ActiveGenerationCorruptionIsQuarantinedBeforeAnyGet) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1, 2});

  // Bit-rot vehicle 2's bundle on disk, behind the registry's back.
  FaultInjector rot(FaultProfile::BitRot(), /*seed=*/3);
  StatusOr<FileCorruptionKind> kind =
      rot.CorruptFileOnDisk(registry.BundlePath(2), /*file_tag=*/2);
  ASSERT_TRUE(kind.ok()) << kind.status().ToString();
  ASSERT_NE(kind.value(), FileCorruptionKind::kNone);

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  StatusOr<ScrubReport> report = scrubber.ScrubOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().corruptions(), 1u) << report.value().ToString();
  EXPECT_EQ(report.value().quarantined, 1u);
  EXPECT_TRUE(registry.IsQuarantined(2));
  EXPECT_FALSE(registry.IsQuarantined(1));

  // The quarantined model is never scored: Get degrades with NotFound
  // (fallback-chain semantics), the healthy sibling still serves.
  EXPECT_TRUE(registry.Get(2).status().IsNotFound());
  EXPECT_TRUE(registry.Get(1).ok());
  ModelRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_GE(stats.quarantine_blocks, 1u);
  EXPECT_EQ(stats.quarantined_models, 1u);

  // A second pass sees the same damage but does not double-quarantine.
  StatusOr<ScrubReport> second = scrubber.ScrubOnce();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().quarantined, 0u);
  EXPECT_EQ(registry.stats().quarantines, 1u);
}

TEST_F(ScrubberTest, SameSizeBundleSwapIsACrcMismatch) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {7, 8});
  // Vehicle 7's valid bundle copied over vehicle 8's: the size matches and
  // the copy ends in its own valid trailer, which is not the one listed.
  ASSERT_EQ(fs::file_size(registry.BundlePath(7)),
            fs::file_size(registry.BundlePath(8)));
  fs::copy_file(registry.BundlePath(7), registry.BundlePath(8),
                fs::copy_options::overwrite_existing);

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  StatusOr<ScrubReport> report = scrubber.ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().crc_mismatches, 1u) << report.value().ToString();
  EXPECT_EQ(report.value().size_mismatches, 0u);
  EXPECT_EQ(report.value().quarantined, 1u);
  EXPECT_TRUE(registry.IsQuarantined(8));
  EXPECT_FALSE(registry.IsQuarantined(7));
}

TEST_F(ScrubberTest, ResidentBundleBitRotIsQuarantinedAndEvicted) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1, 2});
  // Vehicle 2 is resident: its model scores from a buffer read before the
  // rot, so only the scrubber can take it out of service.
  ASSERT_TRUE(registry.Get(2).ok());
  ASSERT_EQ(registry.resident_models(), 1u);

  // Flip a bit of the last payload f64, just before the CRC trailer.
  const std::string path = registry.BundlePath(2);
  const auto at = static_cast<std::streamoff>(fs::file_size(path)) - 5;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char byte = 0;
    f.seekg(at);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(at);
    f.write(&byte, 1);
  }

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  StatusOr<ScrubReport> report = scrubber.ScrubOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().crc_mismatches, 1u) << report.value().ToString();
  EXPECT_EQ(report.value().quarantined, 1u);
  EXPECT_TRUE(registry.IsQuarantined(2));
  EXPECT_EQ(registry.resident_models(), 0u) << "the rotted model stayed cached";
  EXPECT_EQ(registry.resident_bytes(), 0u);

  const uint64_t hits = registry.stats().hits;
  EXPECT_TRUE(registry.Get(2).status().IsNotFound());
  EXPECT_EQ(registry.stats().hits, hits);
  EXPECT_TRUE(registry.Get(1).ok());
}

TEST_F(ScrubberTest, NonActiveGenerationCorruptionIsReportedNotQuarantined) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1});
  const std::string old_gen =
      dir_ + "/" + ModelRegistry::GenerationDirName(1);
  PublishTrained(&registry, {1});
  ASSERT_EQ(registry.active_generation(), 2u);

  // Damage the *retired* generation: forensically interesting, but no
  // vehicle in the active fleet is affected.
  FaultInjector rot(FaultProfile::BitRot(), /*seed=*/5);
  StatusOr<FileCorruptionKind> kind = rot.CorruptFileOnDisk(
      old_gen + "/" + ModelRegistry::BundleFileName(1), /*file_tag=*/1);
  ASSERT_TRUE(kind.ok());
  ASSERT_NE(kind.value(), FileCorruptionKind::kNone);

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  StatusOr<ScrubReport> report = scrubber.ScrubOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().generations_scanned, 2u);
  EXPECT_EQ(report.value().corruptions(), 1u);
  EXPECT_EQ(report.value().quarantined, 0u);
  EXPECT_FALSE(registry.IsQuarantined(1));
  EXPECT_TRUE(registry.Get(1).ok());
}

TEST_F(ScrubberTest, MissingFileAndDamagedManifestAreCounted) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1, 2});
  const std::string gen_dir =
      dir_ + "/" + ModelRegistry::GenerationDirName(1);
  fs::remove(registry.BundlePath(1));

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  StatusOr<ScrubReport> report = scrubber.ScrubOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().missing_files, 1u);
  EXPECT_TRUE(registry.IsQuarantined(1));

  // Mangle the MANIFEST itself: damaged, counted, pass keeps going.
  std::ofstream out(gen_dir + "/MANIFEST", std::ios::trunc);
  out << "vupred-manifest v1\nentry torn";
  out.close();
  StatusOr<ScrubReport> second = scrubber.ScrubOnce();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().damaged_manifests, 1u);
  EXPECT_FALSE(second.value().clean());
}

TEST_F(ScrubberTest, OversizedFileIsASizeMismatchFromItsStat) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1, 2});
  // A stray 256 MiB file (sparse: no disk, no page cache) under a listed
  // name. The scrubber must count it from its size, not slurp it.
  fs::resize_file(registry.BundlePath(2), 256ull << 20);

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  StatusOr<ScrubReport> report = scrubber.ScrubOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().size_mismatches, 1u) << report.value().ToString();
  EXPECT_EQ(report.value().crc_mismatches, 0u);
  EXPECT_EQ(report.value().missing_files, 0u);
  EXPECT_EQ(report.value().quarantined, 1u);
  EXPECT_TRUE(registry.IsQuarantined(2));
  EXPECT_FALSE(registry.IsQuarantined(1));
}

TEST_F(ScrubberTest, CommittedGenerationWithoutManifestIsADamagedManifest) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {7});
  ASSERT_TRUE(fs::remove(dir_ + "/" + ModelRegistry::GenerationDirName(1) +
                         "/" + kManifestFileName));

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  StatusOr<ScrubReport> report = scrubber.ScrubOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().generations_scanned, 1u);
  EXPECT_EQ(report.value().damaged_manifests, 1u);
  EXPECT_EQ(report.value().files_checked, 0u);
  EXPECT_FALSE(report.value().clean());
}

TEST_F(ScrubberTest, ScheduleRunsOnTheInjectedClock) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1});

  FakeClock clock;
  RegistryScrubber scrubber({.root = dir_,
                             .registry = &registry,
                             .clock = &clock,
                             .interval_ms = 60'000});
  // First pass is always due; the next only after interval_ms.
  EXPECT_TRUE(scrubber.Due());
  StatusOr<bool> ran = scrubber.MaybeScrub();
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(ran.value());
  EXPECT_FALSE(scrubber.Due());
  ran = scrubber.MaybeScrub();
  ASSERT_TRUE(ran.ok());
  EXPECT_FALSE(ran.value());
  EXPECT_EQ(scrubber.runs(), 1u);

  clock.AdvanceMs(59'999);
  EXPECT_FALSE(scrubber.Due());
  clock.AdvanceMs(2);
  EXPECT_TRUE(scrubber.Due());
  ran = scrubber.MaybeScrub();
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(ran.value());
  EXPECT_EQ(scrubber.runs(), 2u);
}

TEST_F(ScrubberTest, BackgroundThreadScrubsAndStopsCleanly) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1});

  RegistryScrubber scrubber({.root = dir_,
                             .registry = &registry,
                             .interval_ms = 1,
                             .poll_ms = 1});
  scrubber.Start();
  scrubber.Start();  // Idempotent.
  // The real clock advances past interval_ms almost immediately; wait for
  // the first pass without assuming scheduler fairness.
  for (int i = 0; i < 2000 && scrubber.runs() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(scrubber.runs(), 0u);
  EXPECT_EQ(scrubber.last_report().generations_scanned, 1u);
  scrubber.Stop();
  scrubber.Stop();  // Idempotent.
  const uint64_t after_stop = scrubber.runs();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(scrubber.runs(), after_stop);
}

TEST_F(ScrubberTest, CollectMetricsExportsScrubFamilies) {
  ModelRegistry registry = OpenRegistry();
  PublishTrained(&registry, {1});
  FaultInjector rot(FaultProfile::BitRot(), /*seed=*/11);
  ASSERT_TRUE(
      rot.CorruptFileOnDisk(registry.BundlePath(1), /*file_tag=*/1).ok());

  RegistryScrubber scrubber({.root = dir_, .registry = &registry});
  ASSERT_TRUE(scrubber.ScrubOnce().ok());

  obs::MetricsSnapshot snapshot;
  scrubber.CollectMetrics(&snapshot);
  bool saw_runs = false;
  bool saw_corruptions = false;
  bool saw_quarantines = false;
  for (const obs::MetricFamily& family : snapshot.families) {
    if (family.name == "vupred_scrub_runs_total") saw_runs = true;
    if (family.name == "vupred_scrub_corruptions_total") {
      saw_corruptions = true;
      double total = 0.0;
      for (const obs::MetricSample& sample : family.samples) {
        total += sample.value;
      }
      EXPECT_EQ(total, 1.0);
    }
    if (family.name == "vupred_scrub_quarantines_total") {
      saw_quarantines = true;
      ASSERT_EQ(family.samples.size(), 1u);
      EXPECT_EQ(family.samples[0].value, 1.0);
    }
  }
  EXPECT_TRUE(saw_runs);
  EXPECT_TRUE(saw_corruptions);
  EXPECT_TRUE(saw_quarantines);
}

}  // namespace
}  // namespace vup::serve
