#include "serve/manifest.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/forecaster.h"
#include "serve/model_registry.h"
#include "telemetry/fault_injector.h"

namespace vup::serve {
namespace {

namespace fs = std::filesystem;

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_manifest_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ + "/" + name, std::ios::binary | std::ios::trunc);
    out << content;
  }

  std::string dir_;
};

TEST_F(ManifestTest, SerializeParseRoundTrips) {
  GenerationManifest manifest;
  ASSERT_TRUE(manifest.Add("b.cfcst", 10, 0xDEADBEEF).ok());
  ASSERT_TRUE(manifest.Add("a.cfcst", 0, 0).ok());
  ASSERT_TRUE(manifest.Add("clusters.meta", 123, 0xFFFFFFFF).ok());

  std::istringstream in(manifest.Serialize());
  StatusOr<GenerationManifest> parsed = GenerationManifest::Parse(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == manifest);
  // Entries come back strictly ascending regardless of Add order.
  ASSERT_EQ(parsed.value().size(), 3u);
  EXPECT_EQ(parsed.value().entries()[0].file, "a.cfcst");
  EXPECT_EQ(parsed.value().entries()[1].file, "b.cfcst");
  EXPECT_EQ(parsed.value().entries()[2].file, "clusters.meta");
}

TEST_F(ManifestTest, AddRejectsUnusableNamesAndDuplicates) {
  GenerationManifest manifest;
  EXPECT_TRUE(manifest.Add("", 1, 1).IsInvalidArgument());
  EXPECT_TRUE(manifest.Add("..", 1, 1).IsInvalidArgument());
  EXPECT_TRUE(manifest.Add("a/b", 1, 1).IsInvalidArgument());
  EXPECT_TRUE(manifest.Add("a b", 1, 1).IsInvalidArgument());
  ASSERT_TRUE(manifest.Add("ok.cfcst", 1, 1).ok());
  EXPECT_TRUE(manifest.Add("ok.cfcst", 2, 2).IsInvalidArgument());
}

TEST_F(ManifestTest, ParseRejectsStructuralDamage) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return GenerationManifest::Parse(in).status();
  };
  // Bad magic.
  EXPECT_TRUE(parse("vupred-manifest v9\nend-manifest\n")
                  .IsInvalidArgument());
  // Missing end sentinel (truncation must always be detectable).
  EXPECT_TRUE(parse("vupred-manifest v1\nentry a.cfcst 1 2\n")
                  .IsInvalidArgument());
  // Missing trailing newline after the sentinel.
  EXPECT_TRUE(parse("vupred-manifest v1\nend-manifest")
                  .IsInvalidArgument());
  // Unsorted entries.
  EXPECT_TRUE(parse("vupred-manifest v1\nentry b 1 2\nentry a 1 2\n"
                    "end-manifest\n")
                  .IsInvalidArgument());
  // Duplicate entries.
  EXPECT_TRUE(parse("vupred-manifest v1\nentry a 1 2\nentry a 1 2\n"
                    "end-manifest\n")
                  .IsInvalidArgument());
  // Garbage numbers.
  EXPECT_TRUE(parse("vupred-manifest v1\nentry a x 2\nend-manifest\n")
                  .IsInvalidArgument());
  EXPECT_TRUE(parse("vupred-manifest v1\nentry a 1 99999999999\n"
                    "end-manifest\n")
                  .IsInvalidArgument());
  // Wrong token count.
  EXPECT_TRUE(parse("vupred-manifest v1\nentry a 1\nend-manifest\n")
                  .IsInvalidArgument());
  // Trailing garbage after the sentinel.
  EXPECT_TRUE(parse("vupred-manifest v1\nend-manifest\nentry a 1 2\n")
                  .IsInvalidArgument());
  // Empty manifest is fine.
  std::istringstream empty("vupred-manifest v1\nend-manifest\n");
  EXPECT_TRUE(GenerationManifest::Parse(empty).ok());
}

TEST_F(ManifestTest, BuildFromDirectoryIsDeterministicAndSkipsLeftovers) {
  WriteFile("vehicle_2.cfcst", "model two");
  WriteFile("vehicle_1.cfcst", "model one");
  WriteFile("registry_meta.txt", "meta");
  WriteFile("MANIFEST", "a stale manifest must never checksum itself");
  WriteFile("vehicle_3.cfcst.tmp", "torn install leftover");

  StatusOr<GenerationManifest> a = GenerationManifest::BuildFromDirectory(dir_);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  StatusOr<GenerationManifest> b = GenerationManifest::BuildFromDirectory(dir_);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value() == b.value());
  ASSERT_EQ(a.value().size(), 3u);
  EXPECT_EQ(a.value().entries()[0].file, "registry_meta.txt");
  EXPECT_EQ(a.value().entries()[1].file, "vehicle_1.cfcst");
  EXPECT_EQ(a.value().entries()[2].file, "vehicle_2.cfcst");
  EXPECT_EQ(a.value().entries()[1].size, 9u);
  EXPECT_EQ(a.value().Find("MANIFEST"), nullptr);
  EXPECT_EQ(a.value().Find("vehicle_3.cfcst.tmp"), nullptr);
  // Every listed file verifies against the bytes on disk.
  for (const ManifestEntry& entry : a.value().entries()) {
    EXPECT_TRUE(GenerationManifest::VerifyFile(dir_, entry).ok())
        << entry.file;
  }
}

TEST_F(ManifestTest, VerifyBytesCatchesSizeThenCrcMismatch) {
  WriteFile("vehicle_1.cfcst", "original content");
  StatusOr<GenerationManifest> built =
      GenerationManifest::BuildFromDirectory(dir_);
  ASSERT_TRUE(built.ok());
  const ManifestEntry& entry = built.value().entries()[0];

  EXPECT_TRUE(GenerationManifest::VerifyBytes(entry, "original content").ok());
  EXPECT_TRUE(GenerationManifest::VerifyBytes(entry, "short")
                  .IsDataLoss());
  // Same size, different bytes: the CRC catches it.
  EXPECT_TRUE(GenerationManifest::VerifyBytes(entry, "originaX content")
                  .IsDataLoss());
}

TEST_F(ManifestTest, VerifyFileIsNotFoundWhenTheFileVanished) {
  GenerationManifest manifest;
  ASSERT_TRUE(manifest.Add("vehicle_9.cfcst", 4, 0x12345).ok());
  EXPECT_TRUE(GenerationManifest::VerifyFile(dir_, manifest.entries()[0])
                  .IsNotFound());
}

TEST_F(ManifestTest, DetectsEveryFaultInjectorCorruptionKind) {
  // Walk file tags until each corruption kind has been drawn at least
  // once; VerifyFile must flag every single one.
  FaultInjector rot(FaultProfile::BitRot(), /*seed=*/7);
  bool seen[4] = {false, false, false, false};
  for (uint64_t tag = 0; tag < 64; ++tag) {
    const std::string name = "vehicle_" + std::to_string(tag) + ".cfcst";
    WriteFile(name, "a model bundle with enough bytes to damage " +
                        std::to_string(tag));
    StatusOr<GenerationManifest> built =
        GenerationManifest::BuildFromDirectory(dir_);
    ASSERT_TRUE(built.ok());
    const ManifestEntry* entry = built.value().Find(name);
    ASSERT_NE(entry, nullptr);

    StatusOr<FileCorruptionKind> kind =
        rot.CorruptFileOnDisk(dir_ + "/" + name, tag);
    ASSERT_TRUE(kind.ok()) << kind.status().ToString();
    ASSERT_NE(kind.value(), FileCorruptionKind::kNone);
    seen[static_cast<int>(kind.value())] = true;

    Status verified = GenerationManifest::VerifyFile(dir_, *entry);
    EXPECT_TRUE(verified.IsDataLoss())
        << name << " corrupted by "
        << FileCorruptionKindToString(kind.value()) << ": "
        << verified.ToString();
    fs::remove(dir_ + "/" + name);
  }
  EXPECT_TRUE(seen[static_cast<int>(FileCorruptionKind::kBitFlip)]);
  EXPECT_TRUE(seen[static_cast<int>(FileCorruptionKind::kTruncate)]);
  EXPECT_TRUE(seen[static_cast<int>(FileCorruptionKind::kZeroFill)]);
}

TEST_F(ManifestTest, WriteReadManifestFileRoundTripsAndFlagsLegacy) {
  EXPECT_TRUE(ReadManifestFile(dir_).status().IsNotFound());

  GenerationManifest manifest;
  ASSERT_TRUE(manifest.Add("vehicle_1.cfcst", 42, 0xABCD).ok());
  ASSERT_TRUE(WriteManifestFile(dir_, manifest).ok());
  StatusOr<GenerationManifest> read = ReadManifestFile(dir_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value() == manifest);
  // Temp + rename: no .tmp leftover.
  EXPECT_FALSE(fs::exists(dir_ + "/MANIFEST.tmp"));

  // A hand-mangled manifest fails parse rather than half-loading.
  std::ofstream out(dir_ + "/MANIFEST", std::ios::trunc);
  out << "vupred-manifest v1\nentry vehicle_1.cfcst 42 43981\n";
  out.close();
  EXPECT_TRUE(ReadManifestFile(dir_).status().IsInvalidArgument());
}

VehicleDataset WeeklyDataset(int64_t vehicle_id) {
  const Country& italy = *CountryRegistry::Global().Find("IT").value();
  const Date start = Date::FromYmd(2016, 2, 1).value();
  std::vector<DailyUsageRecord> recs;
  for (int i = 0; i < 220; ++i) {
    DailyUsageRecord r;
    r.date = start.AddDays(i);
    const int wd = static_cast<int>(r.date.weekday());
    r.hours = wd < 5 ? 2.0 + static_cast<double>(vehicle_id) + wd +
                           0.05 * (i % 3)
                     : 0.0;
    r.avg_engine_load_pct = r.hours > 0 ? 50 : 0;
    r.fuel_used_l = r.hours * 12;
    recs.push_back(r);
  }
  VehicleInfo info;
  info.vehicle_id = vehicle_id;
  return VehicleDataset::Build(info, recs, italy).value();
}

TEST_F(ManifestTest, EveryPublishedBundleEntryCarriesTheCrcResidue) {
  // Each bundle ends in the CRC of the bytes before it, so its whole-file
  // CRC -- the one the MANIFEST records -- is the residue. The registry's
  // one-pass load check relies on exactly this.
  StatusOr<ModelRegistry> registry = ModelRegistry::Open({dir_, 4});
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  StatusOr<GenerationPublisher> pub = registry.value().NewGeneration();
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  const Algorithm algorithms[] = {
      Algorithm::kLinearRegression, Algorithm::kLasso, Algorithm::kSvr,
      Algorithm::kGradientBoosting};
  int64_t id = 0;
  for (Algorithm algorithm : algorithms) {
    ForecasterConfig cfg;
    cfg.algorithm = algorithm;
    cfg.windowing.lookback_w = 14;
    cfg.selection.top_k = 7;
    VehicleForecaster forecaster(cfg);
    ++id;
    ASSERT_TRUE(forecaster.Train(WeeklyDataset(id), 20, 200).ok());
    ASSERT_TRUE(pub.value().Add(id, forecaster).ok());
  }
  ASSERT_TRUE(pub.value().Commit(RegistryMeta{}).ok());
  ASSERT_TRUE(registry.value().Reload().ok());

  StatusOr<GenerationManifest> manifest = ReadManifestFile(
      fs::path(registry.value().BundlePath(1)).parent_path().string());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  size_t bundles = 0;
  for (const ManifestEntry& entry : manifest.value().entries()) {
    if (!ModelRegistry::ParseBundleFileName(entry.file).has_value()) continue;
    ++bundles;
    EXPECT_EQ(entry.crc32, kCrc32Residue) << entry.file;
  }
  EXPECT_EQ(bundles, std::size(algorithms));
}

}  // namespace
}  // namespace vup::serve
