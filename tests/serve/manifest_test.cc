#include "serve/manifest.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/file_util.h"
#include "core/forecaster.h"
#include "serve/model_registry.h"
#include "telemetry/fault_injector.h"
#include "testing/framing.h"

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

  /// Reads `entry`'s file from `dir_` and verifies it against `entry`.
  Status VerifyOnDisk(const ManifestEntry& entry) {
    StatusOr<std::string> bytes =
        ReadFileCapped(dir_ + "/" + entry.file, 1 << 20);
    if (!bytes.ok()) return bytes.status();
    return GenerationManifest::VerifyBytes(entry, bytes.value());
  }

  std::string dir_;
};

TEST_F(ManifestTest, SerializeParseRoundTrips) {
  GenerationManifest manifest;
  ASSERT_TRUE(manifest.Add("b.cfcst", 10, 0xDEADBEEF).ok());
  ASSERT_TRUE(manifest.Add("a.cfcst", 0, 0).ok());
  ASSERT_TRUE(manifest.Add("clusters.meta", 123, 0xFFFFFFFF).ok());

  StatusOr<GenerationManifest> parsed =
      GenerationManifest::Parse(manifest.Serialize());
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
  const auto parse = [](const std::string& body) {
    return GenerationManifest::Parse(Framed(body)).status();
  };
  // Bad magic.
  EXPECT_TRUE(parse("vupred-manifest v9\n").IsInvalidArgument());
  // The trailer is missing or does not match (truncation must always be
  // detectable).
  EXPECT_TRUE(GenerationManifest::Parse("vupred-manifest v2\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GenerationManifest::Parse("vupred-manifest v2\nentry a 1 2\n")
                  .status()
                  .IsInvalidArgument());
  // Missing trailing newline before the trailer.
  EXPECT_TRUE(parse("vupred-manifest v2\nentry a 1 2").IsInvalidArgument());
  // Unsorted entries.
  EXPECT_TRUE(parse("vupred-manifest v2\nentry b 1 2\nentry a 1 2\n")
                  .IsInvalidArgument());
  // Duplicate entries.
  EXPECT_TRUE(parse("vupred-manifest v2\nentry a 1 2\nentry a 1 2\n")
                  .IsInvalidArgument());
  // Garbage numbers.
  EXPECT_TRUE(parse("vupred-manifest v2\nentry a x 2\n").IsInvalidArgument());
  EXPECT_TRUE(parse("vupred-manifest v2\nentry a 1 99999999999\n")
                  .IsInvalidArgument());
  // Wrong token count.
  EXPECT_TRUE(parse("vupred-manifest v2\nentry a 1\n").IsInvalidArgument());
  // A record that is not an entry.
  EXPECT_TRUE(parse("vupred-manifest v2\nentry a 1 2\nend-manifest\n")
                  .IsInvalidArgument());
  // Empty manifest is fine.
  EXPECT_TRUE(GenerationManifest::Parse(Framed("vupred-manifest v2\n")).ok());
}

TEST_F(ManifestTest, BuildFromDirectoryIsDeterministicAndSkipsLeftovers) {
  WriteFile("vehicle_2.cfcst", Framed("model two"));
  WriteFile("vehicle_1.cfcst", Framed("model one"));
  WriteFile("registry_meta.txt", Framed("meta"));
  WriteFile("MANIFEST", "a stale manifest must never checksum itself");
  WriteFile("vehicle_3.cfcst.tmp", "torn install leftover");

  StatusOr<GenerationManifest> a =
      GenerationManifest::BuildFromDirectory(dir_, {});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  StatusOr<GenerationManifest> b =
      GenerationManifest::BuildFromDirectory(dir_, {});
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value() == b.value());
  ASSERT_EQ(a.value().size(), 3u);
  EXPECT_EQ(a.value().entries()[0].file, "registry_meta.txt");
  EXPECT_EQ(a.value().entries()[1].file, "vehicle_1.cfcst");
  EXPECT_EQ(a.value().entries()[2].file, "vehicle_2.cfcst");
  EXPECT_EQ(a.value().entries()[1].size, 9u + kCrc32TrailerBytes);
  EXPECT_EQ(a.value().Find("MANIFEST"), nullptr);
  EXPECT_EQ(a.value().Find("vehicle_3.cfcst.tmp"), nullptr);
  // Every listed file verifies against the bytes on disk.
  for (const ManifestEntry& entry : a.value().entries()) {
    EXPECT_TRUE(VerifyOnDisk(entry).ok()) << entry.file;
  }
  // A staged file that does not end in its own trailer is refused.
  WriteFile("clusters.meta", "unframed");
  EXPECT_TRUE(
      GenerationManifest::BuildFromDirectory(dir_, {}).status().IsDataLoss());
}

TEST_F(ManifestTest, BuildFromDirectoryTakesRecordedEntriesAtTheirSize) {
  WriteFile("vehicle_1.cfcst", Framed("model one"));
  WriteFile("vehicle_2.cfcst", Framed("model two"));
  WriteFile("clusters.meta", Framed("clusters"));
  const uint64_t size = 9 + kCrc32TrailerBytes;
  // A recorded trailer the bytes on disk do not carry shows which entries
  // were taken unread.
  GenerationManifest::KnownEntries known;
  known["vehicle_1.cfcst"] = {"vehicle_1.cfcst", size, 0x12345678};
  known["vehicle_2.cfcst"] = {"vehicle_2.cfcst", size + 1, 0x12345678};
  known["vehicle_9.cfcst"] = {"vehicle_9.cfcst", size, 0x12345678};

  StatusOr<GenerationManifest> built =
      GenerationManifest::BuildFromDirectory(dir_, known);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built.value().size(), 3u);
  // At its recorded size: the recorded entry.
  EXPECT_EQ(*built.value().Find("vehicle_1.cfcst"),
            (ManifestEntry{"vehicle_1.cfcst", size, 0x12345678}));
  // Size changed since it was recorded: read back, listed as it is.
  EXPECT_TRUE(VerifyOnDisk(*built.value().Find("vehicle_2.cfcst")).ok());
  EXPECT_TRUE(VerifyOnDisk(*built.value().Find("clusters.meta")).ok());
  // A recorded file that is not on disk is not listed.
  EXPECT_EQ(built.value().Find("vehicle_9.cfcst"), nullptr);

  // A recorded file whose size changed is checked like a foreign one.
  WriteFile("vehicle_1.cfcst", "unframed, other size");
  EXPECT_TRUE(GenerationManifest::BuildFromDirectory(dir_, known)
                  .status()
                  .IsDataLoss());
}

TEST_F(ManifestTest, FromEntriesSortsOnceAndRejectsDuplicates) {
  std::vector<ManifestEntry> entries;
  for (int i = 999; i >= 0; --i) {
    entries.push_back({"vehicle_" + std::to_string(i) + ".cfcst",
                       static_cast<uint64_t>(i), static_cast<uint32_t>(i)});
  }
  GenerationManifest added;
  for (const ManifestEntry& e : entries) {
    ASSERT_TRUE(added.Add(e.file, e.size, e.crc32).ok());
  }
  StatusOr<GenerationManifest> built = GenerationManifest::FromEntries(entries);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_TRUE(built.value() == added);

  entries.push_back(entries[500]);
  EXPECT_TRUE(
      GenerationManifest::FromEntries(entries).status().IsInvalidArgument());
  entries.pop_back();
  entries.push_back({"a/b", 1, 1});
  EXPECT_TRUE(
      GenerationManifest::FromEntries(entries).status().IsInvalidArgument());
  EXPECT_EQ(GenerationManifest::FromEntries({}).value().size(), 0u);
}

TEST_F(ManifestTest, VerifyBytesCatchesSizeThenCrcMismatch) {
  WriteFile("vehicle_1.cfcst", Framed("original content"));
  StatusOr<GenerationManifest> built =
      GenerationManifest::BuildFromDirectory(dir_, {});
  ASSERT_TRUE(built.ok());
  const ManifestEntry& entry = built.value().entries()[0];

  EXPECT_TRUE(
      GenerationManifest::VerifyBytes(entry, Framed("original content")).ok());
  EXPECT_TRUE(GenerationManifest::VerifyBytes(entry, Framed("short"))
                  .IsDataLoss());
  // Same size, different bytes: the trailer check catches it.
  EXPECT_TRUE(GenerationManifest::VerifyBytes(
                  entry, Unframed(Framed("original content")) + "abcd")
                  .IsDataLoss());
  // Same size, different bytes that are framed themselves: their trailer
  // is not the listed one.
  EXPECT_TRUE(GenerationManifest::VerifyBytes(entry, Framed("originaX content"))
                  .IsDataLoss());
}

TEST_F(ManifestTest, DetectsEveryFaultInjectorCorruptionKind) {
  // Walk file tags until each corruption kind has been drawn at least
  // once; verification must flag every single one.
  FaultInjector rot(FaultProfile::BitRot(), /*seed=*/7);
  bool seen[4] = {false, false, false, false};
  for (uint64_t tag = 0; tag < 64; ++tag) {
    const std::string name = "vehicle_" + std::to_string(tag) + ".cfcst";
    WriteFile(name, Framed("a model bundle with enough bytes to damage " +
                           std::to_string(tag)));
    StatusOr<GenerationManifest> built =
        GenerationManifest::BuildFromDirectory(dir_, {});
    ASSERT_TRUE(built.ok());
    const ManifestEntry* entry = built.value().Find(name);
    ASSERT_NE(entry, nullptr);

    StatusOr<FileCorruptionKind> kind =
        rot.CorruptFileOnDisk(dir_ + "/" + name, tag);
    ASSERT_TRUE(kind.ok()) << kind.status().ToString();
    ASSERT_NE(kind.value(), FileCorruptionKind::kNone);
    seen[static_cast<int>(kind.value())] = true;

    Status verified = VerifyOnDisk(*entry);
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
  out << "vupred-manifest v2\nentry vehicle_1.cfcst 42 43981\n";
  out.close();
  EXPECT_TRUE(ReadManifestFile(dir_).status().IsInvalidArgument());
  // So does one published before the record-file framing, with a message
  // that names the format rather than a bare CRC error.
  WriteFile("MANIFEST",
            "vupred-manifest v1\nentry vehicle_1.cfcst 42 43981\n"
            "end-manifest\n");
  const Status v1 = ReadManifestFile(dir_).status();
  EXPECT_TRUE(v1.IsInvalidArgument());
  EXPECT_NE(v1.message().find("not a vupred-manifest v2 file"),
            std::string::npos)
      << v1.ToString();
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

TEST_F(ManifestTest, EveryPublishedEntryIsItsFilesTrailer) {
  // Every file of a generation ends in the CRC-32 of the bytes before it,
  // and the MANIFEST records exactly that trailer: a digest that differs
  // from file to file, unlike the whole-file CRC of a framed buffer.
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

  const std::string gen =
      fs::path(registry.value().BundlePath(1)).parent_path().string();
  StatusOr<GenerationManifest> manifest = ReadManifestFile(gen);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  size_t bundles = 0;
  std::set<uint32_t> trailers;
  for (const ManifestEntry& entry : manifest.value().entries()) {
    StatusOr<std::string> bytes =
        ReadFileCapped(gen + "/" + entry.file, 1 << 20);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_EQ(bytes.value().size(), entry.size) << entry.file;
    const std::optional<uint32_t> trailer =
        CheckCrc32Trailer(bytes.value().data(), bytes.value().size());
    ASSERT_TRUE(trailer.has_value()) << entry.file;
    EXPECT_EQ(entry.crc32, *trailer) << entry.file;
    EXPECT_EQ(entry.crc32, Crc32(bytes.value().data(), entry.size - 4))
        << entry.file;
    trailers.insert(entry.crc32);
    if (ModelRegistry::ParseBundleFileName(entry.file).has_value()) ++bundles;
  }
  EXPECT_EQ(bundles, std::size(algorithms));
  EXPECT_EQ(trailers.size(), manifest.value().size());
}

}  // namespace
}  // namespace vup::serve
