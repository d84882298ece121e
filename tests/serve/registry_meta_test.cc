#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "serve/model_registry.h"
#include "testing/framing.h"

namespace vup::serve {
namespace {

/// Frames `text` first, so each case reaches the field check it names.
StatusOr<RegistryMeta> ParseText(const std::string& text) {
  return RegistryMeta::Parse(Framed(text));
}

TEST(RegistryMetaTest, SerializeParseRoundtrip) {
  RegistryMeta meta;
  meta.fleet_seed = 12345;
  meta.fleet_vehicles = 77;
  meta.algorithm = "GB";
  StatusOr<RegistryMeta> parsed = RegistryMeta::Parse(meta.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), meta);
}

TEST(RegistryMetaTest, KeysParseInAnyOrder) {
  StatusOr<RegistryMeta> parsed = ParseText(
      "vupred-registry v2\n"
      "algorithm SVR\n"
      "fleet_vehicles 9\n"
      "fleet_seed 3\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().fleet_seed, 3u);
  EXPECT_EQ(parsed.value().fleet_vehicles, 9u);
  EXPECT_EQ(parsed.value().algorithm, "SVR");
}

TEST(RegistryMetaTest, RejectsMissingMagic) {
  EXPECT_FALSE(ParseText("").ok());
  EXPECT_FALSE(ParseText("fleet_seed 42\n").ok());
  EXPECT_FALSE(ParseText("vupred-registry v1\nfleet_seed 42\n").ok());
}

TEST(RegistryMetaTest, RejectsFilesWithoutTrailingNewline) {
  // Truncation evidence: a writer killed mid-line must never yield a
  // shorter-but-plausible value ("algorithm La" from "algorithm Lasso\n").
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed 42\n"
                         "fleet_vehicles 40\n"
                         "algorithm La")
                   .ok());
  EXPECT_FALSE(ParseText("vupred-registry v2").ok());
}

TEST(RegistryMetaTest, RejectsMissingKeys) {
  // Truncated files (a killed writer) must be an error, never a silently
  // defaulted meta.
  EXPECT_FALSE(ParseText("vupred-registry v2\n").ok());
  EXPECT_FALSE(ParseText("vupred-registry v2\nfleet_seed 42\n").ok());
  EXPECT_FALSE(
      ParseText("vupred-registry v2\nfleet_seed 42\nalgorithm Lasso\n")
          .ok());
}

TEST(RegistryMetaTest, RejectsDuplicateKeys) {
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed 1\n"
                         "fleet_seed 2\n"
                         "fleet_vehicles 4\n"
                         "algorithm Lasso\n")
                   .ok());
}

TEST(RegistryMetaTest, RejectsUnknownKeysAndGarbageLines) {
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed 1\n"
                         "fleet_vehicles 4\n"
                         "algorithm Lasso\n"
                         "mystery_key 1\n")
                   .ok());
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed 1\n"
                         "this is not a key value line at all\n"
                         "fleet_vehicles 4\n"
                         "algorithm Lasso\n")
                   .ok());
}

TEST(RegistryMetaTest, RejectsAbsurdValues) {
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed 1\n"
                         "fleet_vehicles 0\n"
                         "algorithm Lasso\n")
                   .ok());
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed 1\n"
                         "fleet_vehicles -4\n"
                         "algorithm Lasso\n")
                   .ok());
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed 1\n"
                         "fleet_vehicles 999999999999\n"
                         "algorithm Lasso\n")
                   .ok());
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed not_a_number\n"
                         "fleet_vehicles 4\n"
                         "algorithm Lasso\n")
                   .ok());
  // Token bombs: an over-long algorithm name must not be swallowed.
  EXPECT_FALSE(ParseText("vupred-registry v2\n"
                         "fleet_seed 1\n"
                         "fleet_vehicles 4\n"
                         "algorithm " +
                         std::string(100'000, 'A') + "\n")
                   .ok());
}

// Mirrors ml/serialize_fuzz_test: every prefix truncation of a valid meta
// either parses to the full meta (only trailing whitespace cut) or fails
// with a clean Status -- never a crash, hang, or half-initialized result.
TEST(RegistryMetaFuzzTest, EveryTruncationFailsCleanly) {
  RegistryMeta meta;
  meta.fleet_seed = 42;
  meta.fleet_vehicles = 40;
  meta.algorithm = "Lasso";
  const std::string full = meta.Serialize();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    StatusOr<RegistryMeta> parsed = RegistryMeta::Parse(full.substr(0, cut));
    if (parsed.ok()) {
      EXPECT_EQ(parsed.value(), meta) << "cut at " << cut;
    }
  }
}

TEST(RegistryMetaFuzzTest, RandomByteFlipsNeverCrash) {
  RegistryMeta meta;
  const std::string full = meta.Serialize();
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = full;
    const size_t flips =
        1 + static_cast<size_t>(rng.UniformInt(0, 3));
    for (size_t f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
    StatusOr<RegistryMeta> parsed = RegistryMeta::Parse(mutated);
    if (parsed.ok()) {
      // A flip that survives parsing must still produce sane bounds.
      EXPECT_GT(parsed.value().fleet_vehicles, 0u);
    }
  }
}

TEST(RegistryMetaFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 512));
    std::string garbage(len, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    (void)ParseText(garbage);
    (void)ParseText("vupred-registry v2\n" + garbage);
  }
}

TEST(RegistryMetaFileTest, WriteReadRoundtripAndMissingFile) {
  const std::string dir =
      ::testing::TempDir() + "/vup_registry_meta_file";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  RegistryMeta meta;
  meta.fleet_seed = 7;
  meta.fleet_vehicles = 12;
  meta.algorithm = "RF";
  ASSERT_TRUE(WriteRegistryMetaFile(dir, meta).ok());
  StatusOr<RegistryMeta> read = ReadRegistryMetaFile(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), meta);

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(ReadRegistryMetaFile(dir).status().IsNotFound());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vup::serve
