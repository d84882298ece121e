#include "common/record_file.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_meta.h"
#include "common/crc32.h"
#include "common/random.h"
#include "serve/manifest.h"
#include "serve/model_registry.h"
#include "testing/framing.h"

namespace vup {
namespace {

namespace fs = std::filesystem;

constexpr char kMagic[] = "vupred-test v2";

std::vector<RecordLine> SampleRecords() {
  return {{"alpha", {"1"}},
          {"beta", {"x", "-2.5", "gen_000001"}},
          {"gamma", {}},
          {"alpha", {"1"}}};
}

TEST(RecordFileTest, EncodesMagicRecordsAndTrailer) {
  const std::string bytes = EncodeRecords(kMagic, SampleRecords());
  EXPECT_EQ(Unframed(bytes),
            "vupred-test v2\nalpha 1\nbeta x -2.5 gen_000001\ngamma\n"
            "alpha 1\n");
  EXPECT_EQ(bytes, Framed(Unframed(bytes)));
  EXPECT_EQ(EncodeRecords(kMagic, {}), Framed("vupred-test v2\n"));
}

TEST(RecordFileTest, RoundTrips) {
  const std::vector<std::vector<RecordLine>> cases = {
      {}, SampleRecords(), {{"k", {std::string(1000, 'v')}}}};
  for (const std::vector<RecordLine>& records : cases) {
    StatusOr<std::vector<RecordLine>> decoded =
        DecodeRecords(kMagic, EncodeRecords(kMagic, records));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), records);
  }
}

TEST(RecordFileTest, EveryTruncationFails) {
  const std::string bytes = EncodeRecords(kMagic, SampleRecords());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const Status status = DecodeRecords(kMagic, bytes.substr(0, cut)).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << "cut at " << cut;
  }
}

TEST(RecordFileTest, EveryByteChangeFails) {
  // A change confined to one byte is a burst of at most 8 bits, which
  // CRC-32 always detects; a change to the magic line is caught before.
  const std::string bytes = EncodeRecords(kMagic, SampleRecords());
  for (size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
      EXPECT_TRUE(DecodeRecords(kMagic, mutated).status().IsInvalidArgument())
          << "byte " << at << " bit " << bit;
    }
  }
}

TEST(RecordFileTest, RandomByteFlipsFail) {
  const std::string bytes = EncodeRecords(kMagic, SampleRecords());
  Rng rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = bytes;
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
    if (mutated == bytes) continue;
    EXPECT_TRUE(DecodeRecords(kMagic, mutated).status().IsInvalidArgument())
        << "trial " << trial;
  }
}

TEST(RecordFileTest, RandomGarbageFails) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage(static_cast<size_t>(rng.UniformInt(0, 512)), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.UniformInt(0, 255));
    EXPECT_TRUE(DecodeRecords(kMagic, garbage).status().IsInvalidArgument());
    EXPECT_TRUE(DecodeRecords(kMagic, "vupred-test v2\n" + garbage)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(RecordFileTest, RejectsBodiesThatBreakTheTokenRules) {
  const std::string bad_bodies[] = {
      "vupred-test v2\nalpha 1",       // No final newline.
      "vupred-test v2\n\n",            // Empty line.
      "vupred-test v2\nalpha  1\n",    // Double space.
      "vupred-test v2\n alpha 1\n",    // Leading space.
      "vupred-test v2\nalpha 1 \n",    // Trailing space.
      "vupred-test v2\nalpha 1\r\n",   // Carriage return.
      "vupred-test v2\nalpha\t1\n",    // Tab.
      std::string("vupred-test v2\nalpha \0\n", 23),  // NUL.
  };
  for (const std::string& body : bad_bodies) {
    EXPECT_TRUE(DecodeRecords(kMagic, Framed(body)).status().IsInvalidArgument())
        << body;
  }
}

TEST(RecordFileTest, OtherMagicFailsBeforeTheTrailer) {
  // An unframed v1 file names the format, not a bare CRC error.
  const Status status =
      DecodeRecords(kMagic, "vupred-test v1\nalpha 1\nend-test\n").status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("not a vupred-test v2 file"),
            std::string::npos)
      << status.ToString();
  // A magic that is only a prefix of the line is not the magic.
  EXPECT_FALSE(DecodeRecords(kMagic, Framed("vupred-test v22\n")).ok());
  EXPECT_FALSE(DecodeRecords(kMagic, Framed("vupred-test v2")).ok());
}

TEST(RecordFileTest, SidecarsPublishedAsV1ReadAsNotV2) {
  // Each sidecar in its last v1 layout, as a registry published before the
  // record-file framing holds it.
  struct V1File {
    const char* magic;
    std::string bytes;
    Status (*parse)(std::string_view);
  };
  const V1File files[] = {
      {"vupred-manifest v2",
       "vupred-manifest v1\nentry a.cfcst 1 2\nend-manifest\n",
       [](std::string_view b) {
         return serve::GenerationManifest::Parse(b).status();
       }},
      {"vupred-registry v2",
       "vupred-registry v1\nfleet_seed 42\nfleet_vehicles 40\n"
       "algorithm Lasso\n",
       [](std::string_view b) { return serve::RegistryMeta::Parse(b).status(); }},
      {"vupred-clusters v2", "vupred-clusters v1\nseed 1\n",
       [](std::string_view b) {
         return cluster::ClustersMeta::Parse(b).status();
       }},
  };
  for (const V1File& file : files) {
    const Status status = file.parse(file.bytes);
    EXPECT_TRUE(status.IsInvalidArgument()) << file.magic;
    EXPECT_NE(status.message().find(std::string("not a ") + file.magic +
                                    " file"),
              std::string::npos)
        << status.ToString();
  }
}

class RecordFileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_record_file_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(RecordFileIoTest, WriteReadRoundTripsUnderTheByteCap) {
  const std::string path = dir_ + "/sidecar";
  EXPECT_TRUE(ReadRecordFile(path, kMagic, 4096).status().IsNotFound());

  ASSERT_TRUE(WriteRecordFile(path, kMagic, SampleRecords()).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const uint64_t size = fs::file_size(path);
  EXPECT_EQ(size, EncodeRecords(kMagic, SampleRecords()).size());

  StatusOr<std::vector<RecordLine>> read = ReadRecordFile(path, kMagic, size);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), SampleRecords());
  // One byte over the cap is refused from the file's size alone.
  EXPECT_TRUE(
      ReadRecordFile(path, kMagic, size - 1).status().IsInvalidArgument());

  std::ofstream(path, std::ios::binary | std::ios::trunc) << "vupred-test v2\n";
  EXPECT_TRUE(ReadRecordFile(path, kMagic, 4096).status().IsInvalidArgument());
}

// One re-framed mutation loop per sidecar: each mutated body is framed
// again, so it passes the codec and meets the sidecar's own field decoder.
// Whatever that decoder accepts must serialize to bytes it accepts again;
// everything else is an InvalidArgument, never a crash.
template <typename Sidecar>
void MutateFramedBodies(std::string_view magic, const Sidecar& valid,
                        uint64_t seed) {
  const std::string body = Unframed(valid.Serialize());
  const std::string magic_line = std::string(magic) + "\n";
  ASSERT_EQ(body.substr(0, magic_line.size()), magic_line);
  std::vector<std::string> lines;
  for (size_t at = magic_line.size(); at < body.size();) {
    const size_t eol = body.find('\n', at);
    lines.push_back(body.substr(at, eol - at));
    at = eol + 1;
  }
  ASSERT_FALSE(lines.empty());

  Rng rng(seed);
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  const char kAlphabet[] = "0123456789-.eEnaifx_ ";
  constexpr int kTrials = 3000;
  int reached = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<std::string> mutated = lines;
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // Overwrite one byte of a record with a token byte.
        std::string& line = mutated[pick(mutated.size())];
        line[pick(line.size())] = kAlphabet[pick(sizeof(kAlphabet) - 1)];
        break;
      }
      case 1:  // Drop a record.
        mutated.erase(mutated.begin() +
                      static_cast<std::ptrdiff_t>(pick(mutated.size())));
        break;
      case 2: {  // Repeat a record.
        const std::string copy = mutated[pick(mutated.size())];
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(
                                             pick(mutated.size() + 1)),
                       copy);
        break;
      }
      default:  // Swap two records.
        std::swap(mutated[pick(mutated.size())],
                  mutated[pick(mutated.size())]);
        break;
    }
    std::string framed = magic_line;
    for (const std::string& line : mutated) framed += line + "\n";
    framed = Framed(std::move(framed));
    if (DecodeRecords(magic, framed).ok()) ++reached;
    StatusOr<Sidecar> parsed = Sidecar::Parse(framed);
    if (parsed.ok()) {
      EXPECT_TRUE(Sidecar::Parse(parsed.value().Serialize()).ok())
          << "trial " << trial;
    } else {
      EXPECT_TRUE(parsed.status().IsInvalidArgument())
          << "trial " << trial << ": " << parsed.status().ToString();
    }
  }
  // Most mutations pass the codec, so the field decoder is what meets them.
  EXPECT_GT(reached, kTrials / 2);
}

TEST(RecordFileSidecarTest, ManifestFieldDecoderMeetsGarbage) {
  serve::GenerationManifest manifest;
  ASSERT_TRUE(manifest.Add("clusters.meta", 812, 2381867102u).ok());
  ASSERT_TRUE(manifest.Add("registry_meta.txt", 64, 901283774u).ok());
  ASSERT_TRUE(manifest.Add("vehicle_7.cfcst", 5120, 4022250974u).ok());
  ASSERT_TRUE(manifest.Add("vehicle_8.cfcst", 5120, 17u).ok());
  MutateFramedBodies("vupred-manifest v2", manifest, 1);
}

TEST(RecordFileSidecarTest, RegistryMetaFieldDecoderMeetsGarbage) {
  serve::RegistryMeta meta;
  meta.fleet_seed = 1234;
  meta.fleet_vehicles = 40;
  meta.algorithm = "GB";
  MutateFramedBodies("vupred-registry v2", meta, 2);
}

TEST(RecordFileSidecarTest, ClustersMetaFieldDecoderMeetsGarbage) {
  cluster::ClustersMeta meta;
  meta.seed = 99;
  meta.acf_lags = 3;
  meta.inertia = 1.25;
  meta.scaling.mean = {0.5, -1.0, 3.0};
  meta.scaling.std = {1.0, 2.0, 0.25};
  meta.centroids = {{0.0, 0.1, -0.2}, {1.0, 1.1, 1.2}};
  meta.vehicles = {{100, 0, 2}, {101, 1, 2}, {250, 0, 5}};
  MutateFramedBodies("vupred-clusters v2", meta, 4);
}

}  // namespace
}  // namespace vup
