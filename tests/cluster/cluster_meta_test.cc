#include "cluster/cluster_meta.h"

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/framing.h"

namespace vup::cluster {
namespace {

ClustersMeta SampleMeta() {
  ClustersMeta meta;
  meta.seed = 99;
  meta.acf_lags = 3;
  meta.inertia = 1.25;
  meta.scaling.mean = {0.5, -1.0, 3.0};
  meta.scaling.std = {1.0, 2.0, 0.25};
  meta.centroids = {{0.0, 0.1, -0.2}, {1.0, 1.1, 1.2}};
  meta.vehicles = {{100, 0, 2}, {101, 1, 2}, {250, 0, 5}};
  return meta;
}

StatusOr<ClustersMeta> ParseString(const std::string& text) {
  return ClustersMeta::Parse(text);
}

/// Parses `body` framed, so a tampered body reaches the field check it
/// targets instead of failing at the trailer.
StatusOr<ClustersMeta> ParseBody(const std::string& body) {
  return ClustersMeta::Parse(Framed(body));
}

TEST(ClusterMetaTest, ReservedModelIds) {
  EXPECT_EQ(ClusterModelId(0), -1000);
  EXPECT_EQ(ClusterModelId(7), -1007);
  EXPECT_EQ(TypeModelId(0), -2000);
  EXPECT_EQ(TypeModelId(3), -2003);
  EXPECT_EQ(kGlobalModelId, -3000);
}

TEST(ClusterMetaTest, SerializeParseRoundTripIsByteIdentical) {
  ClustersMeta meta = SampleMeta();
  const std::string bytes = meta.Serialize();
  StatusOr<ClustersMeta> parsed = ParseString(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Serialize(), bytes);
  EXPECT_EQ(parsed.value().seed, 99u);
  EXPECT_EQ(parsed.value().acf_lags, 3u);
  EXPECT_EQ(parsed.value().k(), 2u);
  ASSERT_EQ(parsed.value().vehicles.size(), 3u);
  EXPECT_EQ(parsed.value().vehicles[2].vehicle_id, 250);
}

TEST(ClusterMetaTest, LookupsAndNotFound) {
  ClustersMeta meta = SampleMeta();
  EXPECT_EQ(meta.ClusterOf(101).value(), 1);
  EXPECT_EQ(meta.TypeOf(250).value(), 5);
  EXPECT_TRUE(meta.ClusterOf(999).status().IsNotFound());
  EXPECT_TRUE(meta.TypeOf(999).status().IsNotFound());
}

TEST(ClusterMetaTest, AssignProfilePicksNearestCentroid) {
  ClustersMeta meta = SampleMeta();
  // Raw features that standardize to roughly the second centroid.
  UsageProfile near_second;
  near_second.features = {0.5 + 1.0 * 1.0, -1.0 + 2.0 * 1.1,
                          3.0 + 0.25 * 1.2};
  EXPECT_EQ(meta.AssignProfile(near_second).value(), 1);

  UsageProfile near_first;
  near_first.features = {0.5, -1.0 + 2.0 * 0.1, 3.0 - 0.25 * 0.2};
  EXPECT_EQ(meta.AssignProfile(near_first).value(), 0);

  UsageProfile wrong_dim;
  wrong_dim.features = {1.0};
  EXPECT_FALSE(meta.AssignProfile(wrong_dim).ok());
}

TEST(ClusterMetaTest, AnyTruncationIsDetected) {
  const std::string bytes = SampleMeta().Serialize();
  // Chopping the stream anywhere -- including dropping only the final
  // newline -- must fail parsing, never return a plausible shorter meta.
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<ClustersMeta> parsed = ParseString(bytes.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "truncation at byte " << len
                              << " parsed successfully";
  }
}

TEST(ClusterMetaTest, TamperingIsDetected) {
  ClustersMeta meta = SampleMeta();
  const std::string body = Unframed(meta.Serialize());

  {  // Wrong magic.
    StatusOr<ClustersMeta> parsed =
        ParseBody("vupred-clusters v9\n" + body);
    EXPECT_FALSE(parsed.ok());
  }
  {  // Vehicle cluster id out of range for k=2.
    ClustersMeta bad = meta;
    bad.vehicles[1].cluster_id = 5;
    EXPECT_FALSE(ParseString(bad.Serialize()).ok());
  }
  {  // Vehicle type out of range.
    ClustersMeta bad = meta;
    bad.vehicles[0].vehicle_type = 99;
    EXPECT_FALSE(ParseString(bad.Serialize()).ok());
  }
  {  // Non-ascending vehicle ids.
    ClustersMeta bad = meta;
    std::swap(bad.vehicles[0], bad.vehicles[2]);
    EXPECT_FALSE(ParseString(bad.Serialize()).ok());
  }
  {  // Trailing records after the last vehicle.
    EXPECT_FALSE(ParseBody(body + "extra\n").ok());
  }
  {  // Count mismatch: claim one more vehicle than present.
    std::string bytes = body;
    const size_t pos = bytes.find("vehicles 3");
    ASSERT_NE(pos, std::string::npos);
    bytes.replace(pos, 10, "vehicles 4");
    EXPECT_FALSE(ParseBody(bytes).ok());
  }
  {  // Non-finite centroid coordinate.
    std::string bytes = body;
    const size_t pos = bytes.find("centroid 0");
    ASSERT_NE(pos, std::string::npos);
    bytes.replace(bytes.find(' ', pos + 11), 2, " nan");
    EXPECT_FALSE(ParseBody(bytes).ok());
  }
}

TEST(ClusterMetaTest, FileRoundTripAndNotFound) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "vup_cluster_meta_test")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EXPECT_TRUE(ReadClustersMetaFile(dir).status().IsNotFound());

  ClustersMeta meta = SampleMeta();
  ASSERT_TRUE(WriteClustersMetaFile(dir, meta).ok());
  StatusOr<ClustersMeta> read = ReadClustersMetaFile(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().Serialize(), meta.Serialize());

  // No temp file left behind by the atomic install.
  EXPECT_FALSE(std::filesystem::exists(dir + "/clusters.meta.tmp"));

  // Rewriting in place replaces the content atomically.
  meta.seed = 123;
  ASSERT_TRUE(WriteClustersMetaFile(dir, meta).ok());
  EXPECT_EQ(ReadClustersMetaFile(dir).value().seed, 123u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vup::cluster
