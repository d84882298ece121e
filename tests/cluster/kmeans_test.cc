#include "cluster/kmeans.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace vup::cluster {
namespace {

/// Two well-separated 2-D blobs around (0,0) and (10,10).
std::vector<std::vector<double>> TwoBlobs() {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 5; ++i) {
    points.push_back({0.1 * i, -0.1 * i});
    points.push_back({10.0 + 0.1 * i, 10.0 - 0.1 * i});
  }
  return points;
}

TEST(KMeansTest, SeparatedBlobsArePartitioned) {
  std::vector<std::vector<double>> points = TwoBlobs();
  KMeansConfig config;
  config.k = 2;
  StatusOr<KMeansResult> result = KMeans(points, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().assignments.size(), points.size());
  ASSERT_EQ(result.value().centroids.size(), 2u);
  // Even-index points form one blob, odd-index points the other; all
  // members of a blob must land in the same cluster, the blobs in
  // different clusters.
  const int low_cluster = result.value().assignments[0];
  const int high_cluster = result.value().assignments[1];
  EXPECT_NE(low_cluster, high_cluster);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(result.value().assignments[i],
              i % 2 == 0 ? low_cluster : high_cluster)
        << "point " << i;
  }
  EXPECT_LT(result.value().inertia, 1.0);
}

TEST(KMeansTest, SameSeedIsByteDeterministic) {
  std::vector<std::vector<double>> points = TwoBlobs();
  points.push_back({5.0, 5.0});
  KMeansConfig config;
  config.k = 3;
  config.seed = 7;
  StatusOr<KMeansResult> a = KMeans(points, config);
  StatusOr<KMeansResult> b = KMeans(points, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().assignments, b.value().assignments);
  EXPECT_EQ(a.value().centroids, b.value().centroids);
  EXPECT_EQ(a.value().inertia, b.value().inertia);
  EXPECT_EQ(a.value().iterations, b.value().iterations);
}

TEST(KMeansTest, KIsCappedAtPointCount) {
  std::vector<std::vector<double>> points = {{0.0}, {5.0}, {10.0}};
  KMeansConfig config;
  config.k = 10;
  StatusOr<KMeansResult> result = KMeans(points, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result.value().centroids.size(), points.size());
  EXPECT_NEAR(result.value().inertia, 0.0, 1e-12);
}

TEST(KMeansTest, EveryCentroidOwnsAPoint) {
  // Duplicate-heavy input: k-means++ can only reach 2 distinct seeds.
  std::vector<std::vector<double>> points = {{1.0}, {1.0}, {1.0}, {9.0}};
  KMeansConfig config;
  config.k = 4;
  StatusOr<KMeansResult> result = KMeans(points, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<size_t> owned(result.value().centroids.size(), 0);
  for (int a : result.value().assignments) {
    ASSERT_GE(a, 0);
    ASSERT_LT(static_cast<size_t>(a), owned.size());
    ++owned[static_cast<size_t>(a)];
  }
  for (size_t c = 0; c < owned.size(); ++c) {
    EXPECT_GT(owned[c], 0u) << "empty cluster " << c;
  }
}

TEST(KMeansTest, RejectsInvalidInput) {
  KMeansConfig config;
  EXPECT_TRUE(KMeans({}, config).status().IsInvalidArgument());

  config.k = 0;
  EXPECT_TRUE(KMeans({{1.0}}, config).status().IsInvalidArgument());

  config.k = 1;
  EXPECT_TRUE(
      KMeans({{1.0, 2.0}, {1.0}}, config).status().IsInvalidArgument());

  EXPECT_TRUE(
      KMeans({{std::numeric_limits<double>::quiet_NaN()}}, config)
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      KMeans({{std::numeric_limits<double>::infinity()}}, config)
          .status()
          .IsInvalidArgument());
}

}  // namespace
}  // namespace vup::cluster
