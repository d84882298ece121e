#ifndef VUPRED_CLUSTER_KMEANS_H_
#define VUPRED_CLUSTER_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/statusor.h"

namespace vup::cluster {

/// Deterministic seeded k-means over standardized profile vectors.
struct KMeansConfig {
  size_t k = 4;
  size_t max_iterations = 100;
  /// Convergence threshold on total centroid movement (squared L2).
  double tolerance = 1e-10;
  /// Seed of the k-means++ initialization (routed through vup::Rng; no
  /// OS entropy source anywhere, so same seed => byte-identical result).
  uint64_t seed = 42;
};

struct KMeansResult {
  /// assignments[i] = cluster of points[i], in [0, k).
  std::vector<int> assignments;
  /// Row-major k x dim centroid matrix.
  std::vector<std::vector<double>> centroids;
  /// Sum of squared distances of every point to its centroid.
  double inertia = 0.0;
  size_t iterations = 0;
};

/// Lloyd's algorithm with k-means++ initialization. Requirements:
/// k >= 1, points non-empty, all points the same dimension; k is capped at
/// the number of *distinct* points reachable by the init (duplicate-heavy
/// inputs may produce empty clusters, which are re-seeded on the farthest
/// point, so every returned centroid owns at least one point).
///
/// Determinism: for a fixed (points, config) the result is byte-identical
/// across runs and platforms -- iteration order is index order, ties in
/// distance go to the lower cluster id, and all randomness comes from the
/// seeded Rng.
StatusOr<KMeansResult> KMeans(const std::vector<std::vector<double>>& points,
                              const KMeansConfig& config);

}  // namespace vup::cluster

#endif  // VUPRED_CLUSTER_KMEANS_H_
