#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"

namespace vup::cluster {

namespace {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double delta = a[i] - b[i];
    d += delta * delta;
  }
  return d;
}

/// k-means++ seeding: first center uniform, each next center picked with
/// probability proportional to its squared distance to the nearest chosen
/// center. All draws come from the seeded Rng; when every remaining point
/// coincides with a chosen center (total weight 0) the procedure stops
/// early and returns fewer centers.
std::vector<std::vector<double>> PlusPlusInit(
    const std::vector<std::vector<double>>& points, size_t k, Rng* rng) {
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  centers.push_back(points[static_cast<size_t>(rng->UniformInt(
      0, static_cast<int64_t>(points.size()) - 1))]);

  std::vector<double> dist(points.size());
  while (centers.size() < k) {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const std::vector<double>& c : centers) {
        best = std::min(best, SquaredDistance(points[i], c));
      }
      dist[i] = best;
      total += best;
    }
    if (total <= 0.0) break;  // All remaining points are duplicates.
    double target = rng->Uniform() * total;
    size_t chosen = points.size() - 1;
    double acc = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      acc += dist[i];
      if (acc >= target) {
        chosen = i;
        break;
      }
    }
    centers.push_back(points[chosen]);
  }
  return centers;
}

}  // namespace

StatusOr<KMeansResult> KMeans(const std::vector<std::vector<double>>& points,
                              const KMeansConfig& config) {
  if (points.empty()) return Status::InvalidArgument("no points to cluster");
  if (config.k == 0) return Status::InvalidArgument("k must be >= 1");
  const size_t dim = points.front().size();
  if (dim == 0) return Status::InvalidArgument("zero-dimensional points");
  for (const std::vector<double>& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("points have mixed dimensions");
    }
    for (double v : p) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite point coordinate");
      }
    }
  }

  const size_t k = std::min(config.k, points.size());
  Rng rng(config.seed);
  KMeansResult result;
  result.centroids = PlusPlusInit(points, k, &rng);
  const size_t actual_k = result.centroids.size();
  result.assignments.assign(points.size(), 0);

  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Assignment step: nearest centroid, ties to the lower cluster id.
    for (size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      int best_c = 0;
      for (size_t c = 0; c < actual_k; ++c) {
        const double d = SquaredDistance(points[i], result.centroids[c]);
        if (d < best) {
          best = d;
          best_c = static_cast<int>(c);
        }
      }
      result.assignments[i] = best_c;
    }

    // Update step.
    std::vector<std::vector<double>> next(actual_k,
                                          std::vector<double>(dim, 0.0));
    std::vector<size_t> counts(actual_k, 0);
    for (size_t i = 0; i < points.size(); ++i) {
      const int c = result.assignments[i];
      ++counts[static_cast<size_t>(c)];
      for (size_t d = 0; d < dim; ++d) {
        next[static_cast<size_t>(c)][d] += points[i][d];
      }
    }
    for (size_t c = 0; c < actual_k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed on the point farthest from its centroid,
        // deterministically (first index wins ties).
        size_t farthest = 0;
        double worst = -1.0;
        for (size_t i = 0; i < points.size(); ++i) {
          const double d = SquaredDistance(
              points[i],
              result.centroids[static_cast<size_t>(result.assignments[i])]);
          if (d > worst) {
            worst = d;
            farthest = i;
          }
        }
        next[c] = points[farthest];
      } else {
        for (size_t d = 0; d < dim; ++d) {
          next[c][d] /= static_cast<double>(counts[c]);
        }
      }
    }

    double movement = 0.0;
    for (size_t c = 0; c < actual_k; ++c) {
      movement += SquaredDistance(result.centroids[c], next[c]);
    }
    result.centroids = std::move(next);
    if (movement <= config.tolerance) break;
  }

  // Final assignment against the final centroids, then inertia.
  result.inertia = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    int best_c = 0;
    for (size_t c = 0; c < actual_k; ++c) {
      const double d = SquaredDistance(points[i], result.centroids[c]);
      if (d < best) {
        best = d;
        best_c = static_cast<int>(c);
      }
    }
    result.assignments[i] = best_c;
    result.inertia += best;
  }
  return result;
}

}  // namespace vup::cluster
