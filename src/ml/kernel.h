#ifndef VUPRED_ML_KERNEL_H_
#define VUPRED_ML_KERNEL_H_

#include <cstdint>
#include <list>
#include <span>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "linalg/matrix.h"

namespace vup {

/// Kernel families supported by the SVR. The paper's configuration is RBF.
enum class KernelType : int {
  kRbf = 0,
  kLinear = 1,
  kPolynomial = 2,
};

std::string_view KernelTypeToString(KernelType t);

/// Kernel hyper-parameters.
///   RBF:        k(a,b) = exp(-gamma * ||a-b||^2)
///   Linear:     k(a,b) = a.b
///   Polynomial: k(a,b) = (gamma * a.b + coef0)^degree
/// gamma <= 0 means "auto": 1 / num_features, resolved at evaluation time
/// (the scikit-learn 'auto' convention; on standardized features this keeps
/// RBF distances in a useful range).
struct KernelParams {
  KernelType type = KernelType::kRbf;
  double gamma = -1.0;  // <= 0 -> 1 / num_features.
  double coef0 = 0.0;
  int degree = 3;

  /// Gamma actually used for inputs with `num_features` dimensions.
  double EffectiveGamma(size_t num_features) const;
};

/// k(a, b); sizes must match (checked).
double KernelFunction(const KernelParams& params, std::span<const double> a,
                      std::span<const double> b);

/// Full Gram matrix K_ij = k(row_i, row_j), symmetric. Every entry is
/// bitwise KernelFunction(params, row_i, row_j).
Matrix KernelMatrix(const KernelParams& params, const Matrix& x);

/// LRU cache of Gram-matrix rows K(i, .) over a fixed design matrix,
/// computed on first access. Lets an SMO solver that touches only some
/// rows avoid the O(n^2 d) full-Gram precompute while bounding memory to
/// `capacity` rows.
///
/// Determinism: a cached row is bitwise-identical to a fresh recompute
/// (the property the kernel-cache test suite asserts). A miss fills
/// K(i, j) from an already-cached row j where possible -- sound bitwise,
/// not just mathematically, because every supported kernel is exactly
/// symmetric in floating point: RBF squares coordinate differences
/// ((a-b)^2 == (b-a)^2 bitwise), and linear/polynomial reduce to a dot
/// product whose per-term products commute.
///
/// Lifetime of returned spans: a span stays valid while its row is
/// cached. The two most recently accessed rows are never evicted
/// (capacity is clamped to >= 2), so the usual pair-access pattern
/// Row(i) / Row(j) is safe without copying.
///
/// Every hit/miss/eviction also bumps the process-wide counters
/// vupred_kernel_cache_{hits,misses,evictions}_total.
class KernelRowCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// `x` must outlive the cache; `params.gamma` should be the resolved
  /// (positive) value so rows do not depend on call-site resolution.
  KernelRowCache(const KernelParams& params, const Matrix& x,
                 size_t capacity);

  /// K(i, .) as a row of length x.rows(); computes and caches on miss.
  std::span<const double> Row(size_t i);

  const Stats& stats() const { return stats_; }
  size_t size() const { return cached_; }
  size_t capacity() const { return capacity_; }

 private:
  /// Per-row slot, directly indexed by row number (the SMO hot path calls
  /// Row() twice per pair step, so lookups must not hash).
  struct Entry {
    std::vector<double> values;  // Empty = not cached.
    std::list<size_t>::iterator lru_pos;
  };

  KernelParams params_;
  const Matrix* x_;
  size_t capacity_;
  size_t cached_ = 0;
  std::list<size_t> lru_;  // Front = most recently used row index.
  std::vector<Entry> entries_;  // One slot per row of x.
  Stats stats_;
};

}  // namespace vup

#endif  // VUPRED_ML_KERNEL_H_
