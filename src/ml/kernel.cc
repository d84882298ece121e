#include "ml/kernel.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace vup {

std::string_view KernelTypeToString(KernelType t) {
  switch (t) {
    case KernelType::kRbf:
      return "rbf";
    case KernelType::kLinear:
      return "linear";
    case KernelType::kPolynomial:
      return "poly";
  }
  return "?";
}

double KernelParams::EffectiveGamma(size_t num_features) const {
  if (gamma > 0.0) return gamma;
  VUP_CHECK(num_features > 0);
  return 1.0 / static_cast<double>(num_features);
}

double KernelFunction(const KernelParams& params, std::span<const double> a,
                      std::span<const double> b) {
  VUP_CHECK(a.size() == b.size());
  double g = params.EffectiveGamma(a.size());
  switch (params.type) {
    case KernelType::kRbf: {
      double sq = 0.0;
      for (size_t i = 0; i < a.size(); ++i) {
        double d = a[i] - b[i];
        sq += d * d;
      }
      return std::exp(-g * sq);
    }
    case KernelType::kLinear:
      return Dot(a, b);
    case KernelType::kPolynomial:
      return std::pow(g * Dot(a, b) + params.coef0, params.degree);
  }
  return 0.0;
}

namespace {

// GCC on x86-64 builds an AVX2 clone of the lane loop next to the baseline
// one and picks it at load time. AVX2 does not imply FMA, so neither clone
// contracts `sq += d * d` and both give KernelFunction's bits. Not under
// ThreadSanitizer: its instrumented ifunc resolver runs before the TSan
// runtime is up and crashes the program at load.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define VUP_LANE_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define VUP_LANE_CLONES
#endif

/// sq[j] += (x_ic - x_jc)^2 for j in [i, n), over c = 0..d-1 in order,
/// where `xt` is x feature-major (xt[c * n + j] = x(j, c)). Each sq[j] is
/// its own add chain in KernelFunction's order, so the lanes vectorize
/// across j without reassociating any sum.
VUP_LANE_CLONES
void AccumulateSquaredDistances(const double* xt, size_t n, size_t d,
                                size_t i, double* sq) {
  for (size_t c = 0; c < d; ++c) {
    const double* col = xt + c * n;
    const double xic = col[i];
    for (size_t j = i; j < n; ++j) {
      const double diff = xic - col[j];
      sq[j] += diff * diff;
    }
  }
}

}  // namespace

Matrix KernelMatrix(const KernelParams& params, const Matrix& x) {
  const size_t n = x.rows();
  Matrix k(n, n);
  if (params.type == KernelType::kRbf && n > 0) {
    const size_t d = x.cols();
    const double g = params.EffectiveGamma(d);
    std::vector<double> xt(n * d);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < d; ++c) xt[c * n + r] = x(r, c);
    }
    std::vector<double> sq(n);
    for (size_t i = 0; i < n; ++i) {
      std::fill(sq.begin() + i, sq.end(), 0.0);
      AccumulateSquaredDistances(xt.data(), n, d, i, sq.data());
      for (size_t j = i; j < n; ++j) {
        const double v = std::exp(-g * sq[j]);
        k(i, j) = v;
        k(j, i) = v;
      }
    }
    return k;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = KernelFunction(params, x.Row(i), x.Row(j));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

namespace {

struct KernelCacheCounters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
};

const KernelCacheCounters& GlobalKernelCacheCounters() {
  static const KernelCacheCounters counters = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return KernelCacheCounters{
        registry.GetCounter("vupred_kernel_cache_hits_total",
                            "Kernel-row cache lookups served from memory."),
        registry.GetCounter("vupred_kernel_cache_misses_total",
                            "Kernel-row cache lookups that computed a row."),
        registry.GetCounter("vupred_kernel_cache_evictions_total",
                            "Kernel rows evicted by the LRU policy."),
    };
  }();
  return counters;
}

}  // namespace

KernelRowCache::KernelRowCache(const KernelParams& params, const Matrix& x,
                               size_t capacity)
    : params_(params),
      x_(&x),
      // >= 2 keeps both rows of the current SMO pair resident (see the
      // span-lifetime contract in the header).
      capacity_(std::max<size_t>(capacity, 2)),
      entries_(x.rows()) {
  if (params_.gamma <= 0.0 && x.cols() > 0) {
    params_.gamma = params_.EffectiveGamma(x.cols());
  }
}

std::span<const double> KernelRowCache::Row(size_t i) {
  VUP_CHECK(i < x_->rows());
  const KernelCacheCounters& counters = GlobalKernelCacheCounters();
  Entry& entry = entries_[i];
  if (!entry.values.empty()) {
    ++stats_.hits;
    if (counters.hits != nullptr) counters.hits->Increment(1);
    lru_.splice(lru_.begin(), lru_, entry.lru_pos);
    return entry.values;
  }

  ++stats_.misses;
  if (counters.misses != nullptr) counters.misses->Increment(1);
  const size_t n = x_->rows();
  entry.values.resize(n);
  std::span<const double> xi = x_->Row(i);
  for (size_t j = 0; j < n; ++j) {
    // Symmetry fill: every supported kernel is bitwise-symmetric (see the
    // header), so K(i, j) can be read off an already-cached row j instead
    // of re-evaluating. The j == i guard matters: entries_[i].values was
    // just resized, so it would otherwise read back a zero.
    const Entry& other = entries_[j];
    entry.values[j] = (j != i && !other.values.empty())
                          ? other.values[i]
                          : KernelFunction(params_, xi, x_->Row(j));
  }
  lru_.push_front(i);
  entry.lru_pos = lru_.begin();
  ++cached_;

  if (cached_ > capacity_) {
    size_t victim = lru_.back();
    lru_.pop_back();
    entries_[victim].values = {};  // Frees the row; slot stays.
    --cached_;
    ++stats_.evictions;
    if (counters.evictions != nullptr) counters.evictions->Increment(1);
  }
  return entry.values;
}

}  // namespace vup
