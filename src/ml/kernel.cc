#include "ml/kernel.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "ml/lanes.h"
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

/// Rows per panel of the packed design: one lane per row.
constexpr size_t kPanelRows = kLaneWidth;

/// sq[4q + l] = sum over c = 0..d-1, in order, of (xi[c] - x(4(b+q) + l,
/// c))^2 for the `count` panels b, b+1, ... that start at `panels` (see
/// KernelMatrix for the layout). A block of four panels -- 16 lanes --
/// stays in registers across the whole c loop. Each lane is its own add
/// chain in KernelFunction's order, so no sum is reassociated.
VUP_LANE_CLONES
void PanelSquaredDistances(const double* xi, const double* panels, size_t d,
                           size_t count, double* sq) {
  const size_t stride = d * kPanelRows;  // Doubles per panel.
  size_t q = 0;
  for (; q + 4 <= count; q += 4) {
    const double* p = panels + q * stride;
    Lanes s0 = {}, s1 = {}, s2 = {}, s3 = {};
    for (size_t c = 0; c < d; ++c) {
      const double xic = xi[c];
      const double* pc = p + c * kPanelRows;
      const Lanes d0 = xic - LanesAt(pc);
      const Lanes d1 = xic - LanesAt(pc + stride);
      const Lanes d2 = xic - LanesAt(pc + 2 * stride);
      const Lanes d3 = xic - LanesAt(pc + 3 * stride);
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    double* out = sq + q * kPanelRows;
    LanesAt(out) = s0;
    LanesAt(out + kPanelRows) = s1;
    LanesAt(out + 2 * kPanelRows) = s2;
    LanesAt(out + 3 * kPanelRows) = s3;
  }
  for (; q < count; ++q) {
    const double* p = panels + q * stride;
    Lanes s = {};
    for (size_t c = 0; c < d; ++c) {
      const Lanes diff = xi[c] - LanesAt(p + c * kPanelRows);
      s += diff * diff;
    }
    LanesAt(sq + q * kPanelRows) = s;
  }
}

}  // namespace

Matrix KernelMatrix(const KernelParams& params, const Matrix& x) {
  const size_t n = x.rows();
  Matrix k(n, n);
  if (params.type == KernelType::kRbf && n > 0) {
    const size_t d = x.cols();
    const double g = params.EffectiveGamma(d);
    // x packed into panels of 4 rows, panel-major then feature-major:
    // panels[(b * d + c) * 4 + l] = x(4b + l, c). Rows past n are zero.
    const size_t num_panels = (n + kPanelRows - 1) / kPanelRows;
    std::vector<double> panels(num_panels * d * kPanelRows, 0.0);
    for (size_t r = 0; r < n; ++r) {
      double* out = panels.data() + (r / kPanelRows) * d * kPanelRows +
                    r % kPanelRows;
      for (size_t c = 0; c < d; ++c) out[c * kPanelRows] = x(r, c);
    }
    std::vector<double> sq(num_panels * kPanelRows);
    for (size_t i = 0; i < n; ++i) {
      // Row i against the panels from its own onwards: sq[j - first]
      // holds ||x_i - x_j||^2 for j >= first.
      const size_t b = i / kPanelRows;
      const size_t first = b * kPanelRows;
      PanelSquaredDistances(x.Row(i).data(),
                            panels.data() + b * d * kPanelRows, d,
                            num_panels - b, sq.data());
      for (size_t j = i; j < n; ++j) {
        const double v = std::exp(-g * sq[j - first]);
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
