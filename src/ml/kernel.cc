#include "ml/kernel.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "ml/lanes.h"

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

namespace {

/// ||a - b||^2 over a's d doubles, added in index order.
double SquaredDistance(const double* a, const double* b, size_t d) {
  double sq = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double diff = a[i] - b[i];
    sq += diff * diff;
  }
  return sq;
}

/// base^exponent by squaring: one fixed sequence of multiplications, so
/// the result does not depend on which pow the C library picks for the
/// CPU. A negative exponent gives the reciprocal of the positive power.
double IntPow(double base, int exponent) {
  unsigned n = exponent < 0 ? 0u - static_cast<unsigned>(exponent)
                            : static_cast<unsigned>(exponent);
  double result = 1.0;
  for (; n != 0; n >>= 1) {
    if (n & 1u) result *= base;
    base *= base;
  }
  return exponent < 0 ? 1.0 / result : result;
}

}  // namespace

double KernelFunction(const KernelParams& params, std::span<const double> a,
                      std::span<const double> b) {
  VUP_CHECK(a.size() == b.size());
  double g = params.EffectiveGamma(a.size());
  switch (params.type) {
    case KernelType::kRbf:
      return Exp(-g * SquaredDistance(a.data(), b.data(), a.size()));
    case KernelType::kLinear:
      return Dot(a, b);
    case KernelType::kPolynomial:
      return IntPow(g * Dot(a, b) + params.coef0, params.degree);
  }
  return 0.0;
}

double KernelExpansion(const KernelParams& params,
                       std::span<const double> support,
                       std::span<const double> beta, double bias,
                       std::span<const double> x) {
  const size_t d = x.size();
  VUP_CHECK(support.size() == beta.size() * d);
  double sum = bias;
  if (params.type != KernelType::kRbf) {
    for (size_t s = 0; s < beta.size(); ++s) {
      sum += beta[s] * KernelFunction(params, support.subspan(s * d, d), x);
    }
    return sum;
  }
  // RBF: a chunk of support vectors' exponents, one lane exp over them,
  // then the terms in support-vector order.
  const double g = params.EffectiveGamma(d);
  constexpr size_t kChunk = 64;
  double k[kChunk] = {};
  for (size_t s0 = 0; s0 < beta.size(); s0 += kChunk) {
    const size_t len = std::min(kChunk, beta.size() - s0);
    for (size_t s = 0; s < len; ++s) {
      k[s] = -g * SquaredDistance(support.data() + (s0 + s) * d, x.data(), d);
    }
    // Whole vectors of 8: the entries past len are zeros or an earlier
    // chunk's, and unused.
    const size_t whole = (len + 7) / 8 * 8;
    ExpLanes({k, whole}, {k, whole});
    for (size_t s = 0; s < len; ++s) sum += beta[s0 + s] * k[s];
  }
  return sum;
}

namespace {

/// Rows per panel of the packed design; one lane per row.
constexpr size_t kPanelRows = 8;

/// out[r * ld + v * W + l] = ||x_(i0 + r) - x_(j0 + v * W + l)||^2 for
/// r < kRows, v < kVecs, l < W: a block of kRows rows against kVecs * W
/// columns, both read from the packed panels (see KernelMatrix). The
/// kRows * kVecs accumulators stay in registers across the whole c loop,
/// and each panel load serves kRows rows. Each lane is one pair's own add
/// chain over c = 0..d-1 in KernelFunction's order, so no sum is
/// reassociated. i0 is a multiple of kRows, j0 of W, and both divide
/// kPanelRows, so no row block or vector straddles two panels.
template <size_t W, size_t kRows, size_t kVecs>
VUP_LANE_INLINE void DistanceBlock(const double* panels, size_t d, size_t i0,
                                   size_t j0, double* out, size_t ld) {
  typedef typename LaneVec<W>::T V;
  const size_t stride = d * kPanelRows;  // Doubles per panel.
  const double* rows = panels + i0 / kPanelRows * stride + i0 % kPanelRows;
  const double* cols[kVecs];
  for (size_t v = 0; v < kVecs; ++v) {
    const size_t j = j0 + v * W;
    cols[v] = panels + j / kPanelRows * stride + j % kPanelRows;
  }
  V acc[kRows][kVecs] = {};
  for (size_t c = 0; c < d; ++c) {
    V xj[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      xj[v] = LaneVec<W>::At(cols[v] + c * kPanelRows);
    }
    for (size_t r = 0; r < kRows; ++r) {
      const double xi = rows[c * kPanelRows + r];
      for (size_t v = 0; v < kVecs; ++v) {
        const V diff = xi - xj[v];
        acc[r][v] += diff * diff;
      }
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t v = 0; v < kVecs; ++v) {
      LaneVec<W>::At(out + r * ld + v * W) = acc[r][v];
    }
  }
}

/// k(i, j) = exp(-g * ||x_i - x_j||^2) for i <= j < n, row block by row
/// block: the block's distances to every column from its own panel on go
/// to `sq` (kRows rows of `padded` doubles), then the lane exp runs along
/// each row's contiguous segment. The lower triangle is left to the
/// caller.
template <size_t W, size_t kRows, size_t kVecs>
VUP_LANE_INLINE void RbfUpper(const double* panels, size_t n, size_t d,
                              double g, double* k, size_t ldk, double* sq) {
  typedef typename LaneVec<W>::T V;
  const size_t padded = (n + kPanelRows - 1) / kPanelRows * kPanelRows;
  constexpr size_t kCols = kVecs * W;
  for (size_t i0 = 0; i0 < n; i0 += kRows) {
    size_t j0 = i0 / W * W;
    for (; j0 + kCols <= padded; j0 += kCols) {
      DistanceBlock<W, kRows, kVecs>(panels, d, i0, j0, sq + j0, padded);
    }
    for (; j0 < padded; j0 += W) {
      DistanceBlock<W, kRows, 1>(panels, d, i0, j0, sq + j0, padded);
    }
    // From the lane boundary at or below the diagonal (the entries left of
    // it are overwritten by the mirror) to n; the last vector is stored
    // only up to n, so the padding columns keep their zeros.
    const double neg_g = -g;
    for (size_t i = i0; i < std::min(i0 + kRows, n); ++i) {
      const double* sq_i = sq + (i - i0) * padded;
      double* k_i = k + i * ldk;
      for (size_t j = i / W * W; j < n; j += W) {
        const V arg = neg_g * LaneVec<W>::At(sq_i + j);
        V e;
        ExpBody(arg, e);
        if (j + W <= n) {
          LaneVec<W>::At(k_i + j) = e;
        } else {
          StoreFirstLanes<W>(k_i + j, e, n - j);
        }
      }
    }
  }
}

// The block shape per ISA fills its vector registers without spilling:
// 8 rows x 2 zmm (16 accumulators of 32 registers) on x86-64-v4, 4 rows x
// 2 ymm (8 of 16) on AVX2, 4 rows x 2 xmm (8 of 16) on SSE2.
void RbfUpperBaseline(const double* panels, size_t n, size_t d, double g,
                      double* k, size_t ldk, double* sq) {
  RbfUpper<2, 4, 2>(panels, n, d, g, k, ldk, sq);
}

#if VUP_LANES_X86
VUP_TARGET_AVX2
void RbfUpperAvx2(const double* panels, size_t n, size_t d, double g,
                  double* k, size_t ldk, double* sq) {
  RbfUpper<4, 4, 2>(panels, n, d, g, k, ldk, sq);
}

VUP_TARGET_AVX512
void RbfUpperAvx512(const double* panels, size_t n, size_t d, double g,
                    double* k, size_t ldk, double* sq) {
  RbfUpper<8, 8, 2>(panels, n, d, g, k, ldk, sq);
}
#endif

}  // namespace

Matrix KernelMatrix(const KernelParams& params, const Matrix& x,
                    size_t min_cols) {
  const size_t n = x.rows();
  const size_t ldk = std::max(n, min_cols);
  Matrix k(n, ldk);
  if (params.type == KernelType::kRbf && n > 0) {
    const size_t d = x.cols();
    const double g = params.EffectiveGamma(d);
    // x packed into panels of 8 rows, panel-major then feature-major:
    // panels[(b * d + c) * 8 + l] = x(8b + l, c). Rows past n are zero.
    const size_t num_panels = (n + kPanelRows - 1) / kPanelRows;
    const size_t padded = num_panels * kPanelRows;
    std::vector<double> panels(num_panels * d * kPanelRows, 0.0);
    for (size_t r = 0; r < n; ++r) {
      double* out = panels.data() + (r / kPanelRows) * d * kPanelRows +
                    r % kPanelRows;
      for (size_t c = 0; c < d; ++c) out[c * kPanelRows] = x(r, c);
    }
    std::vector<double> sq(kPanelRows * padded);
    double* const kd = k.MutableRow(0).data();
    switch (ActiveLaneIsa()) {
#if VUP_LANES_X86
      case LaneIsa::kAvx512:
        RbfUpperAvx512(panels.data(), n, d, g, kd, ldk, sq.data());
        break;
      case LaneIsa::kAvx2:
        RbfUpperAvx2(panels.data(), n, d, g, kd, ldk, sq.data());
        break;
#endif
      default:
        RbfUpperBaseline(panels.data(), n, d, g, kd, ldk, sq.data());
        break;
    }
    // Mirror the upper triangle, one 8 x 8 tile at a time.
    for (size_t i0 = 0; i0 < n; i0 += kPanelRows) {
      const size_t i_end = std::min(i0 + kPanelRows, n);
      for (size_t j0 = 0; j0 <= i0; j0 += kPanelRows) {
        for (size_t i = i0; i < i_end; ++i) {
          double* k_i = kd + i * ldk;
          const size_t j_end = std::min(j0 + kPanelRows, i);
          for (size_t j = j0; j < j_end; ++j) k_i[j] = kd[j * ldk + i];
        }
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

}  // namespace vup
