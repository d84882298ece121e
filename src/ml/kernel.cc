#include "ml/kernel.h"

#include <algorithm>
#include <cmath>

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

Matrix KernelMatrix(const KernelParams& params, const Matrix& x,
                    size_t min_cols) {
  const size_t n = x.rows();
  Matrix k(n, std::max(n, min_cols));
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

}  // namespace vup
