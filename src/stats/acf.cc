#include "stats/acf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "stats/descriptive.h"

namespace vup {

StatusOr<std::vector<double>> Autocorrelation(std::span<const double> series,
                                              size_t max_lag) {
  const size_t n = series.size();
  if (n < max_lag + 2) {
    return Status::InvalidArgument(StrFormat(
        "series of length %zu too short for max_lag %zu "
        "(need max_lag + 2 points)",
        n, max_lag));
  }
  const double mean = Mean(series);
  double denom = 0.0;
  for (double v : series) {
    double d = v - mean;
    denom += d * d;
  }
  if (denom == 0.0) {
    return Status::InvalidArgument(
        "autocorrelation undefined for constant series");
  }
  std::vector<double> acf(max_lag + 1, 0.0);
  for (size_t lag = 0; lag <= max_lag; ++lag) {
    double num = 0.0;
    for (size_t t = lag; t < n; ++t) {
      num += (series[t] - mean) * (series[t - lag] - mean);
    }
    acf[lag] = num / denom;
  }
  return acf;
}

double AcfSignificanceBound(size_t n) {
  if (n == 0) return 0.0;
  return 1.96 / std::sqrt(static_cast<double>(n));
}

std::vector<size_t> TopKLagsByAcf(std::span<const double> acf, size_t k) {
  std::vector<size_t> lags;
  if (acf.size() <= 1) return lags;
  // Rank non-finite ACF values (NaN/inf) as minus-infinity: NaN compares
  // false against everything, which would otherwise break the sort's
  // strict-weak-ordering contract (undefined behavior).
  std::vector<double> rank(acf.size());
  for (size_t lag = 1; lag < acf.size(); ++lag) {
    const double v = acf[lag];
    rank[lag] = std::isfinite(v) ? v : -std::numeric_limits<double>::infinity();
    lags.push_back(lag);
  }
  // Ties go to the smaller lag, so the order is total and the first k of
  // a partial sort are exactly the first k of a full sort.
  const size_t keep = std::min(k, lags.size());
  std::partial_sort(lags.begin(), lags.begin() + keep, lags.end(),
                    [&rank](size_t a, size_t b) {
                      if (rank[a] != rank[b]) return rank[a] > rank[b];
                      return a < b;
                    });
  lags.resize(keep);
  return lags;
}

SlidingAcf::SlidingAcf(std::span<const double> series, size_t max_lag)
    : series_(series.begin(), series.end()), max_lag_(max_lag) {
  const size_t n = series_.size();
  prefix_.assign(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) prefix_[i + 1] = prefix_[i] + series_[i];
  cross_.assign(max_lag_ * (n + 1), 0.0);
  for (size_t lag = 1; lag <= max_lag_; ++lag) {
    double* q = cross_.data() + (lag - 1) * (n + 1);
    for (size_t i = lag + 1; i <= n; ++i) {
      q[i] = q[i - 1] + series_[i - 1] * series_[i - 1 - lag];
    }
  }
}

StatusOr<std::vector<double>> SlidingAcf::Window(size_t begin,
                                                 size_t end) const {
  const size_t n = series_.size();
  if (begin > end || end > n) {
    return Status::OutOfRange(StrFormat(
        "acf window [%zu, %zu) outside series of %zu points", begin, end, n));
  }
  const size_t m = end - begin;
  if (m < max_lag_ + 2) {
    return Status::InvalidArgument(StrFormat(
        "series of length %zu too short for max_lag %zu "
        "(need max_lag + 2 points)",
        m, max_lag_));
  }
  // Mean and variance use the same operations as Autocorrelation over the
  // window, so degenerate-input errors (constant window) match it exactly.
  std::span<const double> window(series_.data() + begin, m);
  const double mean = Mean(window);
  double denom = 0.0;
  for (double v : window) {
    double d = v - mean;
    denom += d * d;
  }
  if (denom == 0.0) {
    return Status::InvalidArgument(
        "autocorrelation undefined for constant series");
  }
  std::vector<double> acf(max_lag_ + 1, 0.0);
  acf[0] = 1.0;
  const double mean_sq = mean * mean;
  for (size_t lag = 1; lag <= max_lag_; ++lag) {
    const double* q = cross_.data() + (lag - 1) * (n + 1);
    // sum (x_t - mean)(x_{t-lag} - mean) over t in [begin+lag, end),
    // expanded so each term is a difference of precomputed prefixes.
    const double cross = q[end] - q[begin + lag];
    const double sum_lead = prefix_[end] - prefix_[begin + lag];
    const double sum_trail = prefix_[end - lag] - prefix_[begin];
    const double num = cross - mean * (sum_lead + sum_trail) +
                       static_cast<double>(m - lag) * mean_sq;
    acf[lag] = num / denom;
  }
  return acf;
}

}  // namespace vup
