#include "core/feature_selection.h"

#include <algorithm>

#include "stats/acf.h"

namespace vup {

namespace {

/// Shared tail of both overloads: rank lags from an ACF estimate, or fall
/// back to the most recent K days when the estimate is unavailable
/// (constant or too-short series).
std::vector<size_t> LagsFromAcfOrFallback(
    const StatusOr<std::vector<double>>& acf, size_t k) {
  std::vector<size_t> lags;
  if (acf.ok()) {
    lags = TopKLagsByAcf(acf.value(), k);
  } else {
    for (size_t l = 1; l <= k; ++l) lags.push_back(l);
  }
  std::sort(lags.begin(), lags.end());
  return lags;
}

}  // namespace

std::vector<size_t> SelectLagsByAcf(std::span<const double> hours,
                                    size_t lookback_w, size_t top_k) {
  if (lookback_w == 0 || top_k == 0) return {};
  const size_t k = std::min(top_k, lookback_w);
  return LagsFromAcfOrFallback(Autocorrelation(hours, lookback_w), k);
}

std::vector<size_t> SelectLagsByAcf(const SlidingAcf& acf, size_t begin,
                                    size_t end, size_t top_k) {
  const size_t lookback_w = acf.max_lag();
  if (lookback_w == 0 || top_k == 0) return {};
  const size_t k = std::min(top_k, lookback_w);
  return LagsFromAcfOrFallback(acf.Window(begin, end), k);
}

std::vector<size_t> ColumnsForLags(std::span<const WindowColumn> columns,
                                   std::span<const size_t> lags) {
  // selected[l]: lag l is in `lags`, for every lag a column carries.
  size_t max_lag = 0;
  for (const WindowColumn& col : columns) max_lag = std::max(max_lag, col.lag);
  std::vector<bool> selected(max_lag + 1, false);
  for (size_t lag : lags) {
    if (lag <= max_lag) selected[lag] = true;
  }
  std::vector<size_t> out;
  for (size_t c = 0; c < columns.size(); ++c) {
    const WindowColumn& col = columns[c];
    if (col.kind == WindowColumn::Kind::kTargetContext || selected[col.lag]) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace vup
