#include "core/feature_selection.h"

#include <algorithm>
#include <cmath>
#include <span>

#include <gtest/gtest.h>

#include "common/random.h"
#include "pipeline/enrich.h"

namespace vup {
namespace {

TEST(SelectLagsTest, WeeklySeriesPicksMultiplesOfSeven) {
  // Strong 7-day periodicity: the top lags must include 7 and 14.
  std::vector<double> hours;
  for (int t = 0; t < 200; ++t) {
    hours.push_back(t % 7 < 5 ? 6.0 : 0.0);
  }
  std::vector<size_t> lags = SelectLagsByAcf(hours, 21, 4);
  ASSERT_EQ(lags.size(), 4u);
  EXPECT_NE(std::find(lags.begin(), lags.end(), 7u), lags.end());
  EXPECT_NE(std::find(lags.begin(), lags.end(), 14u), lags.end());
  EXPECT_NE(std::find(lags.begin(), lags.end(), 21u), lags.end());
  // Sorted ascending.
  for (size_t i = 1; i < lags.size(); ++i) {
    EXPECT_LT(lags[i - 1], lags[i]);
  }
}

TEST(SelectLagsTest, Ar1SeriesPrefersRecentLags) {
  // Pure AR(1): the ACF decays geometrically, so the most recent lags win.
  Rng rng(42);
  std::vector<double> hours = {0.0};
  for (int t = 1; t < 3000; ++t) {
    hours.push_back(0.9 * hours.back() + rng.Normal());
  }
  std::vector<size_t> lags = SelectLagsByAcf(hours, 30, 3);
  ASSERT_EQ(lags.size(), 3u);
  EXPECT_EQ(lags[0], 1u);
  EXPECT_EQ(lags[1], 2u);
  EXPECT_EQ(lags[2], 3u);
}

TEST(SelectLagsTest, ConstantSeriesFallsBackToRecent) {
  std::vector<double> hours(100, 5.0);
  std::vector<size_t> lags = SelectLagsByAcf(hours, 20, 4);
  EXPECT_EQ(lags, (std::vector<size_t>{1, 2, 3, 4}));
}

TEST(SelectLagsTest, ShortSeriesFallsBackToRecent) {
  std::vector<double> hours = {1, 2, 3};
  std::vector<size_t> lags = SelectLagsByAcf(hours, 20, 5);
  EXPECT_EQ(lags, (std::vector<size_t>{1, 2, 3, 4, 5}));
}

TEST(SelectLagsTest, KCappedAtLookback) {
  std::vector<double> hours;
  for (int t = 0; t < 100; ++t) hours.push_back(std::sin(t * 0.5));
  std::vector<size_t> lags = SelectLagsByAcf(hours, 5, 50);
  EXPECT_EQ(lags.size(), 5u);
}

TEST(SelectLagsTest, DegenerateParamsEmpty) {
  std::vector<double> hours(50, 1.0);
  EXPECT_TRUE(SelectLagsByAcf(hours, 0, 5).empty());
  EXPECT_TRUE(SelectLagsByAcf(hours, 5, 0).empty());
}

TEST(SelectLagsTest, SingleOverlapSeriesFallsBackToRecent) {
  // n == lookback_w + 1: the top lag would have a single-term numerator,
  // which the tightened ACF precondition rejects -> recent-lags fallback.
  std::vector<double> hours = {1, 5, 2, 4, 3, 6};
  std::vector<size_t> lags = SelectLagsByAcf(hours, 5, 3);
  EXPECT_EQ(lags, (std::vector<size_t>{1, 2, 3}));
}

TEST(SelectLagsCachedTest, MatchesSpanOverloadAcrossSlidingWindows) {
  // The cached (SlidingAcf) overload must select exactly the lags the span
  // overload selects for every training window the evaluation slides over.
  Rng rng(29);
  std::vector<double> hours;
  for (int t = 0; t < 300; ++t) {
    hours.push_back(4.0 + (t % 7 < 5 ? 2.0 : -2.0) + 0.3 * rng.Normal());
  }
  const size_t w = 21;
  const size_t span_len = 80;
  SlidingAcf cache(hours, w);
  for (size_t begin = 0; begin + span_len <= hours.size(); begin += 9) {
    std::vector<size_t> direct = SelectLagsByAcf(
        std::span<const double>(hours.data() + begin, span_len), w, 6);
    std::vector<size_t> cached =
        SelectLagsByAcf(cache, begin, begin + span_len, 6);
    EXPECT_EQ(cached, direct) << "window at " << begin;
  }
}

TEST(SelectLagsCachedTest, FallbacksMatchSpanOverload) {
  // Constant window -> recent-K fallback, identical to the span overload.
  std::vector<double> hours(60, 7.5);
  SlidingAcf cache(hours, 10);
  EXPECT_EQ(SelectLagsByAcf(cache, 0, 40, 4),
            (std::vector<size_t>{1, 2, 3, 4}));
  // Too-short window -> same fallback.
  EXPECT_EQ(SelectLagsByAcf(cache, 0, 11, 4),
            (std::vector<size_t>{1, 2, 3, 4}));
  // Degenerate parameters -> empty, as in the span overload.
  EXPECT_TRUE(SelectLagsByAcf(cache, 0, 40, 0).empty());
  SlidingAcf no_lags(hours, 0);
  EXPECT_TRUE(SelectLagsByAcf(no_lags, 0, 40, 4).empty());
}

TEST(ColumnsForLagsTest, KeepsSelectedLagAndContextColumns) {
  WindowingConfig cfg;
  cfg.lookback_w = 4;
  cfg.lag_engine_features = VehicleDataset::kNumEngineFeatures;
  std::vector<WindowColumn> columns = MakeWindowColumns(cfg);
  std::vector<size_t> lags = {2, 4};
  std::vector<size_t> selected = ColumnsForLags(columns, lags);
  const size_t ef = VehicleDataset::kNumEngineFeatures;
  // 2 lags' engine features + all context columns.
  EXPECT_EQ(selected.size(), 2 * ef + kNumContextFeatures);
  for (size_t idx : selected) {
    const WindowColumn& col = columns[idx];
    if (col.kind == WindowColumn::Kind::kLagFeature) {
      EXPECT_TRUE(col.lag == 2 || col.lag == 4);
    }
  }
  // Ascending column order preserved.
  for (size_t i = 1; i < selected.size(); ++i) {
    EXPECT_LT(selected[i - 1], selected[i]);
  }
}

TEST(ColumnsForLagsTest, MatchesLinearScanReference) {
  // The lag bitmap keeps exactly the columns a scan of the lag list keeps,
  // for unsorted and repeated lags and lags no column carries.
  WindowingConfig cfg;
  cfg.lookback_w = 12;
  cfg.include_lag_context = true;
  std::vector<WindowColumn> columns = MakeWindowColumns(cfg);
  auto reference = [&columns](const std::vector<size_t>& lags) {
    std::vector<size_t> out;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c].kind == WindowColumn::Kind::kTargetContext ||
          std::find(lags.begin(), lags.end(), columns[c].lag) != lags.end()) {
        out.push_back(c);
      }
    }
    return out;
  };
  const std::vector<std::vector<size_t>> cases = {
      {}, {1}, {12}, {3, 1, 7}, {5, 5, 2}, {0, 13, 1000}, {12, 11, 10, 9, 8}};
  for (const std::vector<size_t>& lags : cases) {
    EXPECT_EQ(ColumnsForLags(columns, lags), reference(lags));
  }
}

TEST(ColumnsForLagsTest, NoLagsKeepsOnlyContext) {
  WindowingConfig cfg;
  cfg.lookback_w = 3;
  std::vector<WindowColumn> columns = MakeWindowColumns(cfg);
  std::vector<size_t> selected = ColumnsForLags(columns, {});
  EXPECT_EQ(selected.size(), kNumContextFeatures);
}

}  // namespace
}  // namespace vup
