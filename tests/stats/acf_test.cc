#include "stats/acf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace vup {
namespace {

TEST(AcfTest, LagZeroIsOne) {
  std::vector<double> series = {1, 3, 2, 5, 4, 6, 2, 8};
  auto acf = Autocorrelation(series, 3).value();
  ASSERT_EQ(acf.size(), 4u);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(AcfTest, PeriodicSeriesPeaksAtPeriod) {
  // Period-7 sine: ACF must peak near lags 7 and 14.
  std::vector<double> series;
  for (int t = 0; t < 200; ++t) {
    series.push_back(std::sin(2.0 * M_PI * t / 7.0));
  }
  auto acf = Autocorrelation(series, 21).value();
  EXPECT_GT(acf[7], 0.9);
  EXPECT_GT(acf[14], 0.85);
  // Anti-phase around half period.
  EXPECT_LT(acf[3], 0.0);
  EXPECT_LT(acf[4], 0.0);
}

TEST(AcfTest, WhiteNoiseIsSmallAtAllLags) {
  Rng rng(3);
  std::vector<double> series;
  for (int t = 0; t < 2000; ++t) series.push_back(rng.Normal());
  auto acf = Autocorrelation(series, 20).value();
  double bound = AcfSignificanceBound(series.size());
  int exceed = 0;
  for (size_t l = 1; l < acf.size(); ++l) {
    if (std::abs(acf[l]) > bound) ++exceed;
  }
  // 95% bound: expect ~1 of 20 lags above it, allow slack.
  EXPECT_LE(exceed, 4);
}

TEST(AcfTest, BoundedByOneProperty) {
  Rng rng(17);
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<double> series;
    for (int t = 0; t < 100; ++t) {
      series.push_back(rng.LogNormal(0, 1) + std::sin(t * 0.3));
    }
    auto acf = Autocorrelation(series, 30).value();
    for (double v : acf) {
      EXPECT_LE(std::abs(v), 1.0 + 1e-9);
    }
  }
}

TEST(AcfTest, ConstantSeriesIsError) {
  std::vector<double> series(50, 3.0);
  EXPECT_FALSE(Autocorrelation(series, 10).ok());
}

TEST(AcfTest, TooShortSeriesIsError) {
  std::vector<double> series = {1, 2, 3};
  EXPECT_FALSE(Autocorrelation(series, 5).ok());
  EXPECT_FALSE(Autocorrelation(std::vector<double>{1.0}, 0).ok());
}

TEST(AcfTest, SingleOverlapAtMaxLagIsError) {
  // n == max_lag + 1 leaves a single-term numerator at the top lag: not an
  // autocorrelation estimate. The precondition requires n >= max_lag + 2.
  std::vector<double> series = {1, 2, 4, 3};
  EXPECT_FALSE(Autocorrelation(series, 3).ok());
  EXPECT_TRUE(Autocorrelation(series, 2).ok());
  // max_lag = 0 still needs two points for a variance.
  EXPECT_FALSE(Autocorrelation(std::vector<double>{1.0}, 0).ok());
  EXPECT_TRUE(Autocorrelation(std::vector<double>{1.0, 2.0}, 0).ok());
}

TEST(AcfTest, Ar1SeriesDecaysGeometrically) {
  Rng rng(5);
  double phi = 0.8;
  std::vector<double> series = {0.0};
  for (int t = 1; t < 5000; ++t) {
    series.push_back(phi * series.back() + rng.Normal());
  }
  auto acf = Autocorrelation(series, 5).value();
  EXPECT_NEAR(acf[1], phi, 0.05);
  EXPECT_NEAR(acf[2], phi * phi, 0.07);
}

TEST(SignificanceBoundTest, ScalesWithSampleSize) {
  EXPECT_NEAR(AcfSignificanceBound(400), 1.96 / 20.0, 1e-12);
  EXPECT_DOUBLE_EQ(AcfSignificanceBound(0), 0.0);
}

TEST(TopKLagsTest, PicksLargestAcfLags) {
  // acf[0]=1 ignored; largest are lags 7 (0.9) then 1 (0.5) then 3 (0.2).
  std::vector<double> acf = {1.0, 0.5, 0.1, 0.2, 0.05, 0.0, -0.3, 0.9};
  auto top = TopKLagsByAcf(acf, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 7u);
  EXPECT_EQ(top[1], 1u);
  EXPECT_EQ(top[2], 3u);
}

TEST(TopKLagsTest, KLargerThanLagsReturnsAll) {
  std::vector<double> acf = {1.0, 0.2, 0.3};
  auto top = TopKLagsByAcf(acf, 10);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopKLagsTest, TieBreaksTowardSmallerLag) {
  std::vector<double> acf = {1.0, 0.5, 0.5, 0.5};
  auto top = TopKLagsByAcf(acf, 2);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
}

TEST(TopKLagsTest, EmptyForDegenerateInput) {
  EXPECT_TRUE(TopKLagsByAcf(std::vector<double>{1.0}, 3).empty());
  EXPECT_TRUE(TopKLagsByAcf(std::vector<double>{}, 3).empty());
}

TEST(TopKLagsTest, NonFiniteEntriesRankLastDeterministically) {
  // Regression: NaN compares false against everything, so the plain
  // comparator violated std::sort's strict-weak-ordering contract (UB).
  // Non-finite values now rank as -inf, below every finite ACF value, and
  // tie-break among themselves by smaller lag.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> acf = {1.0, nan, 0.5, inf, 0.2, nan, -0.7};
  auto top = TopKLagsByAcf(acf, 6);
  ASSERT_EQ(top.size(), 6u);
  // Finite first, descending: lags 2 (0.5), 4 (0.2), 6 (-0.7); then the
  // non-finite lags 1, 3, 5 in lag order.
  EXPECT_EQ(top, (std::vector<size_t>{2, 4, 6, 1, 3, 5}));
  // All-NaN input is still a valid deterministic (lag-ordered) ranking.
  std::vector<double> all_nan = {1.0, nan, nan, nan};
  EXPECT_EQ(TopKLagsByAcf(all_nan, 2), (std::vector<size_t>{1, 2}));
}

TEST(TopKLagsTest, MatchesFullSortReference) {
  // TopKLagsByAcf keeps the first k of a partial sort; its order is
  // total, so that must be the first k of a full sort, ties, NaN and
  // infinities included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto reference = [](std::span<const double> acf, size_t k) {
    std::vector<size_t> lags;
    for (size_t lag = 1; lag < acf.size(); ++lag) lags.push_back(lag);
    auto rank = [&acf](size_t lag) {
      return std::isfinite(acf[lag]) ? acf[lag]
                                     : -std::numeric_limits<double>::infinity();
    };
    std::sort(lags.begin(), lags.end(), [&rank](size_t a, size_t b) {
      if (rank(a) != rank(b)) return rank(a) > rank(b);
      return a < b;
    });
    if (lags.size() > k) lags.resize(k);
    return lags;
  };
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t w = 1 + static_cast<size_t>(rng.UniformInt(0, 140));
    std::vector<double> acf(w + 1);
    acf[0] = 1.0;
    for (size_t lag = 1; lag <= w; ++lag) {
      // Few distinct values, so ties are common.
      acf[lag] = 0.25 * static_cast<double>(rng.UniformInt(-4, 4));
      const int64_t special = rng.UniformInt(0, 19);
      if (special == 0) acf[lag] = nan;
      if (special == 1) acf[lag] = inf;
      if (special == 2) acf[lag] = -inf;
    }
    for (size_t k : {size_t{0}, size_t{1}, size_t{20}, w - 1, w, w + 5}) {
      EXPECT_EQ(TopKLagsByAcf(acf, k), reference(acf, k))
          << "trial " << trial << " w=" << w << " k=" << k;
    }
  }
}

TEST(SlidingAcfTest, MatchesDirectEstimatorAcrossWindows) {
  Rng rng(11);
  std::vector<double> series;
  for (int t = 0; t < 400; ++t) {
    series.push_back(3.0 + std::sin(2.0 * M_PI * t / 7.0) + rng.Normal());
  }
  const size_t max_lag = 21;
  SlidingAcf cache(series, max_lag);
  for (size_t begin = 0; begin + 60 <= series.size(); begin += 13) {
    const size_t end = begin + 60;
    auto direct = Autocorrelation(
        std::span<const double>(series.data() + begin, end - begin), max_lag);
    auto cached = cache.Window(begin, end);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(cached.ok());
    ASSERT_EQ(cached.value().size(), direct.value().size());
    EXPECT_DOUBLE_EQ(cached.value()[0], 1.0);
    for (size_t l = 0; l <= max_lag; ++l) {
      EXPECT_NEAR(cached.value()[l], direct.value()[l], 1e-10)
          << "window [" << begin << ", " << end << ") lag " << l;
    }
  }
}

TEST(SlidingAcfTest, DegenerateWindowsMatchDirectErrors) {
  // Constant stretch inside an otherwise varying series: the cached
  // estimator must report the same errors the direct one does.
  std::vector<double> series(100, 5.0);
  for (int t = 60; t < 100; ++t) series[t] = static_cast<double>(t);
  SlidingAcf cache(series, 10);
  // Constant window.
  EXPECT_FALSE(cache.Window(0, 50).ok());
  EXPECT_FALSE(Autocorrelation(
                   std::span<const double>(series.data(), 50), 10)
                   .ok());
  // Too short: m == max_lag + 1.
  EXPECT_FALSE(cache.Window(60, 71).ok());
  // Minimal valid length: m == max_lag + 2.
  EXPECT_TRUE(cache.Window(60, 72).ok());
  // Out of range.
  EXPECT_FALSE(cache.Window(50, 120).ok());
  EXPECT_FALSE(cache.Window(30, 20).ok());
}

TEST(SlidingAcfTest, FullSeriesWindowAgreesWithDirect) {
  std::vector<double> series;
  for (int t = 0; t < 150; ++t) {
    series.push_back(std::cos(t * 0.41) * (1.0 + 0.01 * t));
  }
  SlidingAcf cache(series, 30);
  EXPECT_EQ(cache.size(), series.size());
  EXPECT_EQ(cache.max_lag(), 30u);
  auto cached = cache.Window(0, series.size()).value();
  auto direct = Autocorrelation(series, 30).value();
  for (size_t l = 0; l <= 30; ++l) {
    EXPECT_NEAR(cached[l], direct[l], 1e-12) << "lag " << l;
  }
}

}  // namespace
}  // namespace vup
