#include "pipeline/aggregate.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace vup {
namespace {

Date D0() { return Date::FromYmd(2017, 3, 6).value(); }

AggregatedReport Slot(Date date, int slot, double on_fraction, double rpm,
                      double load, double fuel_rate) {
  AggregatedReport r;
  r.vehicle_id = 1;
  r.date = date;
  r.slot = slot;
  r.engine_on_fraction = on_fraction;
  r.avg_engine_rpm = rpm;
  r.avg_engine_load_pct = load;
  r.avg_fuel_rate_lph = fuel_rate;
  r.sample_count = on_fraction > 0 ? 5 : 0;
  return r;
}

TEST(AggregateTest, SingleDayHoursSum) {
  std::vector<AggregatedReport> reports = {
      Slot(D0(), 50, 1.0, 1200, 50, 20),
      Slot(D0(), 51, 1.0, 1200, 50, 20),
      Slot(D0(), 52, 0.5, 1200, 50, 20),
  };
  auto days = AggregateReportsDaily(reports);
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].date, D0());
  // 2.5 slots of 10 minutes.
  EXPECT_NEAR(days[0].hours, 2.5 / 6.0, 1e-9);
}

TEST(AggregateTest, WeightedSignalAverages) {
  std::vector<AggregatedReport> reports = {
      Slot(D0(), 10, 1.0, 1000, 40, 10),
      Slot(D0(), 11, 0.5, 2000, 80, 30),
  };
  auto days = AggregateReportsDaily(reports);
  ASSERT_EQ(days.size(), 1u);
  // Weighted by on-fraction: (1*1000 + 0.5*2000) / 1.5.
  EXPECT_NEAR(days[0].avg_engine_rpm, 2000.0 / 1.5, 1e-9);
  EXPECT_NEAR(days[0].avg_engine_load_pct, (40 + 40) / 1.5, 1e-9);
}

TEST(AggregateTest, FuelIntegratesRateOverOnTime) {
  std::vector<AggregatedReport> reports = {
      Slot(D0(), 10, 1.0, 1000, 40, 12.0),  // 1/6 h at 12 L/h = 2 L.
      Slot(D0(), 11, 0.5, 1000, 40, 12.0),  // 1/12 h at 12 L/h = 1 L.
  };
  auto days = AggregateReportsDaily(reports);
  EXPECT_NEAR(days[0].fuel_used_l, 3.0, 1e-9);
}

TEST(AggregateTest, MultipleDaysSplitAndSorted) {
  std::vector<AggregatedReport> reports = {
      Slot(D0().AddDays(1), 10, 1.0, 1000, 40, 10),
      Slot(D0(), 10, 0.5, 1000, 40, 10),
  };
  auto days = AggregateReportsDaily(reports);
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].date, D0());
  EXPECT_EQ(days[1].date, D0().AddDays(1));
}

TEST(AggregateTest, DuplicateSlotLastWins) {
  std::vector<AggregatedReport> reports = {
      Slot(D0(), 10, 1.0, 1000, 40, 10),
      Slot(D0(), 10, 0.25, 900, 30, 8),
  };
  auto days = AggregateReportsDaily(reports);
  ASSERT_EQ(days.size(), 1u);
  EXPECT_NEAR(days[0].hours, 0.25 / 6.0, 1e-9);
}

TEST(AggregateTest, ZeroOnTimeDayHasNoSignalAverages) {
  std::vector<AggregatedReport> reports = {Slot(D0(), 10, 0.0, 0, 0, 0)};
  auto days = AggregateReportsDaily(reports);
  ASSERT_EQ(days.size(), 1u);
  EXPECT_DOUBLE_EQ(days[0].hours, 0.0);
  EXPECT_DOUBLE_EQ(days[0].avg_engine_rpm, 0.0);
  EXPECT_DOUBLE_EQ(days[0].fuel_used_l, 0.0);
}

TEST(AggregateTest, DtcCountsAccumulate) {
  AggregatedReport a = Slot(D0(), 10, 1.0, 1000, 40, 10);
  a.dtc_count = 2;
  AggregatedReport b = Slot(D0(), 11, 1.0, 1000, 40, 10);
  b.dtc_count = 1;
  auto days = AggregateReportsDaily(std::vector<AggregatedReport>{a, b});
  EXPECT_EQ(days[0].dtc_count, 3);
}

TEST(AggregateTest, FuelLevelTakesLastSampledSlot) {
  AggregatedReport a = Slot(D0(), 10, 1.0, 1000, 40, 10);
  a.fuel_level_pct = 80;
  AggregatedReport b = Slot(D0(), 20, 1.0, 1000, 40, 10);
  b.fuel_level_pct = 60;
  auto days = AggregateReportsDaily(std::vector<AggregatedReport>{a, b});
  EXPECT_DOUBLE_EQ(days[0].fuel_level_end_pct, 60.0);
}

/// Same bits in every field (EXPECT_DOUBLE_EQ would forgive 4 ulps).
void ExpectBitwiseEqual(const DailyUsageRecord& a, const DailyUsageRecord& b) {
  EXPECT_EQ(a.date, b.date);
  EXPECT_EQ(a.dtc_count, b.dtc_count) << a.date.ToString();
  const double DailyUsageRecord::*fields[] = {
      &DailyUsageRecord::hours,
      &DailyUsageRecord::fuel_used_l,
      &DailyUsageRecord::avg_engine_load_pct,
      &DailyUsageRecord::avg_engine_rpm,
      &DailyUsageRecord::avg_coolant_temp_c,
      &DailyUsageRecord::avg_oil_pressure_kpa,
      &DailyUsageRecord::fuel_level_end_pct,
      &DailyUsageRecord::distance_km,
      &DailyUsageRecord::idle_hours,
  };
  for (const double DailyUsageRecord::*field : fields) {
    EXPECT_EQ(std::memcmp(&(a.*field), &(b.*field), sizeof(double)), 0)
        << a.date.ToString() << ": " << a.*field << " vs " << b.*field;
  }
}

TEST(AggregateTest, ArrivalOrderDoesNotMatter) {
  // The sorted, de-duplicated stream: 5 days, a random subset of slots
  // each, with values whose sums round differently in another order.
  Rng rng(2024);
  std::vector<AggregatedReport> sorted;
  for (int day = 0; day < 5; ++day) {
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      if (rng.Bernoulli(0.4)) continue;
      AggregatedReport r = Slot(D0().AddDays(day), slot, rng.Uniform(),
                                rng.Uniform(600, 2200), rng.Uniform(5, 95),
                                rng.Uniform(1, 35));
      r.avg_coolant_temp_c = rng.Uniform(60, 105);
      r.avg_oil_pressure_kpa = rng.Uniform(150, 500);
      r.avg_speed_kmh = rng.Uniform(0, 30);
      r.fuel_level_pct = rng.Uniform(5, 100);
      r.dtc_count = static_cast<int>(rng.UniformInt(0, 2));
      sorted.push_back(r);
    }
  }
  ASSERT_GT(sorted.size(), 100u);

  // Every third slot is delivered twice, and all deliveries arrive
  // shuffled across days and slots. Of a slot's two deliveries the first
  // to arrive is a stale copy with other values, as a re-delivery is.
  std::vector<size_t> arrivals;  // Indices into `sorted`.
  for (size_t i = 0; i < sorted.size(); ++i) {
    arrivals.push_back(i);
    if (i % 3 == 0) arrivals.push_back(i);
  }
  rng.Shuffle(&arrivals);
  std::vector<bool> arrived(sorted.size(), false);
  std::vector<AggregatedReport> shuffled;
  for (size_t i : arrivals) {
    AggregatedReport r = sorted[i];
    if (i % 3 == 0 && !arrived[i]) {
      r.engine_on_fraction = 1.0 - r.engine_on_fraction;
      r.avg_engine_rpm += 100.0;
      r.fuel_level_pct = 1.0;
      r.dtc_count += 3;
    }
    arrived[i] = true;
    shuffled.push_back(r);
  }

  std::vector<DailyUsageRecord> want = AggregateReportsDaily(sorted);
  std::vector<DailyUsageRecord> got = AggregateReportsDaily(shuffled);
  ASSERT_EQ(want.size(), 5u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t d = 0; d < want.size(); ++d) {
    EXPECT_EQ(want[d].date, D0().AddDays(static_cast<int>(d)));
    ExpectBitwiseEqual(got[d], want[d]);
  }
}

TEST(AggregateTest, EmptyInputEmptyOutput) {
  EXPECT_TRUE(AggregateReportsDaily({}).empty());
}

}  // namespace
}  // namespace vup
