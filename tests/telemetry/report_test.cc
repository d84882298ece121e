#include "telemetry/report.h"

#include <gtest/gtest.h>

#include "telemetry/can_frame.h"
#include "telemetry/signal.h"

namespace vup {
namespace {

constexpr int64_t kVehicle = 7;

Date TestDate() { return Date::FromYmd(2016, 6, 15).value(); }

TelemetryMessage EngineEvent(MessageKind kind, int64_t ts) {
  TelemetryMessage m;
  m.kind = kind;
  m.vehicle_id = kVehicle;
  m.timestamp_s = ts;
  return m;
}

TelemetryMessage Parametric(int64_t ts, double rpm, double load) {
  const SignalCatalog& cat = SignalCatalog::Global();
  const SignalSpec* rpm_spec = cat.Find(SignalId::kEngineRpm).value();
  const SignalSpec* load_spec = cat.Find(SignalId::kEngineLoad).value();
  TelemetryMessage m;
  m.kind = MessageKind::kParametric;
  m.vehicle_id = kVehicle;
  m.timestamp_s = ts;
  CanFrame frame;
  frame.id = MakeJ1939Id(6, rpm_spec->pgn, 0x21);
  EXPECT_TRUE(FrameCodec::EncodeSignal(*rpm_spec, rpm, &frame).ok());
  EXPECT_TRUE(FrameCodec::EncodeSignal(*load_spec, load, &frame).ok());
  m.frames.push_back(frame);
  return m;
}

TEST(SlotTimeTest, SlotBoundaries) {
  int64_t start = SlotStartEpochS(TestDate(), 0);
  EXPECT_EQ(start % 86400, 0);
  EXPECT_EQ(SlotStartEpochS(TestDate(), 1) - start, kSlotSeconds);
  EXPECT_EQ(SlotStartEpochS(TestDate(), kSlotsPerDay - 1) - start,
            (kSlotsPerDay - 1) * kSlotSeconds);
}

TEST(ReportAggregatorTest, EngineOnFractionFromEvents) {
  int64_t start = SlotStartEpochS(TestDate(), 10);
  ReportAggregator agg(kVehicle, TestDate(), 10, /*engine_on_at_start=*/false);
  // On for 300 of the 600 seconds.
  ASSERT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOn, start + 100)).ok());
  ASSERT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOff, start + 400)).ok());
  AggregatedReport r = agg.Finalize();
  EXPECT_NEAR(r.engine_on_fraction, 0.5, 1e-9);
  EXPECT_EQ(r.slot, 10);
  EXPECT_EQ(r.vehicle_id, kVehicle);
}

TEST(ReportAggregatorTest, CarriesEngineStateAcrossSlot) {
  // Engine already on at slot start and never turned off -> fraction 1.
  ReportAggregator agg(kVehicle, TestDate(), 3, /*engine_on_at_start=*/true);
  AggregatedReport r = agg.Finalize();
  EXPECT_NEAR(r.engine_on_fraction, 1.0, 1e-9);
  EXPECT_TRUE(agg.engine_on());
}

TEST(ReportAggregatorTest, DoubleOnIsIdempotent) {
  int64_t start = SlotStartEpochS(TestDate(), 0);
  ReportAggregator agg(kVehicle, TestDate(), 0, false);
  ASSERT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOn, start)).ok());
  ASSERT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOn, start + 100)).ok());
  ASSERT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOff, start + 300)).ok());
  AggregatedReport r = agg.Finalize();
  EXPECT_NEAR(r.engine_on_fraction, 0.5, 1e-9);
}

TEST(ReportAggregatorTest, AveragesParametricSignals) {
  int64_t start = SlotStartEpochS(TestDate(), 5);
  ReportAggregator agg(kVehicle, TestDate(), 5, true);
  ASSERT_TRUE(agg.Consume(Parametric(start + 60, 1000, 40)).ok());
  ASSERT_TRUE(agg.Consume(Parametric(start + 120, 1400, 60)).ok());
  AggregatedReport r = agg.Finalize();
  EXPECT_EQ(r.sample_count, 2);
  EXPECT_NEAR(r.avg_engine_rpm, 1200.0, 1.0);
  EXPECT_NEAR(r.avg_engine_load_pct, 50.0, 1.0);
}

TEST(ReportAggregatorTest, CountsDiagnostics) {
  int64_t start = SlotStartEpochS(TestDate(), 5);
  ReportAggregator agg(kVehicle, TestDate(), 5, false);
  TelemetryMessage dm = EngineEvent(MessageKind::kDiagnostic, start + 10);
  dm.dtcs.push_back({100, 3, 1});
  dm.dtcs.push_back({200, 5, 1});
  ASSERT_TRUE(agg.Consume(dm).ok());
  EXPECT_EQ(agg.Finalize().dtc_count, 2);
}

TEST(ReportAggregatorTest, RejectsWrongVehicle) {
  int64_t start = SlotStartEpochS(TestDate(), 5);
  ReportAggregator agg(kVehicle, TestDate(), 5, false);
  TelemetryMessage m = EngineEvent(MessageKind::kEngineOn, start);
  m.vehicle_id = 999;
  EXPECT_TRUE(agg.Consume(m).IsInvalidArgument());
}

TEST(ReportAggregatorTest, RejectsOutOfSlotTimestamp) {
  ReportAggregator agg(kVehicle, TestDate(), 5, false);
  int64_t next_slot = SlotStartEpochS(TestDate(), 6);
  EXPECT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOn, next_slot))
                  .IsOutOfRange());
}

TEST(ReportAggregatorTest, RejectsConsumeAfterFinalize) {
  ReportAggregator agg(kVehicle, TestDate(), 5, false);
  agg.Finalize();
  int64_t start = SlotStartEpochS(TestDate(), 5);
  EXPECT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOn, start))
                  .IsFailedPrecondition());
}

// ---- Slot boundary conditions ------------------------------------------
// Messages land exactly on, one second inside, and one second outside the
// slot window [SlotStartEpochS, SlotStartEpochS + kSlotSeconds). These pin
// the half-open-interval contract daily aggregation relies on: each message
// counts toward exactly one slot.

TEST(ReportAggregatorBoundaryTest, MessageExactlyAtSlotStartAccepted) {
  const int64_t start = SlotStartEpochS(TestDate(), 5);
  ReportAggregator agg(kVehicle, TestDate(), 5, false);
  EXPECT_TRUE(
      agg.Consume(EngineEvent(MessageKind::kEngineOn, start)).ok());
  EXPECT_NEAR(agg.Finalize().engine_on_fraction, 1.0, 1e-9);
}

TEST(ReportAggregatorBoundaryTest, MessageOneSecondBeforeSlotRejected) {
  const int64_t start = SlotStartEpochS(TestDate(), 5);
  ReportAggregator agg(kVehicle, TestDate(), 5, false);
  EXPECT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOn, start - 1))
                  .IsOutOfRange());
  // The rejected message must leave no trace.
  EXPECT_NEAR(agg.Finalize().engine_on_fraction, 0.0, 1e-9);
}

TEST(ReportAggregatorBoundaryTest, MessageAtSlotEndRejectedEndIsExclusive) {
  const int64_t start = SlotStartEpochS(TestDate(), 5);
  ReportAggregator agg(kVehicle, TestDate(), 5, false);
  // The last second inside the window is accepted...
  EXPECT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOn,
                                      start + kSlotSeconds - 1))
                  .ok());
  // ...the end instant itself belongs to the next slot.
  EXPECT_TRUE(agg.Consume(EngineEvent(MessageKind::kEngineOff,
                                      start + kSlotSeconds))
                  .IsOutOfRange());
  // The on-run is closed at the slot end: exactly 1 of 600 seconds on.
  EXPECT_NEAR(agg.Finalize().engine_on_fraction, 1.0 / kSlotSeconds, 1e-9);
}

TEST(ReportAggregatorBoundaryTest,
     EngineOnCarriedAcrossSlotWithZeroParametricSamples) {
  // Engine on at slot start, no messages at all during the slot: the slot
  // is fully "on" with sample_count 0 and unmeasured channels at their
  // zero defaults (the paper's usage signal is engine-on time, not the
  // parametric extras).
  ReportAggregator agg(kVehicle, TestDate(), 8, /*engine_on_at_start=*/true);
  AggregatedReport r = agg.Finalize();
  EXPECT_NEAR(r.engine_on_fraction, 1.0, 1e-9);
  EXPECT_EQ(r.sample_count, 0);
  EXPECT_DOUBLE_EQ(r.avg_engine_rpm, 0.0);
}

TEST(ReportAggregatorBoundaryTest, FinalizeOnEmptySlotYieldsValidZeroReport) {
  ReportAggregator agg(kVehicle, TestDate(), 0, /*engine_on_at_start=*/false);
  AggregatedReport r = agg.Finalize();
  EXPECT_EQ(r.vehicle_id, kVehicle);
  EXPECT_EQ(r.slot, 0);
  EXPECT_NEAR(r.engine_on_fraction, 0.0, 1e-9);
  EXPECT_EQ(r.sample_count, 0);
  EXPECT_EQ(r.dtc_count, 0);
}

TEST(MessageKindTest, Names) {
  EXPECT_EQ(MessageKindToString(MessageKind::kEngineOn), "EngineOn");
  EXPECT_EQ(MessageKindToString(MessageKind::kDiagnostic), "Diagnostic");
}

}  // namespace
}  // namespace vup
