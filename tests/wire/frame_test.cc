#include "wire/frame.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32.h"

namespace vup::wire {
namespace {

Date D0() { return Date::FromYmd(2017, 3, 6).value(); }

AggregatedReport Report(int64_t vehicle, Date date, int slot,
                        double on_fraction = 0.5) {
  AggregatedReport r;
  r.vehicle_id = vehicle;
  r.date = date;
  r.slot = slot;
  r.engine_on_fraction = on_fraction;
  r.avg_engine_rpm = 1250.0;
  r.avg_engine_load_pct = 43.21;
  r.avg_fuel_rate_lph = 12.35;
  r.avg_oil_pressure_kpa = 310.7;
  r.avg_coolant_temp_c = 88.64;
  r.avg_speed_kmh = 14.5;
  r.avg_hydraulic_temp_c = 61.02;
  r.fuel_level_pct = 73.25;
  r.engine_hours_total = 1234.55;
  r.dtc_count = 2;
  r.sample_count = 5;
  return r;
}

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

/// Decodes all frames of `stream` with a fresh WireDecoder.
std::vector<DecodedFrame> DecodeAll(const std::string& stream,
                                    WireDecoderStats* stats = nullptr) {
  WireDecoder decoder;
  std::vector<DecodedFrame> frames;
  decoder.Feed(AsBytes(stream),
               [&frames](const DecodedFrame& f, std::span<const uint8_t>) {
                 frames.push_back(f);
               });
  if (stats != nullptr) *stats = decoder.stats();
  return frames;
}

TEST(Crc32Test, KnownVector) {
  // The classic IEEE CRC-32 check value.
  const char* msg = "123456789";
  EXPECT_EQ(Crc32(msg, 9), 0xCBF43926u);
}

TEST(FrameCodecTest, RoundTripMatchesQuantizeForWire) {
  std::vector<AggregatedReport> reports = {Report(7, D0(), 10),
                                           Report(7, D0(), 11, 1.0)};
  std::string stream;
  ASSERT_TRUE(EncodeFrame(7, reports, &stream).ok());

  DecodedFrame frame;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(AsBytes(stream), &frame, &consumed).ok());
  EXPECT_EQ(consumed, stream.size());
  EXPECT_EQ(frame.vehicle_id, 7);
  EXPECT_EQ(frame.version, kWireVersion);
  ASSERT_EQ(frame.reports.size(), 2u);

  for (size_t i = 0; i < reports.size(); ++i) {
    const AggregatedReport expected = QuantizeForWire(reports[i]);
    const AggregatedReport& got = frame.reports[i];
    EXPECT_EQ(got.vehicle_id, expected.vehicle_id);
    EXPECT_EQ(got.date, expected.date);
    EXPECT_EQ(got.slot, expected.slot);
    EXPECT_DOUBLE_EQ(got.engine_on_fraction, expected.engine_on_fraction);
    EXPECT_DOUBLE_EQ(got.avg_engine_rpm, expected.avg_engine_rpm);
    EXPECT_DOUBLE_EQ(got.avg_engine_load_pct, expected.avg_engine_load_pct);
    EXPECT_DOUBLE_EQ(got.avg_fuel_rate_lph, expected.avg_fuel_rate_lph);
    EXPECT_DOUBLE_EQ(got.avg_oil_pressure_kpa, expected.avg_oil_pressure_kpa);
    EXPECT_DOUBLE_EQ(got.avg_coolant_temp_c, expected.avg_coolant_temp_c);
    EXPECT_DOUBLE_EQ(got.avg_speed_kmh, expected.avg_speed_kmh);
    EXPECT_DOUBLE_EQ(got.avg_hydraulic_temp_c, expected.avg_hydraulic_temp_c);
    EXPECT_DOUBLE_EQ(got.fuel_level_pct, expected.fuel_level_pct);
    EXPECT_DOUBLE_EQ(got.engine_hours_total, expected.engine_hours_total);
    EXPECT_EQ(got.dtc_count, expected.dtc_count);
    EXPECT_EQ(got.sample_count, expected.sample_count);
  }
}

TEST(FrameCodecTest, QuantizationErrorIsSmall) {
  const AggregatedReport r = Report(7, D0(), 10);
  const AggregatedReport q = QuantizeForWire(r);
  EXPECT_NEAR(q.engine_on_fraction, r.engine_on_fraction, 1.0 / 60000);
  EXPECT_NEAR(q.avg_engine_rpm, r.avg_engine_rpm, 0.125);
  EXPECT_NEAR(q.avg_engine_load_pct, r.avg_engine_load_pct, 0.01);
  EXPECT_NEAR(q.avg_fuel_rate_lph, r.avg_fuel_rate_lph, 0.05);
  EXPECT_NEAR(q.avg_oil_pressure_kpa, r.avg_oil_pressure_kpa, 0.1);
  EXPECT_NEAR(q.avg_coolant_temp_c, r.avg_coolant_temp_c, 0.01);
  EXPECT_NEAR(q.avg_speed_kmh, r.avg_speed_kmh, 1.0 / 256);
  EXPECT_NEAR(q.avg_hydraulic_temp_c, r.avg_hydraulic_temp_c, 0.01);
  EXPECT_NEAR(q.fuel_level_pct, r.fuel_level_pct, 0.01);
  EXPECT_NEAR(q.engine_hours_total, r.engine_hours_total, 0.05);
}

TEST(FrameCodecTest, UnrepresentableChannelsTravelAsSentinels) {
  // Corruption must survive the wire so server-side validation sees it:
  // NaN, inf, and out-of-grid values all decode back as NaN, negative
  // counts as -1. The encode itself never fails.
  AggregatedReport r = Report(9, D0(), 3);
  r.engine_on_fraction = std::numeric_limits<double>::quiet_NaN();
  r.avg_engine_rpm = std::numeric_limits<double>::infinity();
  r.avg_coolant_temp_c = -999.0;  // Below the -60 C grid floor.
  r.avg_speed_kmh = 300.0;        // Above the u16 grid at 1/256 km/h.
  r.dtc_count = -3;
  std::string stream;
  ASSERT_TRUE(EncodeFrame(9, {&r, 1}, &stream).ok());

  DecodedFrame frame;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(AsBytes(stream), &frame, &consumed).ok());
  ASSERT_EQ(frame.reports.size(), 1u);
  EXPECT_TRUE(std::isnan(frame.reports[0].engine_on_fraction));
  EXPECT_TRUE(std::isnan(frame.reports[0].avg_engine_rpm));
  EXPECT_TRUE(std::isnan(frame.reports[0].avg_coolant_temp_c));
  EXPECT_TRUE(std::isnan(frame.reports[0].avg_speed_kmh));
  EXPECT_EQ(frame.reports[0].dtc_count, -1);
  // Untouched channels still round-trip.
  EXPECT_NEAR(frame.reports[0].fuel_level_pct, 73.25, 0.01);
}

TEST(FrameCodecTest, EncodeRejectsStructurallyInvalidInput) {
  std::string out;
  const AggregatedReport ok = Report(1, D0(), 0);
  EXPECT_TRUE(EncodeFrame(1, {}, &out).IsInvalidArgument());
  EXPECT_TRUE(EncodeFrame(0, {&ok, 1}, &out).IsInvalidArgument());
  EXPECT_TRUE(EncodeFrame(-5, {&ok, 1}, &out).IsInvalidArgument());
  AggregatedReport bad_slot = Report(1, D0(), kSlotsPerDay);
  EXPECT_TRUE(EncodeFrame(1, {&bad_slot, 1}, &out).IsInvalidArgument());
  std::vector<AggregatedReport> too_many(kMaxReportsPerFrame + 1,
                                         Report(1, D0(), 0));
  EXPECT_TRUE(EncodeFrame(1, too_many, &out).IsInvalidArgument());
  EXPECT_TRUE(out.empty() || out.size() < kFrameHeaderBytes)
      << "failed encodes must not leave partial frames behind";
}

TEST(FrameCodecTest, EncodeBatchGroupsByVehicleAndCountsRejects) {
  std::vector<AggregatedReport> batch = {
      Report(1, D0(), 0), Report(2, D0(), 0), Report(1, D0(), 1),
      Report(-1, D0(), 2),  // Unframeable: bad id.
  };
  std::string stream;
  size_t rejected = 0;
  ASSERT_TRUE(EncodeBatch(batch, &stream, &rejected).ok());
  EXPECT_EQ(rejected, 1u);

  WireDecoderStats stats;
  std::vector<DecodedFrame> frames = DecodeAll(stream, &stats);
  ASSERT_EQ(frames.size(), 2u);  // One frame per vehicle.
  EXPECT_EQ(frames[0].vehicle_id, 1);
  EXPECT_EQ(frames[0].reports.size(), 2u);
  EXPECT_EQ(frames[1].vehicle_id, 2);
  EXPECT_EQ(frames[1].reports.size(), 1u);
  EXPECT_EQ(stats.frames_rejected_corrupt, 0u);
}

TEST(FrameDecodeTest, TruncationIsOutOfRangeAtEveryPrefix) {
  std::string stream;
  const AggregatedReport r = Report(7, D0(), 10);
  ASSERT_TRUE(EncodeFrame(7, {&r, 1}, &stream).ok());
  for (size_t len = 1; len < stream.size(); ++len) {
    DecodedFrame frame;
    size_t consumed = 1;
    Status s = DecodeFrame(AsBytes(stream).first(len), &frame, &consumed);
    EXPECT_TRUE(s.IsOutOfRange()) << "prefix " << len << ": " << s.ToString();
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(FrameDecodeTest, BadMagicIsDataLoss) {
  std::string stream;
  const AggregatedReport r = Report(7, D0(), 10);
  ASSERT_TRUE(EncodeFrame(7, {&r, 1}, &stream).ok());
  stream[0] ^= 0x01;
  DecodedFrame frame;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(AsBytes(stream), &frame, &consumed).IsDataLoss());
}

TEST(FrameDecodeTest, CrcMismatchIsDataLoss) {
  std::string stream;
  const AggregatedReport r = Report(7, D0(), 10);
  ASSERT_TRUE(EncodeFrame(7, {&r, 1}, &stream).ok());
  stream[kFrameHeaderBytes + 3] ^= 0x40;  // Flip one body bit.
  DecodedFrame frame;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(AsBytes(stream), &frame, &consumed).IsDataLoss());
}

TEST(FrameDecodeTest, OversizePayloadLengthIsDataLossNotAllocation) {
  // A hostile header claiming a huge payload must be rejected from the
  // 12 header bytes alone -- never "wait for more bytes".
  std::string stream;
  const AggregatedReport r = Report(7, D0(), 10);
  ASSERT_TRUE(EncodeFrame(7, {&r, 1}, &stream).ok());
  // payload_len lives at offset 8; overwrite with 0xFFFFFFFF.
  for (int i = 8; i < 12; ++i) stream[i] = static_cast<char>(0xFF);
  DecodedFrame frame;
  size_t consumed = 0;
  Status s = DecodeFrame(AsBytes(stream).first(kFrameHeaderBytes), &frame,
                         &consumed);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
}

std::string MakeNewerVersionFrame() {
  // A well-formed frame of format version 2 with an opaque 4-byte body:
  // header + body + CRC, all consistent, just a version we don't speak.
  std::string f;
  auto put_u16 = [&f](uint16_t v) {
    f.push_back(static_cast<char>(v & 0xFF));
    f.push_back(static_cast<char>(v >> 8));
  };
  auto put_u32 = [&f](uint32_t v) {
    for (int i = 0; i < 4; ++i) f.push_back(static_cast<char>(v >> (8 * i)));
  };
  put_u32(kFrameMagic);
  put_u16(2);           // Future version.
  put_u16(0);           // report_count meaningless in v2.
  put_u32(4);           // payload_len.
  put_u32(0xDEADBEEF);  // Opaque v2 body.
  put_u32(Crc32(f.data(), f.size()));
  return f;
}

TEST(FrameDecodeTest, NewerVersionSkippedWhole) {
  const std::string v2 = MakeNewerVersionFrame();
  DecodedFrame frame;
  size_t consumed = 0;
  Status s = DecodeFrame(AsBytes(v2), &frame, &consumed);
  EXPECT_TRUE(s.IsUnimplemented()) << s.ToString();
  EXPECT_EQ(consumed, v2.size());
}

TEST(FrameDecodeTest, NewerVersionWithBadCrcResyncsAsCorruption) {
  std::string v2 = MakeNewerVersionFrame();
  v2[14] ^= 0x10;
  DecodedFrame frame;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(AsBytes(v2), &frame, &consumed).IsDataLoss());
}

TEST(WireDecoderTest, StreamSurvivesGarbageBetweenFrames) {
  std::string stream = "garbage bytes that are not a frame";
  const AggregatedReport r1 = Report(7, D0(), 10);
  ASSERT_TRUE(EncodeFrame(7, {&r1, 1}, &stream).ok());
  stream += "\x56\x55";  // A magic prefix that never completes...
  stream += "noise";     // ...followed by more noise.
  const AggregatedReport r2 = Report(8, D0(), 11);
  ASSERT_TRUE(EncodeFrame(8, {&r2, 1}, &stream).ok());

  WireDecoderStats stats;
  std::vector<DecodedFrame> frames = DecodeAll(stream, &stats);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].vehicle_id, 7);
  EXPECT_EQ(frames[1].vehicle_id, 8);
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_GT(stats.bytes_skipped, 0u);
}

TEST(WireDecoderTest, CorruptMiddleFrameIsSkippedNeighborsSurvive) {
  std::string f1, f2, f3;
  const AggregatedReport r1 = Report(1, D0(), 1);
  const AggregatedReport r2 = Report(2, D0(), 2);
  const AggregatedReport r3 = Report(3, D0(), 3);
  ASSERT_TRUE(EncodeFrame(1, {&r1, 1}, &f1).ok());
  ASSERT_TRUE(EncodeFrame(2, {&r2, 1}, &f2).ok());
  ASSERT_TRUE(EncodeFrame(3, {&r3, 1}, &f3).ok());
  f2[kFrameHeaderBytes + 5] ^= 0x04;  // Corrupt the middle frame's body.

  WireDecoderStats stats;
  std::vector<DecodedFrame> frames = DecodeAll(f1 + f2 + f3, &stats);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].vehicle_id, 1);
  EXPECT_EQ(frames[1].vehicle_id, 3);
  EXPECT_EQ(stats.frames_rejected_corrupt, 1u);
}

TEST(WireDecoderTest, ByteAtATimeFeedDecodesEverything) {
  std::string stream;
  for (int v = 1; v <= 3; ++v) {
    const AggregatedReport r = Report(v, D0(), v);
    ASSERT_TRUE(EncodeFrame(v, {&r, 1}, &stream).ok());
  }
  WireDecoder decoder;
  std::vector<DecodedFrame> frames;
  for (char c : stream) {
    const uint8_t b = static_cast<uint8_t>(c);
    decoder.Feed({&b, 1},
                 [&frames](const DecodedFrame& f, std::span<const uint8_t>) {
                   frames.push_back(f);
                 });
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
  EXPECT_EQ(decoder.stats().frames_decoded, 3u);
  EXPECT_EQ(decoder.stats().frames_rejected_corrupt, 0u);
}

TEST(WireDecoderTest, RawSpanMatchesEncodedFrame) {
  std::string stream;
  const AggregatedReport r = Report(7, D0(), 10);
  ASSERT_TRUE(EncodeFrame(7, {&r, 1}, &stream).ok());
  WireDecoder decoder;
  std::string raw_copy;
  decoder.Feed(AsBytes(stream),
               [&raw_copy](const DecodedFrame&, std::span<const uint8_t> raw) {
                 raw_copy.assign(raw.begin(), raw.end());
               });
  EXPECT_EQ(raw_copy, stream);
}

TEST(WireDecoderTest, PendingBytesBoundedUnderGarbageFlood) {
  // Feeding pure garbage must not grow the buffer without bound: the
  // decoder discards everything but (at most) a 3-byte magic prefix tail.
  WireDecoder decoder;
  std::vector<uint8_t> garbage(4096);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (int round = 0; round < 64; ++round) {
    decoder.Feed(garbage, nullptr);
    EXPECT_LE(decoder.pending_bytes(), kMaxFrameBytes);
  }
  EXPECT_GT(decoder.stats().bytes_skipped, 200000u);
}

}  // namespace
}  // namespace vup::wire
