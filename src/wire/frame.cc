#include "wire/frame.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "common/string_util.h"

namespace vup::wire {

namespace {

// ---- Little-endian primitives ------------------------------------------

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (uint16_t{p[1]} << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return p[0] | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return GetU32(p) | (uint64_t{GetU32(p + 4)} << 32);
}

// ---- Channel quantization ----------------------------------------------

/// One quantized channel: value = offset + q * scale, q in [0, max_q];
/// the all-ones sentinel (above max_q by construction) means "invalid".
struct ChannelSpec {
  double offset;
  double scale;
  uint32_t max_q;
};

constexpr ChannelSpec kEngineOn{0.0, 1.0 / 60000.0, 60000};
constexpr ChannelSpec kRpm{0.0, 0.125, 65534};
constexpr ChannelSpec kLoad{0.0, 0.01, 65534};
constexpr ChannelSpec kFuelRate{0.0, 0.05, 65534};
constexpr ChannelSpec kOilPressure{0.0, 0.1, 65534};
constexpr ChannelSpec kCoolant{-60.0, 0.01, 65534};
constexpr ChannelSpec kSpeed{0.0, 1.0 / 256.0, 65534};
constexpr ChannelSpec kHydraulic{-60.0, 0.01, 65534};
constexpr ChannelSpec kFuelLevel{0.0, 0.01, 10000};
constexpr ChannelSpec kEngineHours{0.0, 0.05, 0xFFFFFFFEu};

constexpr uint16_t kSentinel16 = 0xFFFF;
constexpr uint32_t kSentinel32 = 0xFFFFFFFFu;

uint32_t Quantize(const ChannelSpec& spec, double v, uint32_t sentinel) {
  if (!std::isfinite(v)) return sentinel;
  const double q = std::llround((v - spec.offset) / spec.scale);
  if (q < 0 || q > static_cast<double>(spec.max_q)) return sentinel;
  return static_cast<uint32_t>(q);
}

double Dequantize(const ChannelSpec& spec, uint32_t q, uint32_t sentinel) {
  if (q == sentinel) return std::numeric_limits<double>::quiet_NaN();
  return spec.offset + static_cast<double>(q) * spec.scale;
}

uint16_t QuantizeCount(int v) {
  if (v < 0 || v > 65534) return kSentinel16;
  return static_cast<uint16_t>(v);
}

int DequantizeCount(uint16_t q) { return q == kSentinel16 ? -1 : q; }

/// Sane day-number window for wire dates: ~1901..2243. Anything outside is
/// structural corruption, not a plausible fleet report.
constexpr int32_t kMinDayNumber = -25000;
constexpr int32_t kMaxDayNumber = 100000;

void AppendRecord(const AggregatedReport& r, std::string* out) {
  PutU32(out, static_cast<uint32_t>(r.date.day_number()));
  out->push_back(static_cast<char>(r.slot));
  PutU16(out, static_cast<uint16_t>(
                  Quantize(kEngineOn, r.engine_on_fraction, kSentinel16)));
  PutU16(out,
         static_cast<uint16_t>(Quantize(kRpm, r.avg_engine_rpm, kSentinel16)));
  PutU16(out, static_cast<uint16_t>(
                  Quantize(kLoad, r.avg_engine_load_pct, kSentinel16)));
  PutU16(out, static_cast<uint16_t>(
                  Quantize(kFuelRate, r.avg_fuel_rate_lph, kSentinel16)));
  PutU16(out, static_cast<uint16_t>(
                  Quantize(kOilPressure, r.avg_oil_pressure_kpa, kSentinel16)));
  PutU16(out, static_cast<uint16_t>(
                  Quantize(kCoolant, r.avg_coolant_temp_c, kSentinel16)));
  PutU16(out,
         static_cast<uint16_t>(Quantize(kSpeed, r.avg_speed_kmh, kSentinel16)));
  PutU16(out, static_cast<uint16_t>(
                  Quantize(kHydraulic, r.avg_hydraulic_temp_c, kSentinel16)));
  PutU16(out, static_cast<uint16_t>(
                  Quantize(kFuelLevel, r.fuel_level_pct, kSentinel16)));
  PutU32(out, Quantize(kEngineHours, r.engine_hours_total, kSentinel32));
  PutU16(out, QuantizeCount(r.dtc_count));
  PutU16(out, QuantizeCount(r.sample_count));
}

/// Parses one record at `p` (bounds already checked by the caller).
/// False on a structurally invalid record (bad slot / day number).
bool ParseRecord(const uint8_t* p, int64_t vehicle_id, AggregatedReport* r) {
  const int32_t day = static_cast<int32_t>(GetU32(p));
  if (day < kMinDayNumber || day > kMaxDayNumber) return false;
  const uint8_t slot = p[4];
  if (slot >= kSlotsPerDay) return false;
  r->vehicle_id = vehicle_id;
  r->date = Date::FromDayNumber(day);
  r->slot = slot;
  r->engine_on_fraction = Dequantize(kEngineOn, GetU16(p + 5), kSentinel16);
  r->avg_engine_rpm = Dequantize(kRpm, GetU16(p + 7), kSentinel16);
  r->avg_engine_load_pct = Dequantize(kLoad, GetU16(p + 9), kSentinel16);
  r->avg_fuel_rate_lph = Dequantize(kFuelRate, GetU16(p + 11), kSentinel16);
  r->avg_oil_pressure_kpa =
      Dequantize(kOilPressure, GetU16(p + 13), kSentinel16);
  r->avg_coolant_temp_c = Dequantize(kCoolant, GetU16(p + 15), kSentinel16);
  r->avg_speed_kmh = Dequantize(kSpeed, GetU16(p + 17), kSentinel16);
  r->avg_hydraulic_temp_c = Dequantize(kHydraulic, GetU16(p + 19), kSentinel16);
  r->fuel_level_pct = Dequantize(kFuelLevel, GetU16(p + 21), kSentinel16);
  r->engine_hours_total = Dequantize(kEngineHours, GetU32(p + 23), kSentinel32);
  r->dtc_count = DequantizeCount(GetU16(p + 27));
  r->sample_count = DequantizeCount(GetU16(p + 29));
  return true;
}

}  // namespace

AggregatedReport QuantizeForWire(const AggregatedReport& report) {
  AggregatedReport q = report;
  q.engine_on_fraction =
      Dequantize(kEngineOn,
                 Quantize(kEngineOn, report.engine_on_fraction, kSentinel16),
                 kSentinel16);
  q.avg_engine_rpm = Dequantize(
      kRpm, Quantize(kRpm, report.avg_engine_rpm, kSentinel16), kSentinel16);
  q.avg_engine_load_pct = Dequantize(
      kLoad, Quantize(kLoad, report.avg_engine_load_pct, kSentinel16),
      kSentinel16);
  q.avg_fuel_rate_lph = Dequantize(
      kFuelRate, Quantize(kFuelRate, report.avg_fuel_rate_lph, kSentinel16),
      kSentinel16);
  q.avg_oil_pressure_kpa =
      Dequantize(kOilPressure,
                 Quantize(kOilPressure, report.avg_oil_pressure_kpa,
                          kSentinel16),
                 kSentinel16);
  q.avg_coolant_temp_c = Dequantize(
      kCoolant, Quantize(kCoolant, report.avg_coolant_temp_c, kSentinel16),
      kSentinel16);
  q.avg_speed_kmh = Dequantize(
      kSpeed, Quantize(kSpeed, report.avg_speed_kmh, kSentinel16),
      kSentinel16);
  q.avg_hydraulic_temp_c =
      Dequantize(kHydraulic,
                 Quantize(kHydraulic, report.avg_hydraulic_temp_c,
                          kSentinel16),
                 kSentinel16);
  q.fuel_level_pct = Dequantize(
      kFuelLevel, Quantize(kFuelLevel, report.fuel_level_pct, kSentinel16),
      kSentinel16);
  q.engine_hours_total =
      Dequantize(kEngineHours,
                 Quantize(kEngineHours, report.engine_hours_total,
                          kSentinel32),
                 kSentinel32);
  q.dtc_count = DequantizeCount(QuantizeCount(report.dtc_count));
  q.sample_count = DequantizeCount(QuantizeCount(report.sample_count));
  return q;
}

Status EncodeFrame(int64_t vehicle_id,
                   std::span<const AggregatedReport> reports,
                   std::string* out) {
  if (reports.empty()) {
    return Status::InvalidArgument("empty report batch");
  }
  if (reports.size() > kMaxReportsPerFrame) {
    return Status::InvalidArgument(
        StrFormat("batch of %zu exceeds %zu reports per frame",
                  reports.size(), kMaxReportsPerFrame));
  }
  if (vehicle_id <= 0) {
    return Status::InvalidArgument("non-positive vehicle id");
  }
  for (const AggregatedReport& r : reports) {
    if (r.slot < 0 || r.slot >= kSlotsPerDay) {
      return Status::InvalidArgument(
          StrFormat("slot %d outside [0, %d)", r.slot, kSlotsPerDay));
    }
    if (r.date.day_number() < kMinDayNumber ||
        r.date.day_number() > kMaxDayNumber) {
      return Status::InvalidArgument(
          StrFormat("day number %d outside the wire-representable window",
                    r.date.day_number()));
    }
  }

  const size_t frame_start = out->size();
  const uint32_t payload_len =
      static_cast<uint32_t>(8 + reports.size() * kRecordBytes);
  PutU32(out, kFrameMagic);
  PutU16(out, kWireVersion);
  PutU16(out, static_cast<uint16_t>(reports.size()));
  PutU32(out, payload_len);
  PutU64(out, static_cast<uint64_t>(vehicle_id));
  for (const AggregatedReport& r : reports) AppendRecord(r, out);
  const uint32_t crc = Crc32(out->data() + frame_start,
                             out->size() - frame_start);
  PutU32(out, crc);
  return Status::OK();
}

Status EncodeBatch(std::span<const AggregatedReport> reports,
                   std::string* out, size_t* rejected) {
  size_t rejects = 0;
  // Group by vehicle in first-appearance order: the order a device-side
  // uploader would naturally batch its own backlog.
  std::vector<int64_t> order;
  std::vector<std::vector<const AggregatedReport*>> groups;
  for (const AggregatedReport& r : reports) {
    if (r.vehicle_id <= 0 || r.slot < 0 || r.slot >= kSlotsPerDay ||
        r.date.day_number() < kMinDayNumber ||
        r.date.day_number() > kMaxDayNumber) {
      ++rejects;
      continue;
    }
    size_t g = 0;
    for (; g < order.size(); ++g) {
      if (order[g] == r.vehicle_id) break;
    }
    if (g == order.size()) {
      order.push_back(r.vehicle_id);
      groups.emplace_back();
    }
    groups[g].push_back(&r);
  }
  for (size_t g = 0; g < order.size(); ++g) {
    const std::vector<const AggregatedReport*>& group = groups[g];
    for (size_t at = 0; at < group.size(); at += kMaxReportsPerFrame) {
      const size_t take =
          std::min(kMaxReportsPerFrame, group.size() - at);
      std::vector<AggregatedReport> chunk;
      chunk.reserve(take);
      for (size_t i = 0; i < take; ++i) chunk.push_back(*group[at + i]);
      VUP_RETURN_IF_ERROR(EncodeFrame(order[g], chunk, out));
    }
  }
  if (rejected != nullptr) *rejected = rejects;
  return Status::OK();
}

Status DecodeFrame(std::span<const uint8_t> buffer, DecodedFrame* frame,
                   size_t* consumed) {
  *consumed = 0;
  // Magic: checked byte-by-byte so a short buffer distinguishes "not a
  // frame" from "frame still arriving".
  const uint8_t magic_bytes[4] = {
      static_cast<uint8_t>(kFrameMagic & 0xFF),
      static_cast<uint8_t>((kFrameMagic >> 8) & 0xFF),
      static_cast<uint8_t>((kFrameMagic >> 16) & 0xFF),
      static_cast<uint8_t>((kFrameMagic >> 24) & 0xFF)};
  const size_t magic_avail = std::min<size_t>(buffer.size(), 4);
  for (size_t i = 0; i < magic_avail; ++i) {
    if (buffer[i] != magic_bytes[i]) {
      return Status::DataLoss("bad frame magic");
    }
  }
  if (buffer.size() < kFrameHeaderBytes) {
    return Status::OutOfRange("truncated frame header");
  }

  const uint16_t version = GetU16(buffer.data() + 4);
  const uint16_t report_count = GetU16(buffer.data() + 6);
  const uint32_t payload_len = GetU32(buffer.data() + 8);
  if (version == 0) {
    return Status::DataLoss("frame version 0 is invalid");
  }
  if (payload_len > kMaxPayloadBytes) {
    return Status::DataLoss(
        StrFormat("payload length %u exceeds the %zu-byte cap",
                  payload_len, kMaxPayloadBytes));
  }
  if (version == kWireVersion) {
    if (report_count == 0 || report_count > kMaxReportsPerFrame) {
      return Status::DataLoss(
          StrFormat("report count %u outside [1, %zu]", report_count,
                    kMaxReportsPerFrame));
    }
    if (payload_len != 8 + static_cast<uint32_t>(report_count) *
                               static_cast<uint32_t>(kRecordBytes)) {
      return Status::DataLoss("payload length inconsistent with count");
    }
  }
  const size_t total = kFrameHeaderBytes + payload_len + 4;
  if (buffer.size() < total) {
    return Status::OutOfRange("truncated frame body");
  }

  const uint32_t stored_crc = GetU32(buffer.data() + total - 4);
  const uint32_t actual_crc = Crc32(buffer.first(total - 4));
  if (stored_crc != actual_crc) {
    return Status::DataLoss("frame CRC mismatch");
  }
  if (version > kWireVersion) {
    // Well-formed frame of a future format: skip it whole.
    *consumed = total;
    return Status::Unimplemented(
        StrFormat("wire format version %u (decoder speaks %u)", version,
                  kWireVersion));
  }

  const uint8_t* body = buffer.data() + kFrameHeaderBytes;
  const int64_t vehicle_id = static_cast<int64_t>(GetU64(body));
  if (vehicle_id <= 0) {
    return Status::DataLoss("non-positive vehicle id in frame");
  }
  DecodedFrame out;
  out.vehicle_id = vehicle_id;
  out.version = version;
  // report_count was validated against the cap above, so this reserve is
  // bounded regardless of input bytes.
  out.reports.reserve(report_count);
  for (uint16_t i = 0; i < report_count; ++i) {
    AggregatedReport r;
    if (!ParseRecord(body + 8 + static_cast<size_t>(i) * kRecordBytes,
                     vehicle_id, &r)) {
      return Status::DataLoss(
          StrFormat("record %u structurally invalid", i));
    }
    out.reports.push_back(std::move(r));
  }
  *frame = std::move(out);
  *consumed = total;
  return Status::OK();
}

std::string WireDecoderStats::ToString() const {
  return StrFormat(
      "WireDecoderStats{decoded=%llu reports=%llu corrupt=%llu "
      "version=%llu resyncs=%llu skipped=%llu}",
      static_cast<unsigned long long>(frames_decoded),
      static_cast<unsigned long long>(reports_decoded),
      static_cast<unsigned long long>(frames_rejected_corrupt),
      static_cast<unsigned long long>(frames_rejected_version),
      static_cast<unsigned long long>(resyncs),
      static_cast<unsigned long long>(bytes_skipped));
}

void WireDecoder::Feed(std::span<const uint8_t> bytes,
                       const FrameFn& on_frame) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  size_t offset = 0;
  while (offset < buffer_.size()) {
    const std::span<const uint8_t> rest(buffer_.data() + offset,
                                        buffer_.size() - offset);
    DecodedFrame frame;
    size_t consumed = 0;
    const Status s = DecodeFrame(rest, &frame, &consumed);
    if (s.ok()) {
      ++stats_.frames_decoded;
      stats_.reports_decoded += frame.reports.size();
      if (on_frame) on_frame(frame, rest.first(consumed));
      offset += consumed;
      continue;
    }
    if (s.IsOutOfRange()) break;  // Frame still arriving.
    if (s.IsUnimplemented()) {
      ++stats_.frames_rejected_version;
      offset += consumed;
      continue;
    }
    // Corruption at `offset`: skip at least one byte and scan forward for
    // the next full magic (skip-and-continue resync).
    ++stats_.frames_rejected_corrupt;
    ++stats_.resyncs;
    size_t next = buffer_.size();
    for (size_t i = offset + 1; i + 4 <= buffer_.size(); ++i) {
      if (GetU32(buffer_.data() + i) == kFrameMagic) {
        next = i;
        break;
      }
    }
    if (next == buffer_.size()) {
      // No full magic left: retain the longest strict tail that is a magic
      // prefix (it may complete in the next chunk), discard the rest.
      for (size_t len = std::min<size_t>(3, buffer_.size() - offset - 1);
           len > 0; --len) {
        const size_t start = buffer_.size() - len;
        bool is_prefix = true;
        for (size_t i = 0; i < len; ++i) {
          if (buffer_[start + i] !=
              static_cast<uint8_t>((kFrameMagic >> (8 * i)) & 0xFF)) {
            is_prefix = false;
            break;
          }
        }
        if (is_prefix) {
          next = start;
          break;
        }
      }
    }
    stats_.bytes_skipped += next - offset;
    buffer_.erase(buffer_.begin() + static_cast<ptrdiff_t>(offset),
                  buffer_.begin() + static_cast<ptrdiff_t>(next));
    // Loop continues decoding at `offset`, now the resync point.
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<ptrdiff_t>(offset));
}

}  // namespace vup::wire
