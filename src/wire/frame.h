#ifndef VUPRED_WIRE_FRAME_H_
#define VUPRED_WIRE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "telemetry/report.h"

namespace vup::wire {

/// Compact little-endian wire format for AggregatedReport batches: what the
/// on-board device uploads every 10 minutes over a flaky cellular link
/// (paper Section 2). One frame carries 1..kMaxReportsPerFrame reports of a
/// single vehicle.
///
/// Frame layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic        "VUPW" (0x56 0x55 0x50 0x57)
///   4       2     version      format version, currently 1
///   6       2     report_count 1..kMaxReportsPerFrame
///   8       4     payload_len  byte length of the body; must equal
///                              8 + report_count * kRecordBytes in v1
///   12      8     vehicle_id   body starts here; positive
///   20      ...   records      report_count fixed-size records
///   ...     4     crc32        IEEE CRC-32 of bytes [0, 12 + payload_len)
///
/// Each record (kRecordBytes = 31 bytes):
///
///   i32 day_number     days since 1970-01-01
///   u8  slot           0..143
///   u16 q_engine_on    engine_on_fraction / (1/60000)
///   u16 q_rpm          avg_engine_rpm / 0.125
///   u16 q_load         avg_engine_load_pct / 0.01
///   u16 q_fuel_rate    avg_fuel_rate_lph / 0.05
///   u16 q_oil_pressure avg_oil_pressure_kpa / 0.1
///   u16 q_coolant      (avg_coolant_temp_c + 60) / 0.01
///   u16 q_speed        avg_speed_kmh / (1/256)
///   u16 q_hydraulic    (avg_hydraulic_temp_c + 60) / 0.01
///   u16 q_fuel_level   fuel_level_pct / 0.01
///   u32 q_engine_hours engine_hours_total / 0.05
///   u16 dtc_count
///   u16 sample_count
///
/// Quantized channels reserve the all-ones pattern (0xFFFF / 0xFFFFFFFF) as
/// the J1939-style "invalid / not representable" sentinel: an encoder faced
/// with a non-finite or out-of-range channel ships the sentinel instead of
/// failing, and the decoder surfaces it as NaN (doubles) or -1 (counts) so
/// server-side validation can reject it -- sensor corruption travels the
/// wire explicitly rather than silently clamping.
///
/// Version negotiation: the 12-byte header and the trailing CRC are
/// invariant across versions; only the body layout may change. A decoder
/// that sees a newer version with a sane payload_len and a valid CRC skips
/// the frame whole (counted as version-rejected) and keeps the stream
/// alive; a CRC failure is indistinguishable from corruption and resyncs.
inline constexpr uint32_t kFrameMagic = 0x57505556u;  // "VUPW" LE.
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr size_t kRecordBytes = 31;
inline constexpr size_t kMaxReportsPerFrame = 1024;
/// Upper bound on payload_len the decoder will ever accept, any version:
/// caps allocation and version-skip distance on attacker-controlled input.
inline constexpr size_t kMaxPayloadBytes =
    8 + kMaxReportsPerFrame * kRecordBytes;
inline constexpr size_t kMaxFrameBytes =
    kFrameHeaderBytes + kMaxPayloadBytes + 4;

/// Round-trips one report's channels through quantization: what a decoder
/// on the other end of the wire will see. Unrepresentable channels come
/// back as NaN / -1. Grid fields (vehicle_id, date, slot) are untouched.
AggregatedReport QuantizeForWire(const AggregatedReport& report);

/// Appends one frame holding `reports` (all for `vehicle_id`, at most
/// kMaxReportsPerFrame) to `out`. InvalidArgument on an empty or oversized
/// batch, a non-positive vehicle id, or a report with a slot outside
/// [0, kSlotsPerDay). Channel values are quantized (see above) and never
/// fail the encode.
Status EncodeFrame(int64_t vehicle_id,
                   std::span<const AggregatedReport> reports,
                   std::string* out);

/// Encodes a mixed-vehicle batch: reports are grouped by vehicle id in
/// first-appearance order and chunked into frames of at most
/// kMaxReportsPerFrame. Reports that cannot be framed (bad slot / id) are
/// skipped and counted in `*rejected` (may be null); the returned status
/// is OK as long as at least one report was encoded or the input was empty.
Status EncodeBatch(std::span<const AggregatedReport> reports,
                   std::string* out, size_t* rejected = nullptr);

/// One decoded frame.
struct DecodedFrame {
  int64_t vehicle_id = 0;
  uint16_t version = kWireVersion;
  std::vector<AggregatedReport> reports;
};

/// Attempts to decode one frame at the start of `buffer`.
///
///   OK                 -- *frame filled, *consumed = frame size.
///   OutOfRange         -- truncated: the buffer ends inside a plausible
///                         frame; feed more bytes (*consumed = 0).
///   DataLoss           -- corrupt: bad magic, impossible lengths, CRC
///                         mismatch, or invalid structural fields.
///                         *consumed = 0; the caller should resync.
///   Unimplemented      -- version skew: a well-formed frame of a newer
///                         format version; *consumed = frame size so the
///                         caller can skip it whole.
///
/// The decoder treats every byte as hostile: all reads are bounds-checked,
/// no allocation is proportional to unvalidated attacker-controlled
/// fields, and a frame is never partially surfaced.
Status DecodeFrame(std::span<const uint8_t> buffer, DecodedFrame* frame,
                   size_t* consumed);

/// Streaming decoder statistics (also exported as vupred_wire_* counters).
struct WireDecoderStats {
  uint64_t frames_decoded = 0;
  uint64_t reports_decoded = 0;
  uint64_t frames_rejected_corrupt = 0;  // Resynced past.
  uint64_t frames_rejected_version = 0;  // Skipped whole.
  uint64_t resyncs = 0;                  // Scans for the next magic.
  uint64_t bytes_skipped = 0;            // Bytes discarded while resyncing.

  std::string ToString() const;
};

/// Incremental frame decoder for a chunked byte stream: frames may span
/// arbitrary chunk boundaries; corruption is skipped by scanning to the
/// next magic (skip-and-continue resync); newer-version frames are skipped
/// whole. Bounded memory: the internal buffer never exceeds one maximum
/// frame plus one chunk.
class WireDecoder {
 public:
  /// Callback per decoded frame; `raw` is the frame's exact encoded bytes
  /// (valid only for the duration of the call), so callers can journal the
  /// frame verbatim.
  using FrameFn =
      std::function<void(const DecodedFrame&, std::span<const uint8_t> raw)>;

  WireDecoder() = default;

  /// Consumes `bytes`, invoking `on_frame` for every complete valid frame.
  void Feed(std::span<const uint8_t> bytes, const FrameFn& on_frame);

  /// Bytes buffered but not yet decodable (a torn tail once the stream
  /// ends; a frame in flight otherwise).
  size_t pending_bytes() const { return buffer_.size(); }

  const WireDecoderStats& stats() const { return stats_; }

 private:
  std::vector<uint8_t> buffer_;
  WireDecoderStats stats_;
};

}  // namespace vup::wire

#endif  // VUPRED_WIRE_FRAME_H_
