#ifndef VUPRED_TELEMETRY_REPORT_H_
#define VUPRED_TELEMETRY_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "calendar/date.h"
#include "common/statusor.h"
#include "telemetry/message.h"

namespace vup {

/// 10-minute aggregation grid: the controller collects high-frequency CAN
/// messages and sends one aggregated report per slot to the central server
/// (Section 2 of the paper).
inline constexpr int kSlotsPerDay = 144;
inline constexpr int kSlotSeconds = 600;

/// Epoch seconds at the start of `slot` (0..143) of `date` (UTC).
int64_t SlotStartEpochS(const Date& date, int slot);

/// One aggregated 10-minute report.
struct AggregatedReport {
  int64_t vehicle_id = 0;
  Date date;
  int slot = 0;  // 0..143

  double engine_on_fraction = 0.0;  // Fraction of the slot with engine on.
  double avg_engine_rpm = 0.0;
  double avg_engine_load_pct = 0.0;
  double avg_fuel_rate_lph = 0.0;
  double avg_oil_pressure_kpa = 0.0;
  double avg_coolant_temp_c = 0.0;
  double avg_speed_kmh = 0.0;
  double avg_hydraulic_temp_c = 0.0;
  double fuel_level_pct = 0.0;      // Last observed level in the slot.
  double engine_hours_total = 0.0;  // Cumulative hour-meter, last observed.
  int dtc_count = 0;
  int sample_count = 0;  // Parametric messages aggregated.

  std::string ToString() const;
};

/// Streams per-slot aggregation of raw telemetry messages.
///
/// Feed messages in timestamp order for one vehicle and one slot; Finalize
/// integrates engine-on time from on/off events and averages the decoded
/// parametric signals, exactly what the real controller ships every 10
/// minutes.
class ReportAggregator {
 public:
  /// `engine_on_at_start`: engine state inherited from the previous slot.
  ReportAggregator(int64_t vehicle_id, Date date, int slot,
                   bool engine_on_at_start);

  /// InvalidArgument when the message belongs to another vehicle or falls
  /// outside this slot's time window.
  Status Consume(const TelemetryMessage& message);

  /// Completes the slot and returns the report.
  AggregatedReport Finalize();

  /// Engine state at the end of the slot (to seed the next aggregator).
  bool engine_on() const { return engine_on_; }

 private:
  int64_t vehicle_id_;
  Date date_;
  int slot_;
  int64_t slot_start_s_;
  int64_t slot_end_s_;

  bool engine_on_;
  int64_t last_transition_s_;
  int64_t on_seconds_ = 0;

  // Running sums of decoded parametric signals.
  double sum_rpm_ = 0.0, sum_load_ = 0.0, sum_fuel_rate_ = 0.0;
  double sum_oil_pressure_ = 0.0, sum_coolant_ = 0.0, sum_speed_ = 0.0;
  double sum_hydraulic_ = 0.0;
  double last_fuel_level_ = 0.0;
  double last_engine_hours_ = 0.0;
  int samples_ = 0;
  int dtc_count_ = 0;
  bool finalized_ = false;
};

}  // namespace vup

#endif  // VUPRED_TELEMETRY_REPORT_H_
