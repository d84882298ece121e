#include "telemetry/report.h"

#include "common/check.h"
#include "common/string_util.h"
#include "telemetry/signal.h"

namespace vup {

int64_t SlotStartEpochS(const Date& date, int slot) {
  VUP_CHECK(slot >= 0 && slot < kSlotsPerDay) << "slot " << slot;
  return static_cast<int64_t>(date.day_number()) * 86400 +
         static_cast<int64_t>(slot) * kSlotSeconds;
}

std::string AggregatedReport::ToString() const {
  return StrFormat(
      "Report{v=%lld %s slot=%d on=%.2f rpm=%.0f load=%.0f fuel=%.1fL/h "
      "lvl=%.0f%% hrs=%.1f}",
      static_cast<long long>(vehicle_id), date.ToString().c_str(), slot,
      engine_on_fraction, avg_engine_rpm, avg_engine_load_pct,
      avg_fuel_rate_lph, fuel_level_pct, engine_hours_total);
}

ReportAggregator::ReportAggregator(int64_t vehicle_id, Date date, int slot,
                                   bool engine_on_at_start)
    : vehicle_id_(vehicle_id),
      date_(date),
      slot_(slot),
      slot_start_s_(SlotStartEpochS(date, slot)),
      slot_end_s_(slot_start_s_ + kSlotSeconds),
      engine_on_(engine_on_at_start),
      last_transition_s_(slot_start_s_) {}

Status ReportAggregator::Consume(const TelemetryMessage& message) {
  if (finalized_) {
    return Status::FailedPrecondition("aggregator already finalized");
  }
  if (message.vehicle_id != vehicle_id_) {
    return Status::InvalidArgument(
        StrFormat("message for vehicle %lld fed to aggregator of %lld",
                  static_cast<long long>(message.vehicle_id),
                  static_cast<long long>(vehicle_id_)));
  }
  if (message.timestamp_s < slot_start_s_ ||
      message.timestamp_s >= slot_end_s_) {
    return Status::OutOfRange("message timestamp outside slot window");
  }

  switch (message.kind) {
    case MessageKind::kEngineOn:
      if (!engine_on_) {
        engine_on_ = true;
        last_transition_s_ = message.timestamp_s;
      }
      break;
    case MessageKind::kEngineOff:
      if (engine_on_) {
        on_seconds_ += message.timestamp_s - last_transition_s_;
        engine_on_ = false;
        last_transition_s_ = message.timestamp_s;
      }
      break;
    case MessageKind::kDiagnostic:
      dtc_count_ += static_cast<int>(message.dtcs.size());
      break;
    case MessageKind::kParametric:
    case MessageKind::kStatusReport: {
      const SignalCatalog& catalog = SignalCatalog::Global();
      bool any_decoded = false;
      for (const CanFrame& frame : message.frames) {
        for (const SignalSpec& spec : catalog.signals()) {
          StatusOr<double> v = FrameCodec::DecodeSignal(spec, frame);
          if (!v.ok()) continue;  // Other PGN or not-available slot.
          any_decoded = true;
          switch (spec.id) {
            case SignalId::kEngineRpm:
              sum_rpm_ += v.value();
              break;
            case SignalId::kEngineLoad:
              sum_load_ += v.value();
              break;
            case SignalId::kEngineFuelRate:
              sum_fuel_rate_ += v.value();
              break;
            case SignalId::kEngineOilPressure:
              sum_oil_pressure_ += v.value();
              break;
            case SignalId::kCoolantTemp:
              sum_coolant_ += v.value();
              break;
            case SignalId::kVehicleSpeed:
              sum_speed_ += v.value();
              break;
            case SignalId::kHydraulicOilTemp:
              sum_hydraulic_ += v.value();
              break;
            case SignalId::kFuelLevel:
              last_fuel_level_ = v.value();
              break;
            case SignalId::kEngineHours:
              last_engine_hours_ = v.value();
              break;
            case SignalId::kPumpDriveTemp:
              // Folded into the hydraulic average for reporting purposes.
              break;
          }
        }
      }
      if (any_decoded) ++samples_;
      break;
    }
  }
  return Status::OK();
}

AggregatedReport ReportAggregator::Finalize() {
  VUP_CHECK(!finalized_) << "Finalize called twice";
  finalized_ = true;
  if (engine_on_) {
    on_seconds_ += slot_end_s_ - last_transition_s_;
  }
  AggregatedReport r;
  r.vehicle_id = vehicle_id_;
  r.date = date_;
  r.slot = slot_;
  r.engine_on_fraction =
      static_cast<double>(on_seconds_) / static_cast<double>(kSlotSeconds);
  if (samples_ > 0) {
    double n = static_cast<double>(samples_);
    r.avg_engine_rpm = sum_rpm_ / n;
    r.avg_engine_load_pct = sum_load_ / n;
    r.avg_fuel_rate_lph = sum_fuel_rate_ / n;
    r.avg_oil_pressure_kpa = sum_oil_pressure_ / n;
    r.avg_coolant_temp_c = sum_coolant_ / n;
    r.avg_speed_kmh = sum_speed_ / n;
    r.avg_hydraulic_temp_c = sum_hydraulic_ / n;
  }
  r.fuel_level_pct = last_fuel_level_;
  r.engine_hours_total = last_engine_hours_;
  r.dtc_count = dtc_count_;
  r.sample_count = samples_;
  return r;
}

}  // namespace vup
