#ifndef VUPRED_PIPELINE_AGGREGATE_H_
#define VUPRED_PIPELINE_AGGREGATE_H_

#include <span>
#include <vector>

#include "telemetry/report.h"
#include "telemetry/usage_model.h"

namespace vup {

/// Preparation step (iii), Aggregation: folds 10-minute slot reports into
/// one record per calendar day.
///
/// Daily utilization hours are derived from the engine-on time of the
/// acquired slots ("based on acquisition time and number of acquired
/// samples we derive the daily utilization hours", Section 2). Signal
/// averages are weighted by each slot's engine-on fraction; fuel burn
/// integrates the fuel-rate signal over engine-on time.
///
/// Produces one record per day that has at least one report, sorted by
/// date; missing days (connectivity gaps or real idleness) are left to the
/// cleaning stage. Input is one vehicle's reports in any order: they are
/// keyed by (date, slot) and folded in slot order, so arrival order does
/// not change a bit of the output, except that of several deliveries of
/// one slot the last in the input wins.
std::vector<DailyUsageRecord> AggregateReportsDaily(
    std::span<const AggregatedReport> reports);

}  // namespace vup

#endif  // VUPRED_PIPELINE_AGGREGATE_H_
