// The four workloads. Each fills `result` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#ifndef VUPRED_PERFBENCH_WORKLOADS_H_
#define VUPRED_PERFBENCH_WORKLOADS_H_

#include "harness.h"
#include "nightly.h"

namespace vup::bench {

void RunServe(const RunOptions& options, RunResult* result);
void RunWalkforward(const RunOptions& options, RunResult* result);
void RunNightly(const RunOptions& options, RunResult* result);

/// Per-layer metrics of the layers a workload does not exercise itself,
/// measured by a short nightly refit/publish/serve cycle over the
/// workload's own vehicles (traced, so the Train stage shares exist too).
void RunLayerProbe(const FleetData& fleet, const std::string& dir,
                   ThreadPool* pool, RunResult* result);

}  // namespace vup::bench

#endif  // VUPRED_PERFBENCH_WORKLOADS_H_
