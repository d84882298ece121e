// Entry point of the vupred benchmark binary:
//
//   perfbench_vupred --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --workdir <empty private directory>
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness gate or counter identity failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using vup::bench::RunOptions;
using vup::bench::RunResult;

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--workdir") {
      options->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workdir.empty() && options->seconds > 0;
}

void PrintJson(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const RunResult::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr, "usage: %s --workload <serve_hot|serve_cold|"
                 "walkforward_eval|nightly_publish> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir>\n", argv[0]);
    return 2;
  }
  std::printf("%s\n", vup::bench::EnvironmentLine().c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  RunResult result;
  if (options.workload == "serve_hot" || options.workload == "serve_cold") {
    vup::bench::RunServe(options, &result);
  } else if (options.workload == "walkforward_eval") {
    vup::bench::RunWalkforward(options, &result);
  } else if (options.workload == "nightly_publish") {
    vup::bench::RunNightly(options, &result);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  for (const RunResult::Metric& m : result.metrics) {
    std::printf("metric %-28s %16.6f %-14s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), options.trace ? m.source.c_str() : "");
  }
  for (const std::string& error : result.errors) {
    std::printf("FAILED: %s\n", error.c_str());
  }
  std::fflush(stdout);
  PrintJson(result);
  return result.correct() ? 0 : 1;
}
