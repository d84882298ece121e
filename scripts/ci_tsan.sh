#!/usr/bin/env bash
# CI thread-sanitizer gate: build the `tsan` preset and run the suites
# that exercise real concurrency -- the thread pool, the metrics registry
# and tracer (concurrent instruments + export), the prediction service
# (admission control, load shedding, deadline fan-out), the model
# registry (circuit breakers, generation hot-swap), the background
# registry scrubber and the chaos suites, including hierarchy fallback
# reads racing generation swaps and canary shadow-scoring racing
# promote/rollback flips.
# Races found here are overload/reload bugs the release build may only
# hit in production.
#
# The SVR suite rides along for a different reason: the TSan tree compiles
# the AVX2 clones of the lane-parallel Gram and SMO kernels out (see
# src/ml/lanes.h), so this is the run that checks their baseline-ISA code
# bitwise against KernelFunction and the scalar reference solver.
#
# Usage: scripts/ci_tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# Only the concurrent targets need to exist in the TSan tree.
TARGETS=(
  common_thread_pool_test
  common_clock_test
  obs_metrics_registry_concurrency_test
  obs_trace_test
  serve_prediction_service_test
  serve_model_registry_test
  serve_registry_shard_test
  serve_scrubber_test
  ml_warmstart_concurrency_test
  ml_svr_test
  integration_chaos_test
  integration_registry_chaos_test
  integration_shard_chaos_test
  integration_hierarchy_chaos_test
  integration_publish_chaos_test
)

cmake --preset tsan
cmake --build --preset tsan -j"${JOBS}" --target "${TARGETS[@]}"
ctest --preset tsan -j"${JOBS}" \
  -R '^(common_thread_pool_test|common_clock_test|obs_metrics_registry_concurrency_test|obs_trace_test|serve_prediction_service_test|serve_model_registry_test|serve_registry_shard_test|serve_scrubber_test|ml_warmstart_concurrency_test|ml_svr_test|integration_chaos_test|integration_registry_chaos_test|integration_shard_chaos_test|integration_hierarchy_chaos_test|integration_publish_chaos_test)$' \
  "$@"
