#!/usr/bin/env bash
# CI thread-sanitizer gate: build the `tsan` preset and run the suites
# that exercise real concurrency -- the thread pool, the metrics registry
# and tracer (concurrent instruments + export), the prediction service
# (admission control, load shedding, deadline fan-out), the model
# registry (circuit breakers, generation hot-swap, two publishers on two
# threads sharing the registry's writer pool, two publishers racing to
# reserve a generation number and to promote) and the chaos suites,
# including quarantines racing generation swaps, global fallback reads
# racing generation swaps and canary shadow-scoring racing
# promote/rollback flips.
# Races found here are overload/reload bugs the release build may only
# hit in production.
#
# The grid-search suite fits Lasso and SVR candidates on a worker pool
# and checks their scores bitwise against a serial run. The SVR suite
# rides along to run the lane-parallel Gram, exp and SMO kernels under
# TSan: it checks every instruction-set path the CPU supports (see
# src/ml/lanes.h) bitwise against KernelFunction, the scalar exp and the
# scalar reference solver, as the release suite does. The CRC-32 suite runs
# both CRC paths: the path Crc32 takes is a lazily initialised static,
# first reached from writer-pool and registry threads.
#
# Usage: scripts/ci_tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
source scripts/ctest_pass.sh

# Only the concurrent targets need to exist in the TSan tree; each is one
# ctest suite of the same name.
TARGETS=(
  common_crc32_test
  common_thread_pool_test
  common_clock_test
  obs_metrics_registry_concurrency_test
  obs_trace_test
  serve_prediction_service_test
  serve_model_registry_test
  serve_registry_shard_test
  ml_grid_search_test
  ml_svr_test
  integration_chaos_test
  integration_registry_chaos_test
  integration_shard_chaos_test
  integration_hierarchy_chaos_test
  integration_publish_chaos_test
)

cmake --preset tsan
cmake --build --preset tsan -j"${JOBS}" --target "${TARGETS[@]}"
focused_pass tsan "${TARGETS[@]}" -- "$@"
