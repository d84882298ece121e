#!/usr/bin/env bash
# CI sanitizer gate: build and run the tier-1 test suite under
# ASan + UBSan (the `sanitize` preset in CMakePresets.json), so the
# fault-injection and degradation paths are memory- and UB-checked.
#
# Usage: scripts/ci_sanitize.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
source scripts/ctest_pass.sh

cmake --preset sanitize
cmake --build --preset sanitize -j"${JOBS}"

# Focused first pass over the incremental-windowing surface: the ring
# buffer, sliding ACF, and the lag-selection comparator are the paths where
# index arithmetic or ordering UB would hide, so fail fast on them before
# the full suite.
focused_pass sanitize core_windowing_test stats_acf_test \
  core_feature_selection_test core_incremental_training_test \
  ml_grid_search_test

# Publish-path primitives: both CRC-32 paths, slice-by-8 and the
# PCLMULQDQ fold, at every start alignment (UBSan checks slice-by-8's
# unaligned word loads, ASan keeps the fold's 16-byte loads inside the
# buffer), the string parsers, the forecaster's compact round trip with
# the stream Save/Load shims (Load's capped read of an endless stream
# included), and the write-behind publisher with its writer pool -- ASan
# catches a queued bundle snapshot that outlives (or aliases) the
# forecaster it came from, or a writer that records its manifest entry
# after the publisher moved.
# The registry chaos suite rides along for the read path: every resident
# model scores in place over a bundle buffer it owns, so ASan catches a
# model that outlives that buffer.
focused_pass sanitize common_crc32_test common_file_util_test \
  common_string_util_test core_forecaster_persistence_test \
  serve_model_registry_test common_thread_pool_test \
  integration_registry_chaos_test

# SVR solver surface: the panel-packed Gram kernel and the fused SMO
# scans read whole lane vectors, so ASan guards their padded lanes -- a
# panel, a Gram row stride or a solver buffer one lane short of its last
# block reads out of bounds here. The scalar-reference suite replays
# every fit over the same inputs, so it doubles as a UB probe.
focused_pass sanitize ml_svr_test

# The serving fallback chain: vehicle -> global -> Last-Value over
# quarantined, corrupt and breaker-open bundles, and the pooled fit
# behind the global model.
focused_pass sanitize serve_hierarchy_fallback_test

# Guarded publishing: the two sidecars (MANIFEST, registry meta) share
# one hostile-input decoder, the record-file codec, so its
# truncation/flip/garbage suite runs here with each sidecar's field
# decoder behind it; plus CRC verification over injector-corrupted files,
# the publish validator, the kill-point chaos walk and the rollback's
# check of a damaged retained generation.
focused_pass sanitize common_record_file_test serve_registry_meta_test \
  serve_manifest_test serve_validator_test \
  serve_registry_reload_breaker_test integration_publish_chaos_test

# Compact-bundle decoder fuzz under the sanitizers: the vupc v2 decoder
# walks attacker-controlled bundle bytes (counts, offsets, tree child
# indices), so every truncation, bit flip and seeded mutation in the
# suite must fail as a clean Status here -- an OOB read, misaligned f64
# load, or length-field-sized allocation is exactly what this pass
# exists to catch. The sharded-registry suite rides along for its
# corrupted-compact quarantine paths.
focused_pass sanitize ml_compact_roundtrip_test serve_registry_shard_test

ctest --preset sanitize -j"${JOBS}" --no-tests=error "$@"
