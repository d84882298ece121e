#!/usr/bin/env bash
# CI sanitizer gate: build and run the tier-1 test suite under
# ASan + UBSan (the `sanitize` preset in CMakePresets.json), so the
# fault-injection and degradation paths are memory- and UB-checked.
#
# Usage: scripts/ci_sanitize.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

cmake --preset sanitize
cmake --build --preset sanitize -j"${JOBS}"

# Focused first pass over the incremental-windowing surface: the ring
# buffer, sliding ACF, and the lag-selection comparator are the paths where
# index arithmetic or ordering UB would hide, so fail fast on them before
# the full suite.
ctest --preset sanitize -j"${JOBS}" -R \
  'core_windowing_test|stats_acf_test|core_feature_selection_test|core_incremental_training_test|ml_grid_search_test'

# Publish-path primitives: both CRC-32 paths, slice-by-8 and the
# PCLMULQDQ fold, at every start alignment (UBSan checks slice-by-8's
# unaligned word loads, ASan keeps the fold's 16-byte loads inside the
# buffer), the to_chars double formatter
# against printf over a million bit patterns plus saved bundles, and the
# write-behind publisher with its writer pool -- ASan catches a queued
# bundle snapshot that outlives (or aliases) the forecaster it came from,
# or a writer that records its manifest entry after the publisher moved.
# The registry chaos and scrubber suites ride along for the read path:
# every resident model scores in place over a bundle buffer it owns, so
# ASan catches a model that outlives that buffer.
ctest --preset sanitize -j"${JOBS}" -R \
  'common_crc32_test|common_file_util_test|common_string_util_test|core_forecaster_persistence_test|serve_model_registry_test|common_thread_pool_test|integration_registry_chaos_test|serve_scrubber_test'

# SVR solver surface: the panel-packed Gram kernel and the fused SMO
# scans read whole lane vectors, so ASan guards their padded lanes -- a
# panel, a Gram row stride or a solver buffer one lane short of its last
# block reads out of bounds here. The scalar-reference suite replays
# every fit over the same inputs, so it doubles as a UB probe.
ctest --preset sanitize -j"${JOBS}" -R 'ml_svr_test'

# Cluster subsystem: profile feature indexing, k-means centroid math, the
# strict clusters.meta parser (hostile-input path) and the pooled-training
# span arithmetic, plus the serving fallback chain.
ctest --preset sanitize -j"${JOBS}" -R \
  'cluster_profile_test|cluster_kmeans_test|cluster_cluster_meta_test|cluster_pooled_test|serve_hierarchy_fallback_test'

# Guarded publishing: the four sidecars (MANIFEST, registry meta,
# rollback journal, clusters.meta) now share one hostile-input decoder,
# the record-file codec, so its truncation/flip/garbage suite runs here
# with each sidecar's field decoder behind it; plus CRC verification over
# injector-corrupted files, the publish validator, the scrubber and the
# kill-point chaos walk.
ctest --preset sanitize -j"${JOBS}" -R \
  'common_record_file_test|serve_registry_meta_test|cluster_cluster_meta_test|serve_manifest_test|serve_validator_test|serve_scrubber_test|serve_registry_reload_breaker_test|integration_publish_chaos_test'

# Compact-bundle decoder fuzz under the sanitizers: the vupc v2 decoder
# walks attacker-controlled bundle bytes (counts, offsets, tree child
# indices), so every truncation, bit flip and seeded mutation in the
# suite must fail as a clean Status here -- an OOB read, misaligned f64
# load, or length-field-sized allocation is exactly what this pass
# exists to catch. The sharded-registry suite rides along for its
# corrupted-compact quarantine paths.
ctest --preset sanitize -j"${JOBS}" -R \
  'ml_compact_roundtrip_test|serve_registry_shard_test'

ctest --preset sanitize -j"${JOBS}" "$@"
