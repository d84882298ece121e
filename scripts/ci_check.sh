#!/usr/bin/env bash
# Full CI gate: tier-1 release build + tests, then the ASan/UBSan suite,
# then the TSan concurrency suite.
#
#   scripts/ci_check.sh            # all gates
#   scripts/ci_check.sh --fast     # tier-1 only (skip sanitizers)
#
# Exits non-zero on the first failing gate.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
for arg in "$@"; do
  [[ "$arg" == "--fast" ]] && FAST=1
done

echo "== tier-1: release build + ctest =="
cmake -B build -S .
cmake --build build -j"${JOBS}"
# ctest includes ml_no_fma_test: no fused multiply-add in libvup_ml.a.
(cd build && ctest --output-on-failure -j"${JOBS}")

echo "== tier-1d: cluster-bench smoke (determinism + cold-start, no timing gates) =="
# Seeded profile extraction -> k-means -> pooled hierarchy -> registry
# cold-start; the command exits non-zero unless clusters.meta is
# byte-identical across serial reruns and parallel extraction AND the
# cold-start vehicle is provably served from its cluster model (see
# DESIGN.md section 12).
./build/tools/vupred cluster-bench --vehicles=8 --clusters=2 --max-k=3 \
  --train-window=60 --holdout-days=14 --jobs=2 \
  --json=build/BENCH_cluster_smoke.json \
  --registry-dir=build/cluster_smoke_registry
grep -q '"bench": "cluster"' build/BENCH_cluster_smoke.json
grep -q '"determinism": "byte-identical"' build/BENCH_cluster_smoke.json
grep -q '"verify": "cold-start-served-at-cluster-level"' build/BENCH_cluster_smoke.json
rm -rf build/cluster_smoke_registry

echo "== tier-1e: bench JSON schema versioning =="
# Every bench report carries the shared schema_version so downstream
# tooling can detect field changes; cluster is at v1.
for bench_json in build/BENCH_cluster_smoke.json; do
  grep -q '"schema_version": 1' "${bench_json}" || {
    echo "missing schema_version in ${bench_json}" >&2
    exit 1
  }
done

echo "== tier-1f: RNG determinism guard =="
# All randomness must flow through the seeded vup::Rng: a stray
# std::random_device or raw std engine silently breaks byte-identical
# clustering and fleet generation. common/random.* wraps the approved
# engine, so it is the only allowed site.
if grep -rn 'std::random_device\|std::mt19937' src tools bench \
  --include='*.cc' --include='*.h' | grep -v 'src/common/random'; then
  echo "unseeded RNG primitive outside common/random" >&2
  exit 1
fi

if [[ "${FAST}" == 1 ]]; then
  echo "== skipping sanitizer gate (--fast) =="
  exit 0
fi

echo "== tier-2: ASan + UBSan suite =="
scripts/ci_sanitize.sh

echo "== tier-3: TSan concurrency suite =="
scripts/ci_tsan.sh

echo "== CI gates passed =="
