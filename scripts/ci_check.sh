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
