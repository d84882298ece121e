#!/bin/sh
# Fails when a static library holds a fused multiply-add instruction
# (vfmadd*, vfmsub*, vfnmadd*, vfnmsub*). The libraries are built with
# -ffp-contract=off: every bitwise contract -- served == trained,
# parallel == serial, each lane path == the scalar code -- rests on each
# multiply and add rounding on its own, and the x86-64-v4 lane path could
# otherwise fuse them.
#
#   tests/ml/no_fma_test.sh build/src/libvup_ml.a
#
# Exits 77 (skipped) when objdump is not installed.
set -u
if ! command -v objdump > /dev/null 2>&1; then
  echo "objdump not found; skipping"
  exit 77
fi
status=0
for lib in "$@"; do
  if ! listing=$(objdump -d "$lib"); then
    echo "objdump failed on $lib"
    exit 1
  fi
  if [ -z "$listing" ]; then
    echo "empty disassembly of $lib"
    exit 1
  fi
  hits=$(printf '%s\n' "$listing" | grep -cE 'vf(n)?m(add|sub)')
  if [ "$hits" -ne 0 ]; then
    echo "$lib: $hits fused multiply-add instructions:"
    printf '%s\n' "$listing" | grep -E 'vf(n)?m(add|sub)' | head -20
    status=1
  else
    echo "$lib: no fused multiply-add"
  fi
done
exit "$status"
