#!/bin/sh
# Fails when an RBF Gram matrix or an SVR's predictions depend on which
# CPU features glibc may use. The driver prints their hashes and one of
# glibc's own exp; this runs it plainly and with glibc told not to use
# FMA, which on an x86-64 CPU with FMA switches glibc to another exp whose
# results differ in the last bit for some arguments.
#
#   tests/ml/exp_host_test.sh build/tests/ml_exp_host_driver
#
# Exits 77 (skipped) when the setting does not change glibc's exp here:
# no FMA on the CPU, or a C library that ignores the setting.
set -u
if ! plain=$("$1"); then
  echo "driver failed"
  exit 1
fi
if ! masked=$(GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA "$1"); then
  echo "driver failed with GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA"
  exit 1
fi
printf 'plain:\n%s\nwithout FMA in glibc:\n%s\n' "$plain" "$masked"
ours_plain=$(printf '%s\n' "$plain" | grep -v '^libm ')
ours_masked=$(printf '%s\n' "$masked" | grep -v '^libm ')
if [ "$ours_plain" != "$ours_masked" ]; then
  echo "FAIL: the Gram matrix or the predictions depend on glibc's exp"
  exit 1
fi
if [ "$(printf '%s\n' "$plain" | grep '^libm ')" = \
     "$(printf '%s\n' "$masked" | grep '^libm ')" ]; then
  echo "the setting does not change glibc's exp here; skipping"
  exit 77
fi
echo "PASS"
