#!/bin/sh
# Builds the address-sanitized preset (-DRV_SANITIZE=address,undefined —
# ASan catches heap/stack misuse, UBSan integer and pointer UB) and runs
# the full unit-test binary plus the end-to-end golden checks under it.
# Any out-of-bounds access or undefined behavior the analyses, encoders,
# or solvers introduce fails this script.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . "-DRV_SANITIZE=address,undefined"
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)"

# UBSan reports and recovers by default; halting turns every report into a
# failing test.
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
export UBSAN_OPTIONS
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc 2>/dev/null || echo 2)"

echo "check_asan: all address-sanitized checks passed"
