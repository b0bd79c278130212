#!/usr/bin/env bash
# Single entry point for the static-check toolchain: the CI `analyze` job
# runs exactly this script, so a green local run means a green CI lane.
#
#   tools/run_checks.sh            # analyze + fixture self-tests
#   tools/run_checks.sh --tidy     # additionally a clang-tidy build
#                                  # (needs clang-tidy on PATH)
#
# Steps:
#   1. ssr_analyze.py  — determinism, concurrency and convention rules over
#                        its default sweep (src tools bench examples tests),
#                        gated on zero findings.
#   2. fixture suites  — the analyzer and bench-gate self-tests
#                        (tests/analyze/), so a broken rule cannot pass
#                        silently.
#   3. clang-tidy      — only with --tidy; optional everywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

PYTHON="${PYTHON:-python3}"
BUILD_DIR="${BUILD_DIR:-build}"
TIDY=0
[[ "${1:-}" == "--tidy" ]] && TIDY=1

echo "==> ssr_analyze"
"$PYTHON" tools/ssr_analyze.py

echo "==> toolchain fixture self-tests"
(cd tests && "$PYTHON" -m unittest \
    analyze.test_ssr_analyze analyze.test_check_bench_regression)

if [[ "$TIDY" == 1 ]]; then
  echo "==> clang-tidy build"
  cmake -B "$BUILD_DIR-tidy" -S . -DSSR_CLANG_TIDY=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "$BUILD_DIR-tidy" -j
fi

echo "==> all checks passed"
