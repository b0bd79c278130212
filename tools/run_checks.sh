#!/usr/bin/env bash
# Single entry point for the static-check toolchain: the CI `analyze` job
# runs exactly this script, so a green local run means a green CI lane.
#
#   tools/run_checks.sh            # lint + analyze + fixture self-tests
#   tools/run_checks.sh --tidy     # additionally a clang-tidy build
#                                  # (needs clang-tidy on PATH)
#
# Steps:
#   1. ssr_lint.py     — textual conventions (no-assert, pragma-once,
#                        stale-suppression) over src tests bench examples.
#   2. ssr_analyze.py  — AST-level determinism/concurrency rules, gated on
#                        zero unbaselined findings against the committed
#                        tools/ssr_analyze_baseline.json.
#   3. fixture suites  — the analyzer/linter/bench-gate self-tests
#                        (tests/analyze/), so a broken rule cannot pass
#                        silently.
#   4. clang-tidy      — only with --tidy; optional everywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

PYTHON="${PYTHON:-python3}"
BUILD_DIR="${BUILD_DIR:-build}"
TIDY=0
[[ "${1:-}" == "--tidy" ]] && TIDY=1

echo "==> ssr_lint"
"$PYTHON" tools/ssr_lint.py

echo "==> ssr_analyze (baseline gate)"
"$PYTHON" tools/ssr_analyze.py \
    --baseline tools/ssr_analyze_baseline.json \
    src tools bench examples tests

echo "==> toolchain fixture self-tests"
(cd tests && "$PYTHON" -m unittest \
    analyze.test_ssr_analyze analyze.test_ssr_lint \
    analyze.test_check_bench_regression)

if [[ "$TIDY" == 1 ]]; then
  echo "==> clang-tidy build"
  cmake -B "$BUILD_DIR-tidy" -S . -DSSR_CLANG_TIDY=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "$BUILD_DIR-tidy" -j
fi

echo "==> all checks passed"
