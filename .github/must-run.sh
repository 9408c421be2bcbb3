#!/usr/bin/env bash
# Runs one Go test by exact name and fails unless it ran and passed, so a
# gate that is renamed away, filtered out or starts skipping fails its CI
# step instead of passing silently. Run it from the repository root:
#
#   bash .github/must-run.sh <package> <test> [race]
#
# "race" runs the test under the race detector.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 3 ] || { [ $# -eq 3 ] && [ "$3" != race ]; }; then
  echo "usage: $0 <package> <test> [race]" >&2
  exit 2
fi
pkg=$1
test=$2
flags=(-v -run "^${test}\$")
if [ $# -eq 3 ]; then
  flags=(-race "${flags[@]}")
fi
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test "${flags[@]}" "$pkg" 2>&1 | tee "$log"
if grep -q -- "--- SKIP: ${test} " "$log"; then
  echo "FAIL: ${test} was skipped" >&2
  exit 1
fi
if ! grep -q -- "--- PASS: ${test} " "$log"; then
  echo "FAIL: ${test} did not run and pass" >&2
  exit 1
fi
