#!/usr/bin/env bash
# Compares the truthserve benchmark at a base commit with this checkout
# by the rule BENCHMARK.json fixes. For each workload it makes three
# pairs of runs, base and checkout sharing each pair's seed, with the
# order alternating; each run is `bash truthbench/run.sh` for
# BENCHMARK.json's run_seconds. It fails if any run fails its output
# checks, or if the median of any end_to_end metric is worse than the
# base's by more than that metric's bound. Run it from the repository
# root, with the base commit fetched:
#
#   bash .github/bench-compare.sh <base-commit> <workload>...
#
# The base is checked out in a git worktree under .bench_build/, and
# each run's output is kept under .bench_build/compare/.
set -euo pipefail
if [ $# -lt 2 ]; then
  echo "usage: $0 <base-commit> <workload>..." >&2
  exit 2
fi
base=$1
shift
# A push event's base is the previous head, which a force-push leaves
# out of the history; compare with the parent commit instead.
if ! git cat-file -e "$base^{commit}" 2>/dev/null; then
  echo "note: base '$base' is not a commit in this clone; comparing against HEAD^ instead" >&2
  base=$(git rev-parse --verify HEAD^)
fi
pairs=3
seconds=$(jq -r .run_seconds BENCHMARK.json)
tree="$PWD/.bench_build/compare-base"
out="$PWD/.bench_build/compare"
rm -rf "$out"
mkdir -p "$out"
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --detach "$tree" "$base"
trap 'git worktree remove --force "$tree"' EXIT

# run <side> <workload> <seed>: one benchmark run, whose last line (the
# JSON result) is kept as <side>-<workload>-<seed>.json.
run() {
  local dir=$PWD
  if [ "$1" = base ]; then dir=$tree; fi
  echo "== $1 $2 seed $3"
  (cd "$dir" && bash truthbench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) | tee "$out/$1-$2-$3.log"
  tail -n 1 "$out/$1-$2-$3.log" > "$out/$1-$2-$3.json"
}

status=0
for workload in "$@"; do
  for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) = 1 ]; then
      run base "$workload" "$seed"
      run change "$workload" "$seed"
    else
      run change "$workload" "$seed"
      run base "$workload" "$seed"
    fi
  done
  jq -rn --argjson spec "$(cat BENCHMARK.json)" \
    --slurpfile base <(cat "$out"/base-"$workload"-*.json) \
    --slurpfile change <(cat "$out"/change-"$workload"-*.json) --arg workload "$workload" '
    def median: sort | .[length / 2 | floor];
    def pct: . * 1000 | round / 10 + 0;
    $spec.end_to_end[] as $m
    | ($base | map(.metrics[$m.name].value) | median) as $b
    | ($change | map(.metrics[$m.name].value) | median) as $c
    | (if $m.better == "lower" then $c / $b - 1 else 1 - $c / $b end) as $worse
    | "\(if $worse > $m.bound then "FAIL" else "ok  " end) \($workload) \($m.name): base \($b) \($m.unit), change \($c) \($m.unit), worse by \($worse | pct)% (bound \($m.bound | pct)%)"
  ' | tee "$out/$workload.txt"
  if grep -q '^FAIL' "$out/$workload.txt"; then
    status=1
  fi
done
exit "$status"
