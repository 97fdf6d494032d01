#!/usr/bin/env bash
# Wall-clock A/B of the working tree against a parent revision on one
# louvain-perf workload: the alternating-pairs protocol a performance
# claim is measured with.
#
#   scripts/ab.sh <parent-rev> <workload> <pairs>
#
# Copies the parent revision (`git archive`) and the working tree
# (tracked and untracked, non-ignored files) into target/ab/parent and
# target/ab/work, builds louvain-perf in each, then runs the
# BENCHMARK.json command there `<pairs>` times each, alternating which
# side goes first. Prints each pair's solve_s and winner, then both
# sides' median and quartiles. Run it on an otherwise idle host.
set -euo pipefail
if [ $# -ne 3 ]; then
  echo "usage: $0 <parent-rev> <workload> <pairs>" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3
root=$(git rev-parse --show-toplevel)
ab="$root/target/ab"

# The benchmark command, its build command and its run length.
mapfile -t cmd < <(jq -r '.command[]' "$root/BENCHMARK.json")
seconds=$(jq -r '.run_seconds' "$root/BENCHMARK.json")
build=("${cmd[@]}")
build[1]=build
for i in "${!build[@]}"; do
  if [ "${build[$i]}" = "--" ]; then
    build=("${build[@]:0:$i}")
    break
  fi
done

rm -rf "$ab/parent" "$ab/work"
mkdir -p "$ab/parent" "$ab/work"
git -C "$root" archive "$rev" | tar -x -C "$ab/parent"
git -C "$root" ls-files -z -co --exclude-standard | tar -C "$root" --null --ignore-failed-read -T - -c | tar -x -C "$ab/work"
for side in parent work; do
  echo "building $side" >&2
  (cd "$ab/$side" && "${build[@]}")
done

# One run of one side: prints its solve_s.
solve_s() {
  (cd "$ab/$1" && "${cmd[@]}" --workload "$workload" --seconds "$seconds") |
    tail -n 1 | jq -r '.metrics.solve_s.value'
}

results="$ab/results.txt"
: >"$results"
for p in $(seq 1 "$pairs"); do
  if [ $((p % 2)) -eq 1 ]; then
    a=$(solve_s parent)
    b=$(solve_s work)
  else
    b=$(solve_s work)
    a=$(solve_s parent)
  fi
  echo "$a $b" >>"$results"
  winner=$(awk -v a="$a" -v b="$b" 'BEGIN { print (b < a) ? "work" : "parent" }')
  printf 'pair %2d: parent %.4f s  work %.4f s  -> %s\n' "$p" "$a" "$b" "$winner"
done

python3 - "$results" <<'EOF'
import statistics, sys
rows = [tuple(map(float, line.split())) for line in open(sys.argv[1])]
wins = sum(b < a for a, b in rows)
print(f"work wins {wins}/{len(rows)} pairs on solve_s")
for name, xs in (("parent", [a for a, _ in rows]), ("work", [b for _, b in rows])):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    print(f"{name:6}: median {med:.4f} s  quartiles {q1:.4f} .. {q3:.4f} s  (IQR {q3 - q1:.4f} s)")
EOF
