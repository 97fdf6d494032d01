#!/usr/bin/env bash
# Wall-clock A/B of the working tree against a parent revision on
# louvain-perf workloads: the alternating-pairs protocol a performance
# claim is measured with.
#
#   scripts/ab.sh <parent-rev> <workload> <pairs>
#   scripts/ab.sh <parent-rev> all <pairs>
#
# Copies the parent revision (`git archive`) and the working tree
# (tracked and untracked, non-ignored files) into target/ab/base and
# target/ab/work and builds louvain-perf in each once. The two
# directory names have equal length, so the binaries' embedded paths,
# and with them the code layout, do not differ by the tree's name. Then, for the
# named workload, or with `all` for every BENCHMARK.json workload in
# turn, it runs the BENCHMARK.json command there `<pairs>` times each,
# alternating which side goes first, and prints each pair's solve_s and
# winner, then, for every `end_to_end` metric of BENCHMARK.json, both
# sides' median and quartiles over the runs, the working tree's
# relative move, the pairs each side won in the metric's `better`
# direction (a tie counts for neither side), how many distinct values
# each side produced (a deterministic metric shows 1), and a verdict
# against the metric's `bound` (a share of the parent's median): better,
# within bound, or worse beyond bound — or unresolved when either
# side's interquartile range, as a share of its median, is wider than
# the bound. Every run's summary pair lands in target/ab/runs.jsonl,
# tagged with its workload. Run it on an otherwise idle host.
set -euo pipefail
if [ $# -ne 3 ]; then
  echo "usage: $0 <parent-rev> <workload|all> <pairs>" >&2
  exit 2
fi
rev=$1 pairs=$3
root=$(git rev-parse --show-toplevel)
ab="$root/target/ab"

# The benchmark command, its build command, its run length and the
# workloads to run.
mapfile -t cmd < <(jq -r '.command[]' "$root/BENCHMARK.json")
if [ "$2" = all ]; then
  mapfile -t workloads < <(jq -r '.workloads[].name' "$root/BENCHMARK.json")
else
  workloads=("$2")
fi
seconds=$(jq -r '.run_seconds' "$root/BENCHMARK.json")
build=("${cmd[@]}")
build[1]=build
for i in "${!build[@]}"; do
  if [ "${build[$i]}" = "--" ]; then
    build=("${build[@]:0:$i}")
    break
  fi
done

rm -rf "$ab/base" "$ab/work"
mkdir -p "$ab/base" "$ab/work"
git -C "$root" archive "$rev" | tar -x -C "$ab/base"
git -C "$root" ls-files -z -co --exclude-standard | tar -C "$root" --null --ignore-failed-read -T - -c | tar -x -C "$ab/work"
for side in base work; do
  echo "building $side" >&2
  (cd "$ab/$side" && "${build[@]}")
done

# The verdict table of one workload's runs.
verdicts() {
  python3 - "$runs" "$root/BENCHMARK.json" "$1" <<'EOF'
import json, statistics, sys

rows = [r for r in map(json.loads, open(sys.argv[1])) if r["workload"] == sys.argv[3]]
spec = json.load(open(sys.argv[2]))["end_to_end"]


def side(name, metric):
    return [r[name][metric]["value"] for r in rows]


def quartiles(xs):
    if len(xs) == 1:
        return xs * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def show(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:.10g} [{q1:.6g}, {q3:.6g}]"


print(
    f"{'metric':15} {'parent median [q1, q3]':36} {'work median [q1, q3]':36} {'move':>8}"
    f"  {'wins w/p/tie':>12}  {'distinct p/w':>12}  verdict"
)
for m in spec:
    a, b = side("parent", m["name"]), side("work", m["name"])
    sign = 1 if m["better"] == "lower" else -1
    work_wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    parent_wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    wins = f"{work_wins}/{parent_wins}/{len(a) - work_wins - parent_wins}"
    distinct = f"{len(set(a))}/{len(set(b))}"
    am, bm = quartiles(a)[1], quartiles(b)[1]
    worsening = bm - am if m["better"] == "lower" else am - bm
    base = abs(am)
    move = (bm - am) / base if base > 0 else 0.0
    if max(spread(a), spread(b)) > m["bound"]:
        verdict = "unresolved"
    elif worsening < 0:
        verdict = "better"
    elif (worsening / base if base > 0 else worsening) > m["bound"]:
        verdict = "WORSE beyond bound"
    else:
        verdict = "within bound"
    print(
        f"{m['name']:15} {show(a):36} {show(b):36} {move:+8.2%}  {wins:>12}  {distinct:>12}  {verdict} "
        f"(bound {m['bound']:.1%}, {m['better']} is better)"
    )
EOF
}

# One run of one side on one workload: prints its JSON summary line.
summary() {
  (cd "$ab/$1" && "${cmd[@]}" --workload "$2" --seconds "$seconds") | tail -n 1
}

runs="$ab/runs.jsonl"
: >"$runs"
for workload in "${workloads[@]}"; do
  echo "== $workload"
  for p in $(seq 1 "$pairs"); do
    if [ $((p % 2)) -eq 1 ]; then
      a=$(summary base "$workload")
      b=$(summary work "$workload")
    else
      b=$(summary work "$workload")
      a=$(summary base "$workload")
    fi
    jq -c -n --arg w "$workload" --argjson a "$a" --argjson b "$b" \
      '{workload: $w, parent: $a.metrics, work: $b.metrics}' >>"$runs"
    sa=$(jq -r '.metrics.solve_s.value' <<<"$a")
    sb=$(jq -r '.metrics.solve_s.value' <<<"$b")
    winner=$(awk -v a="$sa" -v b="$sb" 'BEGIN { print (b < a) ? "work" : (a < b) ? "parent" : "tie" }')
    printf 'pair %2d: parent %.4f s  work %.4f s  -> %s\n' "$p" "$sa" "$sb" "$winner"
  done
  verdicts "$workload"
done
