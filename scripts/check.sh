#!/usr/bin/env bash
# Local gate: formatting, clippy, the louvain-lint pass, lockfile
# freshness, docs, tests, and the race/chaos harnesses. The one gate
# script: CI runs its steps, and xtask carries no second copy of it.
#
#   scripts/check.sh               full gate: quick steps + 8-rank race
#                                  harness + full chaos seed matrix
#                                  (what CI runs nightly)
#   scripts/check.sh --quick       PR-gate steps only (what CI runs per PR)
#   scripts/check.sh --step NAME   one named step; CI's per-PR jobs run
#                                  these so every gate reports
#                                  independently instead of dying at the
#                                  first failed command
#
# Steps (in quick-gate order): fmt clippy lint protocol cost docs tests
# perf race chaos bench-drift. Full-gate extras: race8 chaos-full.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast on a stale committed lockfile, naming the one-command
# regeneration so nobody has to reverse-engineer it from the diff.
stale() { # <committed file> <regeneration command>
  echo >&2
  echo "error: $1 is stale (committed copy no longer matches a fresh run)." >&2
  echo "Regenerate it and commit the diff:" >&2
  echo "    $2" >&2
  exit 1
}

run_step() {
  echo "==> step: $1"
  case "$1" in
    fmt)
      cargo fmt --all --check
      ;;
    clippy)
      cargo clippy --workspace --all-targets -- -D warnings
      ;;
    lint)
      cargo run -q -p xtask -- lint
      # The committed baseline is a lockfile too: a schema bump or a new
      # rule that changes the report shape must be committed with it.
      cargo run -q -p xtask -- lint --json | diff -u results/lint_baseline.json - \
        || stale results/lint_baseline.json "cargo run -p xtask -- lint --update-baseline"
      ;;
    protocol)
      # Protocol-spec lockfile: the statically extracted collective
      # skeleton must byte-match results/protocol_spec.json (DESIGN.md §11).
      cargo run -q -p xtask -- protocol --check \
        || stale results/protocol_spec.json "cargo run -p xtask -- protocol --update"
      ;;
    cost)
      # Cost-spec lockfile: the statically extracted per-site payload
      # bounds and multiplicities must byte-match results/cost_spec.json
      # (DESIGN.md §12). Volume regressions fail the PR, not the nightly.
      cargo run -q -p xtask -- cost --check \
        || stale results/cost_spec.json "cargo run -p xtask -- cost --update"
      ;;
    docs)
      # Documentation gate: every pub item documented, doc warnings are
      # errors. In the quick gate so doc rot fails the PR, not the nightly.
      RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
      ;;
    tests)
      cargo build --examples
      cargo test --workspace -q
      cargo test --workspace --doc -q
      ;;
    perf)
      # The louvain-perf benchmark is a package of its own (empty
      # [workspace]), so no workspace step compiles it; build and test it
      # here so a louvain-core API change cannot break it unnoticed.
      cargo test --release --offline --manifest-path crates/bench/src/bin/louvain-perf/Cargo.toml
      # Real workloads end to end; every run's output checks must pass
      # (the summary line ends the output). amazon-1r runs on 1 rank, so
      # the insufficient-cores guard never fires. amazon runs on 2 ranks,
      # which puts remote state propagation and the replicated loader under
      # louvain-perf's repeat and Q checks; rmat-skew is the one
      # ArcBalanced workload, so it covers the repartition inside
      # reconstruction and the hub-degree row gathers. uk2005 is the
      # largest input, sequential and distributed, and the only one whose
      # arcs exceed the last-level cache. All three need 2 cores.
      perf_smoke() { # <workload>
        local summary
        summary=$(cargo run -q --release --offline \
          --manifest-path crates/bench/src/bin/louvain-perf/Cargo.toml \
          -- run --workload "$1" --seconds 1 | tail -n 1)
        echo "$summary"
        case "$summary" in
          *'"failed": 0,'*) ;;
          *) echo "error: louvain-perf $1 reported failed runs" >&2; exit 1 ;;
        esac
      }
      perf_smoke amazon-1r
      if [ "$(nproc)" -ge 2 ]; then
        perf_smoke amazon
        perf_smoke rmat-skew
        perf_smoke uk2005
      else
        echo "skip: louvain-perf amazon, rmat-skew and uk2005 need 2 cores, nproc is $(nproc)"
      fi
      ;;
    race)
      # Schedule-perturbation race harness: bit-identical output under
      # permuted message-delivery orders (2/4 ranks in the PR gate).
      cargo test -q -p louvain-runtime --test schedule_perturbation
      ;;
    chaos)
      # Chaos gate: crash a rank at every level boundary and require the
      # recovered run to be bit-identical to the fault-free one
      # (2/4 ranks x 4 perturb seeds; DESIGN.md §14). Failing cases are
      # written under target/tmp/chaos/ for `louvain-bench --fault-plan`.
      cargo test -q -p louvain-core --test chaos_recovery
      ;;
    race8)
      echo "==> schedule-perturbation harness (8 ranks, full seed sweep)"
      LOUVAIN_RACE_EIGHT_RANKS=1 cargo test -q -p louvain-runtime --test schedule_perturbation
      ;;
    chaos-full)
      echo "==> chaos harness (8 ranks, full perturb-seed matrix)"
      LOUVAIN_RACE_EIGHT_RANKS=1 LOUVAIN_CHAOS_ALL_SEEDS=1 \
        cargo test -q -p louvain-core --test chaos_recovery
      ;;
    bench-drift)
      # Bench drift: the committed snapshot must match a fresh
      # regeneration byte for byte, so perf/comm-volume/imbalance changes
      # are always deliberate. `--check` vets the mode and schema stamps
      # first (a named error, not a wall of diff) and never writes.
      cargo run -q --release -p louvain-bench -- bench-snapshot --check --quick \
        || stale BENCH_louvain.json "cargo run --release -p louvain-bench -- bench-snapshot --quick"
      ;;
    *)
      echo "unknown step: $1" >&2
      exit 2
      ;;
  esac
}

QUICK_STEPS=(fmt clippy lint protocol cost docs tests perf race chaos bench-drift)
FULL_EXTRAS=(race8 chaos-full)

quick=0
steps=()
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick=1 ;;
    --step)
      shift
      [ $# -gt 0 ] || { echo "--step needs a name" >&2; exit 2; }
      steps+=("$1")
      ;;
    *) echo "usage: $0 [--quick] [--step NAME]..." >&2; exit 2 ;;
  esac
  shift
done

if [ "${#steps[@]}" -gt 0 ]; then
  for s in "${steps[@]}"; do run_step "$s"; done
  exit 0
fi

for s in "${QUICK_STEPS[@]}"; do run_step "$s"; done
if [ "$quick" -eq 1 ]; then
  echo "==> quick gate passed (full gate adds: ${FULL_EXTRAS[*]})"
  exit 0
fi
for s in "${FULL_EXTRAS[@]}"; do run_step "$s"; done
echo "==> all checks passed"
