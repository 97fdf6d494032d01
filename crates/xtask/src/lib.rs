//! `louvain-lint`: workspace-specific static analysis.
//!
//! The paper's headline claims (ε-thresholded convergence in Section IV,
//! the reproducible scaling numbers of Section V-B) hold only if the
//! reproduction is actually deterministic and floating-point-sound. This
//! crate enforces the invariants that protect those claims as named,
//! suppressible lint rules over every `.rs` file in the workspace:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D1` | no `HashMap`/`HashSet` in deterministic solver/metrics paths (`crates/core`, `crates/metrics`): randomized hashers iterate in nondeterministic order |
//! | `F1` | no `==`/`!=` against floating-point literals outside the approved epsilon helpers (`dq.rs`, `modularity.rs`) |
//! | `F2` | no manual `(x << 32) | y` / `key >> 32` id packing outside `crates/hashtable/src/key.rs` |
//! | `U1` | every `unsafe` block carries a `// SAFETY:` comment |
//! | `P1` | no `.unwrap()` / `.expect(..)` in non-test library code of `crates/{core,runtime,hashtable,graph}` |
//! | `C1` | every crate root keeps `#![warn(missing_docs)]` and a paper-section cross-reference |
//! | `R1` | every `ctx.exchange()` phase reaches `.finish(..)` on every path of the function's phase-graph tree — no `return`, `?`, loop-escaping `break`/`continue`, second `exchange()` or block end before it |
//! | `R2` | no collective (`barrier`, `allreduce_*`, `allgather_*`, `exchange`, `finish`, …) at any depth of an arm or `while` body whose condition mentions the token `rank` (an `else if` guards the arms after it): all ranks must enter every collective |
//! | `R3` | no raw `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` atomics outside `crates/runtime` — cross-rank communication goes through the runtime API |
//! | `R4` | the arms of a rank-divergent conditional (condition tainted by rank-local data, tracked through assignments) must have equal protocol effect — no arm-specific collective sequences, no divergent early exits that skip collectives other ranks still run |
//! | `R5` | no collective inside a loop whose trip count derives from rank-local data — iteration bounds must come from replicated/allreduced values so all ranks run the same number of collective rounds |
//! | `T1` | no wall-clock reads (`Instant::now`, `SystemTime::now`) on traced solver/runtime paths (`crates/{core,runtime,trace}`) outside the sanctioned `crates/core/src/timing.rs` module — wall time must never reach a deterministic trace or `BENCH_*.json` |
//! | `M1` | no collective/exchange site whose payload classifies `Unbounded` in the cost analysis — every shipped buffer or loop-driven send volume must trace to a recognized solver quantity (deltas, n_local, local_arcs, a constant, or a parameter) |
//! | `A1` | no `Vec::new()`/`vec![]` grown with `push`/`extend` inside a loop of a traced (`Event::Enter`/`Event::Exit`-bracketed) phase region — per-iteration allocation on the measured hot path |
//! | `X1` | no checkpoint I/O (`save_slot`/`read_slot`/the checkpoint serialization helpers) inside a traced phase region — rank-state serialization is level-boundary bookkeeping and must not be charged to a phase's clock |
//! | `SUP` | every suppression comment carries a non-empty reason |
//!
//! Suppress a finding with a comment of the form `lint: allow(D1) — reason`
//! (any rule id in the parentheses) on the same line or the line above; the
//! reason text is mandatory (`SUP` fires on bare suppressions). The pass is
//! std-only and token/line-based (no `syn`), so it runs in the fully
//! offline build container.
//!
//! `lint --json` reports carry a `schema_version` field
//! ([`JSON_SCHEMA_VERSION`]) so downstream consumers of
//! `results/lint_baseline.json` can detect format changes, plus a
//! `bench_snapshot_schema_version` field
//! ([`BENCH_SNAPSHOT_SCHEMA_VERSION`]) republishing the schema of the
//! `BENCH_louvain.json` perf snapshot (DESIGN.md §9), and a
//! `protocol_spec_schema_version` field
//! ([`PROTOCOL_SPEC_SCHEMA_VERSION`]) for the protocol-spec lockfile.
//!
//! Beyond the per-file rules, [`phasegraph`] extracts the workspace's
//! *collective protocol* interprocedurally — the ordered
//! sequence/branch/loop structure of collectives reachable from the
//! solver entry point — and emits it as the committed
//! `results/protocol_spec.json` lockfile (`xtask protocol`, DESIGN.md
//! §11). The R1/R2/R4/R5 rules above are the per-file face of that
//! analysis: all four read its per-function trees.
//!
//! [`costgraph`] is the third leg of the verifier stack (ordering →
//! determinism → volume): it classifies every collective/exchange site
//! reachable from the same entry point with a symbolic payload bound
//! and invocation multiplicity, committed as `results/cost_spec.json`
//! (`xtask cost`, DESIGN.md §12) and conformance-checked against the
//! runtime trace counters. It builds no syntax tree of its own: it
//! classifies the per-function trees [`phasegraph`] builds, so the two
//! specs agree on what a function does. M1/A1 are its per-file face.

#![warn(missing_docs)]

pub mod costgraph;
pub mod lint;
pub mod phasegraph;

pub use costgraph::{
    extract_cost_spec, CostSite, CostSpec, Multiplicity, PayloadClass, COST_SPEC_SCHEMA_VERSION,
};
pub use lint::{
    lint_source, lint_workspace, Finding, Rule, BENCH_SNAPSHOT_SCHEMA_VERSION, JSON_SCHEMA_VERSION,
};
pub use phasegraph::{
    extract_protocol_spec, Nfa, ProtocolSpec, SpecNode, PROTOCOL_SPEC_SCHEMA_VERSION,
};
