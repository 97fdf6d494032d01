#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! A simulated distributed-memory runtime for fine-grained graph
//! algorithms.
//!
//! The paper runs on Blue Gene/Q and Power7-IH over a custom messaging
//! layer "specifically designed to support graph algorithms and
//! fine-grained communication patterns" (Section IV-C1, refs [27–29]).
//! Neither the machines nor the PAMI-style layer are available here, and
//! Rust MPI bindings are immature — so this crate *simulates* the
//! distributed-memory model faithfully enough that the algorithm above it
//! is exactly the published one:
//!
//! * **Ranks** are OS threads with private state. The algorithm never
//!   shares graph data between ranks; all interaction goes through this
//!   crate's explicit messaging and collectives, exactly as it would
//!   through MPI.
//! * **Fine-grained sends are coalesced** into per-destination packets
//!   (the key optimization of the paper's messaging layer) and delivered
//!   over lock-free channels.
//! * **Quiescence** of a communication phase is detected with
//!   per-destination message counts exchanged through a shared count
//!   matrix — the standard termination protocol for irregular all-to-all
//!   phases. A phase hands its messages to the receiver's handler in one
//!   canonical order (self-sends first, then remote packets by sender and
//!   transmit ordinal), which a perturb seed shuffles for the race
//!   harness.
//! * **Collectives** (barrier, allreduce, element-wise vector reduction,
//!   allgather) are deterministic: reductions fold rank contributions in
//!   rank order, so every run with the same seed is bit-identical.
//! * **Counters** record messages and packets so benchmarks can report
//!   communication volume alongside time.
//! * **Faults** come from one [`FaultPlan`] value per run, passed to the
//!   one launcher, [`run_with_config_faulted`]; the empty plan (what
//!   [`run`] and [`run_with_config`] pass) is the fault-free path.
//!
//! See `DESIGN.md` §2 for why this substitution preserves the paper's
//! observable behavior (per-rank work, message volume, stale-state
//! hazards) while only changing absolute wall-clock time.

pub mod collectives;
pub mod envflag;
pub mod exchange;
pub mod fault;
pub mod sim;
pub mod world;

pub use envflag::env_flag;
pub use exchange::Exchange;
pub use fault::{CrashPoint, FaultPlan, FaultStats, RunOutcome};
pub use world::{
    run, run_with_config, run_with_config_faulted, CollectiveKind, CommStats, RankCtx,
    RuntimeConfig,
};
