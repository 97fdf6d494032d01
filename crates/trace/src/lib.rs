//! `louvain-trace`: deterministic observability primitives for the
//! parallel Louvain reproduction.
//!
//! The paper's evaluation (Section V of Que et al., IPDPS'15) is built on
//! measured per-phase breakdowns — Figure 8 splits runtime into local
//! compute, exchange, and sync; Figure 9 reports TEPS. This crate provides
//! the two primitives the workspace uses to reproduce that kind of
//! measurement without compromising its determinism guarantees:
//!
//! 1. [`Counter`] — an always-available saturating event counter for hot
//!    paths (vertices scanned, arcs accumulated, moves applied). Plain
//!    [`Cell`]-based, no atomics, no global state.
//! 2. Trace events ([`Event`]) recorded into a per-thread buffer that the
//!    solver installs once per rank ([`install`]) and drains at rank exit
//!    ([`take`]). Event ordering is keyed on the BSP **simulated clock**
//!    (the `clock` fields), never wall time, so a trace is bit-identical
//!    across runs and across `perturb_seed`s — like every other output in
//!    this repository.
//!
//! Recording is feature-gated behind `record` (on by default). With the
//! feature disabled, [`emit_with`] takes a closure it never calls and the
//! per-thread buffer does not exist: the layer compiles away to nothing.
//! Either way, tracing only *observes* — it never alters solver outputs.
//!
//! # Examples
//!
//! Counters saturate instead of wrapping and report their value on reset:
//!
//! ```
//! use louvain_trace::Counter;
//!
//! let scans = Counter::new();
//! scans.incr();
//! scans.add(41);
//! assert_eq!(scans.get(), 42);
//! assert_eq!(scans.reset(), 42);
//! assert_eq!(scans.get(), 0);
//! ```
//!
//! Recording a per-rank trace (the solver calls [`install`] / [`take`] at
//! rank start / end; instrumented code calls [`emit_with`]):
//!
//! ```
//! use louvain_trace::{Event, RankTrace};
//!
//! louvain_trace::install(0);
//! louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0.0 });
//! louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 5000.0 });
//! let trace: Option<RankTrace> = louvain_trace::take();
//! #[cfg(feature = "record")]
//! {
//!     let trace = trace.expect("buffer was installed");
//!     assert_eq!(trace.rank, 0);
//!     assert_eq!(trace.events.len(), 2);
//! }
//! #[cfg(not(feature = "record"))]
//! assert!(trace.is_none());
//! ```

#![warn(missing_docs)]

use std::cell::Cell;

/// A saturating, monotonically increasing event counter.
///
/// Built on [`Cell`] so it can be bumped through a shared reference from
/// single-threaded hot loops (each rank is one OS thread; counters are
/// never shared across ranks). Additions saturate at [`u64::MAX`] rather
/// than wrapping, so a counter that overflows reads as "pegged" instead
/// of silently restarting — the difference matters when a snapshot
/// subtracts two readings.
#[derive(Debug, Default)]
pub struct Counter {
    value: Cell<u64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self {
            value: Cell::new(0),
        }
    }

    /// Adds `n`, saturating at [`u64::MAX`].
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get().saturating_add(n));
    }

    /// Adds one, saturating at [`u64::MAX`].
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Resets to zero and returns the value held before the reset.
    #[inline]
    pub fn reset(&self) -> u64 {
        self.value.replace(0)
    }

    /// `true` once the counter has pegged at [`u64::MAX`].
    ///
    /// A pegged counter no longer measures anything — consumers that
    /// compare counter readings against bounds (the cost-conformance
    /// suite, DESIGN.md §12) must treat saturation as a hard error
    /// rather than silently passing a meaningless comparison.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.value.get() == u64::MAX
    }
}

/// One trace event. All ordering information is carried by the BSP
/// simulated clock (`clock`, in simulated work units) — wall-clock time
/// never appears here, which is what keeps traces bit-identical across
/// runs and across schedule perturbations.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A solver phase began on this rank.
    Enter {
        /// Stable phase name (e.g. `"state_propagation"`).
        phase: &'static str,
        /// Simulated clock when the phase began.
        clock: f64,
    },
    /// A solver phase ended on this rank.
    Exit {
        /// Stable phase name, matching the corresponding [`Event::Enter`].
        phase: &'static str,
        /// Simulated clock when the phase ended.
        clock: f64,
    },
    /// One completed exchange phase (all-to-all message round) on this
    /// rank. `sent`/`received`/`bytes` are rank-local program-order
    /// quantities; `clock` is the globally agreed simulated clock after
    /// the exchange's closing sync.
    Exchange {
        /// Static description of the exchange's purpose.
        phase: &'static str,
        /// Messages this rank sent (including self-sends).
        sent: u64,
        /// Messages this rank received.
        received: u64,
        /// Payload bytes this rank pushed into remote packets.
        bytes: u64,
        /// Simulated clock after the exchange completed.
        clock: f64,
    },
    /// One BSP synchronization point (simulated-clock advance).
    Sync {
        /// Rank-local ordinal of this sync (1-based).
        seq: u64,
        /// Simulated clock agreed at this sync.
        clock: f64,
    },
    /// A named counter sampled at a deterministic program point.
    ///
    /// Names in use (all rank-local program-order quantities, so every
    /// one is invariant under schedule perturbation):
    /// `runtime.syncs`, `runtime.bytes_sent`, `runtime.messages_sent`,
    /// `runtime.dedup_hits` (keyed sends absorbed by last-writer
    /// coalescing), `exchange.dedup_hits` (the per-phase slice of the
    /// same), `delta.state_propagation_messages` (wire volume of the
    /// delta protocol), `delta.cache_invalidations` (remote-state
    /// caches retired by graph reconstruction), and the frontier
    /// scheduler's `frontier.active_vertices` (vertices scanned by the
    /// find-best sweep), `frontier.reactivations` (vertices woken back
    /// onto the frontier after going inactive), and
    /// `frontier.skipped_scans` (vertices the full scan would have
    /// visited but the frontier skipped), the checkpoint subsystem's
    /// `checkpoint.count` (level-boundary checkpoints written) and
    /// `checkpoint.bytes` (serialized checkpoint volume), and the fault
    /// injector's `fault.packets_dropped`, `fault.packets_duplicated`,
    /// and `fault.packets_delayed` (transport faults applied by the
    /// active `FaultPlan`; all zero on a fault-free run).
    Count {
        /// Stable counter name.
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
}

/// The complete trace of one rank: every [`Event`] it emitted, in program
/// order. Obtained from [`take`] at rank exit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankTrace {
    /// Rank that produced the trace.
    pub rank: usize,
    /// Events in emission (program) order.
    pub events: Vec<Event>,
}

#[cfg(feature = "record")]
mod record {
    use super::{Event, RankTrace};
    use std::cell::RefCell;

    thread_local! {
        static BUF: RefCell<Option<RankTrace>> = const { RefCell::new(None) };
    }

    /// Installs an empty trace buffer for `rank` on the current thread,
    /// discarding any previous buffer.
    pub fn install(rank: usize) {
        BUF.with(|b| {
            *b.borrow_mut() = Some(RankTrace {
                rank,
                events: Vec::new(),
            });
        });
    }

    /// Removes and returns the current thread's trace buffer, if any.
    pub fn take() -> Option<RankTrace> {
        BUF.with(|b| b.borrow_mut().take())
    }

    /// Whether a trace buffer is installed on the current thread.
    pub fn is_active() -> bool {
        BUF.with(|b| b.borrow().is_some())
    }

    /// Appends the event produced by `f` to the current thread's buffer,
    /// if one is installed; otherwise `f` is never called.
    #[inline]
    pub fn emit_with<F: FnOnce() -> Event>(f: F) {
        BUF.with(|b| {
            if let Some(trace) = b.borrow_mut().as_mut() {
                trace.events.push(f());
            }
        });
    }
}

#[cfg(feature = "record")]
pub use record::{emit_with, install, is_active, take};

/// Installs an empty trace buffer for `rank` on the current thread,
/// discarding any previous buffer. No-op with the `record` feature off.
#[cfg(not(feature = "record"))]
#[inline(always)]
pub fn install(_rank: usize) {}

/// Removes and returns the current thread's trace buffer. Always `None`
/// with the `record` feature off.
#[cfg(not(feature = "record"))]
#[inline(always)]
pub fn take() -> Option<RankTrace> {
    None
}

/// Whether a trace buffer is installed on the current thread. Always
/// `false` with the `record` feature off.
#[cfg(not(feature = "record"))]
#[inline(always)]
pub fn is_active() -> bool {
    false
}

/// Appends the event produced by `f` to the current thread's buffer, if
/// one is installed. With the `record` feature off the closure is never
/// called, so argument construction costs nothing.
#[cfg(not(feature = "record"))]
#[inline(always)]
pub fn emit_with<F: FnOnce() -> Event>(_f: F) {}

/// Appends an [`Event::Count`] sample of counter `name` to the current
/// thread's buffer, if one is installed.
#[inline]
pub fn count(name: &'static str, value: u64) {
    emit_with(|| Event::Count { name, value });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.reset(), 10);
        assert_eq!(c.get(), 0);
        c.incr();
        assert_eq!(c.get(), 1, "counter counts again after reset");
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        assert!(!c.is_saturated());
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        assert!(c.is_saturated());
        c.add(1);
        assert_eq!(c.get(), u64::MAX, "pegged, not wrapped");
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        assert_eq!(c.reset(), u64::MAX);
        assert_eq!(c.get(), 0);
        assert!(!c.is_saturated());
    }

    #[test]
    fn default_counter_is_zero() {
        assert_eq!(Counter::default().get(), 0);
    }

    #[cfg(feature = "record")]
    #[test]
    fn emit_without_install_is_dropped() {
        assert!(take().is_none(), "fresh thread has no buffer");
        emit_with(|| Event::Count {
            name: "orphan",
            value: 1,
        });
        assert!(!is_active());
        assert!(take().is_none());
    }

    #[cfg(feature = "record")]
    #[test]
    fn install_emit_take_roundtrip() {
        install(3);
        assert!(is_active());
        emit_with(|| Event::Enter {
            phase: "p",
            clock: 1.0,
        });
        emit_with(|| Event::Sync { seq: 1, clock: 2.0 });
        let t = take().expect("installed");
        assert_eq!(t.rank, 3);
        assert_eq!(
            t.events,
            vec![
                Event::Enter {
                    phase: "p",
                    clock: 1.0
                },
                Event::Sync { seq: 1, clock: 2.0 },
            ]
        );
        assert!(!is_active(), "take() uninstalls the buffer");
    }

    #[cfg(feature = "record")]
    #[test]
    fn install_discards_previous_buffer() {
        install(0);
        emit_with(|| Event::Count {
            name: "stale",
            value: 7,
        });
        install(1);
        let t = take().expect("installed");
        assert_eq!(t.rank, 1);
        assert!(t.events.is_empty());
    }

    #[cfg(not(feature = "record"))]
    #[test]
    fn disabled_recording_is_inert() {
        install(0);
        assert!(!is_active());
        emit_with(|| unreachable!("closure must not run with recording off"));
        assert!(take().is_none());
    }
}
