//! Per-phase measurement (Figure 8 of the paper): wall-clock time for the
//! host-machine view, message counts, and simulated-clock and charged-work
//! deltas for the BSP cost model view. A rank's `PhaseMeter` takes all
//! four readings at the same points, so every view splits a run into the
//! same phases.
//!
//! This module is the workspace's **only sanctioned wall-clock reader**
//! on solver/runtime paths: lint rule T1 bans `Instant::now` everywhere
//! else in `crates/{core,runtime,trace}/src`, so that no wall-clock value
//! can leak into a deterministic output (traces, `BENCH_*.json`). Code
//! that needs an elapsed-time measurement goes through [`Stopwatch`] or
//! a `PhaseMeter`.

use louvain_runtime::RankCtx;
use std::time::{Duration, Instant};

/// A wall-clock stopwatch — the single sanctioned `Instant` wrapper on
/// solver paths (see the module docs and lint rule T1). Wall-clock
/// readings must stay out of deterministic outputs; use them only for
/// host-machine reporting fields (`timers`, `total_time`).
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// The algorithm phases the paper's time breakdown distinguishes
/// (Figure 8: REFINE / GRAPH RECONSTRUCTION per outer loop; FIND BEST
/// COMMUNITY / UPDATE COMMUNITY INFORMATION / STATE PROPAGATION per inner
/// loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Community state propagation (Algorithm 3).
    StatePropagation,
    /// Scanning the Out-Table for each vertex's best community.
    FindBestCommunity,
    /// Applying the thresholded moves and Σ_tot updates.
    UpdateCommunity,
    /// The modularity computation.
    ComputeModularity,
    /// Whole inner loop (REFINE, Algorithm 4).
    Refine,
    /// Super-graph construction (Algorithm 5).
    Reconstruction,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 6] = [
        Phase::StatePropagation,
        Phase::FindBestCommunity,
        Phase::UpdateCommunity,
        Phase::ComputeModularity,
        Phase::Refine,
        Phase::Reconstruction,
    ];

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::StatePropagation => "state_propagation",
            Phase::FindBestCommunity => "find_best_community",
            Phase::UpdateCommunity => "update_community",
            Phase::ComputeModularity => "compute_modularity",
            Phase::Refine => "refine",
            Phase::Reconstruction => "reconstruction",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::StatePropagation => 0,
            Phase::FindBestCommunity => 1,
            Phase::UpdateCommunity => 2,
            Phase::ComputeModularity => 3,
            Phase::Refine => 4,
            Phase::Reconstruction => 5,
        }
    }
}

/// Accumulated per-phase durations.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimers {
    totals: [Duration; 6],
}

impl PhaseTimers {
    /// Empty timers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to `phase` (for externally measured intervals).
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.totals[phase.index()] += d;
    }

    /// Accumulated time for `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> Duration {
        self.totals[phase.index()]
    }

    /// Element-wise maximum with another timer set (critical-path
    /// aggregation across ranks).
    #[must_use]
    pub fn max(&self, other: &PhaseTimers) -> PhaseTimers {
        let mut out = PhaseTimers::new();
        for (i, t) in out.totals.iter_mut().enumerate() {
            *t = self.totals[i].max(other.totals[i]);
        }
        out
    }
}

/// Per-phase message counts for one rank (communication volume companion
/// to the Figure 8 time breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommBreakdown {
    /// Messages sent during initial graph loading/distribution.
    pub loading: u64,
    /// Messages sent by STATE PROPAGATION phases.
    pub state_propagation: u64,
    /// Messages sent by UPDATE COMMUNITY INFORMATION (Σ_tot deltas).
    pub update: u64,
    /// Messages sent by GRAPH RECONSTRUCTION (including id compaction).
    pub reconstruction: u64,
}

impl CommBreakdown {
    /// Total messages across phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.loading + self.state_propagation + self.update + self.reconstruction
    }

    /// Element-wise sum (aggregation across ranks).
    #[must_use]
    pub fn sum(&self, other: &CommBreakdown) -> CommBreakdown {
        CommBreakdown {
            loading: self.loading + other.loading,
            state_propagation: self.state_propagation + other.state_propagation,
            update: self.update + other.update,
            reconstruction: self.reconstruction + other.reconstruction,
        }
    }

    /// The cell a [`PhaseMeter::lap`] of `phase` adds to. FIND BEST and
    /// the modularity computation send no point-to-point messages (their
    /// threshold and snapshot traffic are collectives), so they have no
    /// cell.
    fn cell(&mut self, phase: Phase) -> Option<&mut u64> {
        match phase {
            Phase::StatePropagation => Some(&mut self.state_propagation),
            Phase::UpdateCommunity => Some(&mut self.update),
            Phase::Reconstruction => Some(&mut self.reconstruction),
            Phase::FindBestCommunity | Phase::ComputeModularity | Phase::Refine => None,
        }
    }
}

/// Per-phase **simulated-clock** deltas for one run, in BSP work units —
/// the deterministic counterpart of [`PhaseTimers`] and the basis of the
/// Fig. 8-style breakdown in `BENCH_louvain.json`. The same type holds a
/// rank's own charged work per phase.
///
/// Deltas are measured by reading the global simulated clock right after
/// the collective that closes each phase (no extra syncs are inserted, so
/// the cost model is unchanged). The clock only advances at globally
/// ordered syncs, so every rank observes identical deltas and the values
/// are bit-identical across runs and perturb seeds. Attribution caveats:
/// FIND BEST COMMUNITY performs no collective of its own — its compute
/// charge is accounted at the threshold reduction that follows it — and
/// without the ε heuristic that clock delta is folded into `update`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimBreakdown {
    /// Initial graph loading / distribution supersteps.
    pub loading: f64,
    /// STATE PROPAGATION exchanges (both per-iteration propagations).
    pub state_propagation: f64,
    /// FIND BEST COMMUNITY scan plus the ε-threshold collectives.
    pub find_best: f64,
    /// UPDATE COMMUNITY INFORMATION (move application, Σ_tot deltas).
    pub update: f64,
    /// The modularity computation and the snapshot gather that sums it.
    pub modularity: f64,
    /// GRAPH RECONSTRUCTION all-to-all and id compaction.
    pub reconstruction: f64,
}

impl SimBreakdown {
    /// Total simulated units across phases.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.loading
            + self.state_propagation
            + self.find_best
            + self.update
            + self.modularity
            + self.reconstruction
    }

    /// Element-wise maximum (cross-rank fold; all ranks should agree, so
    /// this is a no-op fold that tolerates a rank reporting zero).
    #[must_use]
    pub fn max(&self, other: &SimBreakdown) -> SimBreakdown {
        SimBreakdown {
            loading: self.loading.max(other.loading),
            state_propagation: self.state_propagation.max(other.state_propagation),
            find_best: self.find_best.max(other.find_best),
            update: self.update.max(other.update),
            modularity: self.modularity.max(other.modularity),
            reconstruction: self.reconstruction.max(other.reconstruction),
        }
    }

    /// The cell a [`PhaseMeter::lap`] of `phase` adds to.
    fn cell(&mut self, phase: Phase) -> &mut f64 {
        match phase {
            Phase::StatePropagation => &mut self.state_propagation,
            Phase::FindBestCommunity => &mut self.find_best,
            Phase::UpdateCommunity => &mut self.update,
            Phase::ComputeModularity => &mut self.modularity,
            Phase::Reconstruction => &mut self.reconstruction,
            Phase::Refine => unreachable!("REFINE spans its sub-phase laps and is never lapped"),
        }
    }
}

/// Timing of a single inner iteration of the first outer loop
/// (Figure 8b).
#[derive(Clone, Copy, Debug, Default)]
pub struct InnerIterationTiming {
    /// FIND BEST COMMUNITY time.
    pub find_best: Duration,
    /// UPDATE COMMUNITY INFORMATION time.
    pub update: Duration,
    /// STATE PROPAGATION time (both propagations of the iteration).
    pub state_propagation: Duration,
}

impl InnerIterationTiming {
    fn cell(&mut self, phase: Phase) -> Option<&mut Duration> {
        match phase {
            Phase::StatePropagation => Some(&mut self.state_propagation),
            Phase::FindBestCommunity => Some(&mut self.find_best),
            Phase::UpdateCommunity => Some(&mut self.update),
            _ => None,
        }
    }
}

/// One reading of every quantity a [`PhaseMeter`] attributes.
#[derive(Clone, Copy, Debug)]
struct Reading {
    wall: Instant,
    sent: u64,
    clock: f64,
    charged: f64,
}

impl Reading {
    fn of<M: Send>(ctx: &RankCtx<'_, M>) -> Self {
        Self {
            wall: Instant::now(),
            sent: ctx.sent_messages(),
            clock: ctx.sim_clock_units(),
            charged: ctx.charged_units(),
        }
    }
}

/// One rank's per-phase bookkeeping. Each [`PhaseMeter::lap`] reads the
/// wall clock, the sent-message counter, the simulated clock and the
/// charged-work ledger once each, and adds all four deltas since the
/// previous lap to the same phase — so the wall, message, clock and work
/// buckets of a phase close at the same point.
///
/// Laps chain: closing one phase opens the next. A lap taken right after
/// the collective that closes a phase reads the same clock delta on every
/// rank, because the clock only moves at globally ordered syncs. The
/// message and work deltas are this rank's own.
#[derive(Clone, Debug)]
pub(crate) struct PhaseMeter {
    /// Wall time per phase. [`Phase::Refine`] is a span over its sub-phase
    /// laps, which the caller times and adds.
    pub(crate) timers: PhaseTimers,
    /// Remote messages per phase.
    pub(crate) comm: CommBreakdown,
    /// Duplicate announcements state propagation collapsed (see
    /// `announce_migrations`).
    pub(crate) dedup_hits: u64,
    /// Simulated-clock deltas per phase (identical on every rank).
    pub(crate) sim: SimBreakdown,
    /// This rank's own charged work per phase.
    pub(crate) work: SimBreakdown,
    /// One entry per inner iteration ended with `record` set.
    pub(crate) inner: Vec<InnerIterationTiming>,
    /// The wall laps of the current inner iteration.
    iteration: InnerIterationTiming,
    last: Reading,
}

impl PhaseMeter {
    /// Starts metering once the loading superstep is done. Every counter
    /// of a world starts at zero, so everything sent, clocked and charged
    /// so far is loading.
    pub(crate) fn after_loading<M: Send>(ctx: &RankCtx<'_, M>) -> Self {
        let last = Reading::of(ctx);
        Self {
            timers: PhaseTimers::new(),
            comm: CommBreakdown {
                loading: last.sent,
                ..CommBreakdown::default()
            },
            dedup_hits: 0,
            sim: SimBreakdown {
                loading: last.clock,
                ..SimBreakdown::default()
            },
            work: SimBreakdown {
                loading: last.charged,
                ..SimBreakdown::default()
            },
            inner: Vec::new(),
            iteration: InnerIterationTiming::default(),
            last,
        }
    }

    /// Starts a new chain of laps. Whatever happened since the last lap
    /// (cache builds, checkpoints, level bookkeeping) belongs to no phase.
    pub(crate) fn restart<M: Send>(&mut self, ctx: &RankCtx<'_, M>) {
        self.last = Reading::of(ctx);
    }

    /// Closes `phase`: adds everything since the previous lap (or
    /// restart) to it. `phase` must not be [`Phase::Refine`].
    pub(crate) fn lap<M: Send>(&mut self, ctx: &RankCtx<'_, M>, phase: Phase) {
        let now = Reading::of(ctx);
        let wall = now.wall - self.last.wall;
        self.timers.add(phase, wall);
        if let Some(t) = self.iteration.cell(phase) {
            *t += wall;
        }
        if let Some(c) = self.comm.cell(phase) {
            *c += now.sent - self.last.sent;
        }
        *self.sim.cell(phase) += now.clock - self.last.clock;
        *self.work.cell(phase) += now.charged - self.last.charged;
        self.last = now;
    }

    /// Ends an inner iteration, keeping its FIND BEST, UPDATE and STATE
    /// PROPAGATION laps as one [`PhaseMeter::inner`] entry if `record`.
    pub(crate) fn end_iteration(&mut self, record: bool) {
        let it = std::mem::take(&mut self.iteration);
        if record {
            self.inner.push(it);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_runtime::sim::{CHARGE_PER_MESSAGE, SYNC_LATENCY_UNITS};
    use louvain_runtime::{run_with_config, RuntimeConfig};

    #[test]
    fn max_elementwise() {
        let mut a = PhaseTimers::new();
        a.add(Phase::Refine, Duration::from_millis(10));
        let mut b = PhaseTimers::new();
        b.add(Phase::Refine, Duration::from_millis(4));
        b.add(Phase::Reconstruction, Duration::from_millis(7));
        let m = a.max(&b);
        assert_eq!(m.get(Phase::Refine), Duration::from_millis(10));
        assert_eq!(m.get(Phase::Reconstruction), Duration::from_millis(7));
    }

    #[test]
    fn comm_breakdown_totals() {
        let a = CommBreakdown {
            loading: 1,
            state_propagation: 10,
            update: 2,
            reconstruction: 4,
        };
        assert_eq!(a.total(), 17);
        let b = a.sum(&a);
        assert_eq!(b.total(), 34);
        assert_eq!(b.state_propagation, 20);
    }

    /// Sends `k` messages to the other rank of a 2-rank world and closes
    /// the exchange.
    fn send_to_peer(ctx: &mut RankCtx<'_, u32>, k: u32) {
        let peer = 1 - ctx.rank();
        let mut ex = ctx.exchange();
        for i in 0..k {
            ex.send(peer, i);
        }
        ex.finish(|_| ());
    }

    #[test]
    fn lap_puts_messages_clock_and_work_into_one_phase() {
        const K: u32 = 7;
        const C: f64 = 250.0;
        let (out, _) = run_with_config::<u32, _, _>(RuntimeConfig::new(2), |ctx| {
            ctx.charge(100.0);
            ctx.sim_sync();
            let mut meter = PhaseMeter::after_loading(ctx);
            // Sent, charged and synced before the restart: no phase's.
            send_to_peer(ctx, 3);
            ctx.charge(1000.0);
            ctx.sim_sync();
            meter.restart(ctx);
            send_to_peer(ctx, K);
            ctx.charge(C);
            ctx.sim_sync();
            meter.lap(ctx, Phase::UpdateCommunity);
            meter
        });
        // Each rank sends and receives K messages in the lapped exchange,
        // and the lap spans two syncs.
        let work = 2.0 * f64::from(K) * CHARGE_PER_MESSAGE + C;
        let clock = work + 2.0 * SYNC_LATENCY_UNITS;
        for meter in out {
            assert_eq!(
                (meter.comm.update, meter.comm.total()),
                (u64::from(K), u64::from(K))
            );
            assert_eq!((meter.work.loading, meter.work.update), (100.0, work));
            assert_eq!(
                (meter.sim.loading, meter.sim.update),
                (100.0 + SYNC_LATENCY_UNITS, clock)
            );
            assert_eq!(meter.work.total(), 100.0 + work);
            assert_eq!(meter.sim.total(), 100.0 + SYNC_LATENCY_UNITS + clock);
            assert!(meter.timers.get(Phase::UpdateCommunity) > Duration::ZERO);
            assert_eq!(meter.timers.get(Phase::FindBestCommunity), Duration::ZERO);
        }
    }

    #[test]
    fn phase_names_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
    }
}
