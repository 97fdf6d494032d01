//! The BSP (bulk-synchronous) simulated clock.
//!
//! The host machine may have fewer cores than simulated ranks (a 2-core
//! host running 4 or 8 ranks, say), in which case wall-clock time cannot
//! exhibit parallel speedup — the ranks timeshare. The simulated clock
//! provides the scaling signal instead, using the classic BSP cost model:
//!
//! > at every synchronization point, the global clock advances by the
//! > *maximum* work any rank accumulated since the previous
//! > synchronization, plus a fixed synchronization latency.
//!
//! Work units are charged automatically by the messaging layer
//! ([`CHARGE_PER_MESSAGE`] per remote message sent and per message
//! delivered, a tenth of that per collective element) and manually by
//! algorithms via [`RankCtx::charge`] for local compute. Load imbalance
//! shows up naturally through the `max`, and latency-dominated
//! strong-scaling rolloff through the per-sync constant
//! ([`SYNC_LATENCY_UNITS`]).
//!
//! The model intentionally has only those two calibration constants;
//! everything else is *measured* from the actual execution.

use crate::world::{CollectiveKind, RankCtx};
use std::panic::Location;

/// Clock units charged per remote message sent and per message
/// delivered; collectives charge a tenth of it per element received.
pub const CHARGE_PER_MESSAGE: f64 = 1.0;

/// Clock units every synchronization point adds (models collective and
/// barrier latency).
pub const SYNC_LATENCY_UNITS: f64 = 5000.0;

/// Global simulated-clock state (one per world, behind a mutex).
#[derive(Debug, Default)]
pub(crate) struct SimState {
    /// The global simulated clock, in work units.
    pub clock: f64,
    /// Work accumulated by each rank since the last synchronization.
    pub pending: Vec<f64>,
}

impl<'w, M: Send> RankCtx<'w, M> {
    /// Charges `units` of local work to this rank's current superstep.
    ///
    /// Use for compute the messaging layer can't see (table scans,
    /// per-vertex arithmetic). One unit should correspond to roughly the
    /// cost of handling one message.
    pub fn charge(&self, units: f64) {
        self.work.set(self.work.get() + units);
        self.work_total.set(self.work_total.get() + units);
    }

    /// Work charged to the current (unfinished) superstep so far.
    #[must_use]
    pub fn pending_work(&self) -> f64 {
        self.work.get()
    }

    /// Total work this rank has charged over the whole run, across every
    /// superstep. Unlike the simulated clock (which advances by the
    /// max-over-ranks at each sync), this is the rank's *own* share — the
    /// per-rank per-phase breakdown and the partition-imbalance stat read
    /// their deltas from here. Rank-local and deterministic: a pure
    /// function of the work the algorithm charged in program order.
    #[must_use]
    pub fn charged_units(&self) -> f64 {
        self.work_total.get()
    }

    /// Advances the simulated clock by `max_rank(pending work) + latency`
    /// and returns the new clock value. Collective: all ranks must call.
    ///
    /// Called internally by every exchange and collective; call directly
    /// only to delimit a compute-only superstep.
    #[track_caller]
    pub fn sim_sync(&self) -> f64 {
        {
            let mut sim = self.world.sim.lock();
            sim.pending[self.rank] = self.work.get();
        }
        self.work.set(0.0);
        self.enter_collective(CollectiveKind::SimSync, Location::caller());
        if self.rank == 0 {
            let mut sim = self.world.sim.lock();
            let max = sim.pending.iter().copied().fold(0.0f64, f64::max);
            sim.clock += max + SYNC_LATENCY_UNITS;
            sim.pending.iter_mut().for_each(|x| *x = 0.0);
        }
        self.wait_raw();
        let clock = self.world.sim.lock().clock;
        // Scheduled rank crashes fire here — after every rank has passed
        // this sync's final barrier, so all ranks agree on `clock`, no
        // barrier is left short, and the victim dies exactly *between*
        // BSP supersteps (see `crate::fault`).
        self.maybe_crash(clock);
        self.syncs.set(self.syncs.get() + 1);
        louvain_trace::emit_with(|| louvain_trace::Event::Sync {
            seq: self.syncs.get(),
            clock,
        });
        clock
    }

    /// Current global simulated clock, *without* synchronizing — unlike
    /// [`RankCtx::sim_time_units`] this is not a collective and charges
    /// nothing. The clock only advances inside [`RankCtx::sim_sync`]
    /// (which every rank enters in the same global order), so a read
    /// taken right after a collective returns the same value on every
    /// rank and is deterministic. Phase-breakdown instrumentation uses
    /// this to attribute clock deltas to phases without adding syncs
    /// that would perturb the cost model.
    #[must_use]
    pub fn sim_clock_units(&self) -> f64 {
        self.world.sim.lock().clock
    }

    /// Current simulated time in work units (synchronizes first so all
    /// outstanding work is accounted). Collective: all ranks must call.
    #[must_use]
    #[track_caller]
    pub fn sim_time_units(&self) -> f64 {
        self.sim_sync()
    }
}

/// A small deterministic RNG (splitmix64) used only by the
/// schedule-perturbation mode. Seeded from `(seed, rank, phase)` so every
/// run with the same seed perturbs identically, and different seeds,
/// ranks, and phases decorrelate.
pub(crate) struct PerturbRng {
    state: u64,
}

impl PerturbRng {
    pub(crate) fn new(seed: u64, rank: u64, phase: u64) -> Self {
        let mut rng = Self {
            state: seed
                ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ phase.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        };
        let _ = rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw in `0..n` (modulo bias is irrelevant for
    /// adversarial shuffling). `n` must be non-zero.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{CHARGE_PER_MESSAGE as C, SYNC_LATENCY_UNITS as L};
    use crate::world::{run, run_with_config, RuntimeConfig};

    #[test]
    fn clock_advances_by_max_work_plus_latency() {
        let cfg = RuntimeConfig {
            coalesce_capacity: 64,
            ..RuntimeConfig::new(4)
        };
        let (out, _) = run_with_config::<(), _, _>(cfg, |ctx| {
            ctx.charge((ctx.rank() as f64 + 1.0) * 10.0); // max = 40
            ctx.sim_sync();
            ctx.charge(5.0);
            ctx.sim_time_units()
        });
        // First sync: 40 + L; second: 5 + L.
        let want = 40.0 + L + 5.0 + L;
        assert!(out.iter().all(|&t| (t - want).abs() < 1e-9), "{out:?}");
    }

    #[test]
    fn messages_are_charged_to_both_sides() {
        let cfg = RuntimeConfig {
            coalesce_capacity: 8,
            ..RuntimeConfig::new(2)
        };
        let (out, _) = run_with_config::<u32, _, _>(cfg, |ctx| {
            let rank = ctx.rank();
            let mut ex = ctx.exchange();
            // Rank 0 sends 10 messages to rank 1; rank 1 sends none.
            if rank == 0 {
                for i in 0..10u32 {
                    ex.send(1, i);
                }
            }
            ex.finish(|_| ());
            ctx.sim_time_units()
        });
        // One superstep: rank 0 charged 10 sends, rank 1 charged 10
        // deliveries, so it costs max(10C, 10C) + L; the final sync adds
        // only its latency.
        let want = 10.0 * C + L + L;
        assert!(out.iter().all(|&t| (t - want).abs() < 1e-9), "{out:?}");
    }

    #[test]
    fn self_sends_charge_delivery_only() {
        let cfg = RuntimeConfig {
            coalesce_capacity: 8,
            ..RuntimeConfig::new(2)
        };
        let (out, _) = run_with_config::<u32, _, _>(cfg, |ctx| {
            let rank = ctx.rank();
            let mut ex = ctx.exchange();
            for i in 0..10u32 {
                ex.send(rank, i);
            }
            ex.finish(|_| ());
            ctx.sim_time_units()
        });
        // Self-sends bypass the network; only the 10 deliveries cost.
        let want = 10.0 * C + L + L;
        assert!(out.iter().all(|&t| (t - want).abs() < 1e-9), "{out:?}");
    }

    #[test]
    fn more_ranks_reduce_simulated_time_for_fixed_total_work() {
        // A fixed pool of 120 sync latencies of work split evenly: sim
        // time must shrink with rank count — the property wall-clock
        // cannot show on a single-core host.
        let total = 120.0 * L;
        let mut times = Vec::new();
        for p in [1usize, 2, 4, 8] {
            let cfg = RuntimeConfig {
                coalesce_capacity: 64,
                ..RuntimeConfig::new(p)
            };
            let (out, _) = run_with_config::<(), _, _>(cfg, |ctx| {
                ctx.charge(total / ctx.num_ranks() as f64);
                ctx.sim_time_units()
            });
            times.push(out[0]);
        }
        assert!(times[0] > times[1] && times[1] > times[2] && times[2] > times[3]);
        // Near-ideal speedup at small p: (120 + 1) L vs (60 + 1) L.
        let speedup = times[0] / times[1];
        assert!((speedup - 1.98).abs() < 0.05, "{times:?}");
    }

    #[test]
    fn collectives_advance_the_clock() {
        let out = run::<(), _, _>(3, |ctx| {
            let _ = ctx.allreduce_sum(1.0);
            let _ = ctx.allreduce_sum(1.0);
            ctx.sim_time_units()
        });
        // Latency is non-zero, so two collectives + final sync must have
        // advanced the clock, and all ranks agree.
        assert!(out.iter().all(|&t| t > 0.0));
        assert!(out.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
    }

    #[test]
    fn imbalance_dominates_the_clock() {
        let cfg = RuntimeConfig {
            coalesce_capacity: 64,
            ..RuntimeConfig::new(4)
        };
        // One straggler with 1000 units; everyone else idle.
        let (out, _) = run_with_config::<(), _, _>(cfg, |ctx| {
            if ctx.rank() == 2 {
                ctx.charge(1000.0);
            }
            ctx.sim_time_units()
        });
        let want = 1000.0 + L;
        assert!(out.iter().all(|&t| (t - want).abs() < 1e-9), "{out:?}");
    }
}
