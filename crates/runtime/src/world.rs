//! World construction, rank contexts, and the scoped-thread launcher.

use crate::fault::{
    FaultPlan, FaultState, FaultStats, Packet, RankLost, RunOutcome, SimulatedCrash,
};
use crate::sim::SimState;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};

/// Runtime configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Number of simulated ranks (compute nodes).
    pub ranks: usize,
    /// Messages buffered per destination before a packet is flushed —
    /// the coalescing granularity of the messaging layer.
    pub coalesce_capacity: usize,
    /// Enables the collective-protocol shadow checks: per-rank operation
    /// sequence numbers, collective type tags, and per-phase send-count
    /// reconciliation. Mismatched collectives become an immediate panic
    /// naming both call sites instead of silent corruption. Defaults to
    /// on in debug builds, off in release builds.
    pub check_protocol: bool,
    /// When `Some(seed)`, adversarially permutes packet delivery order
    /// and handler invocation order within every [`crate::Exchange`]
    /// (crate::Exchange) phase, seeded deterministically from
    /// `(seed, rank, phase)`. The simulated clock is unaffected; a
    /// protocol-correct algorithm must produce bit-identical results for
    /// every seed.
    pub perturb_seed: Option<u64>,
    /// Records the sequence of [`CollectiveKind`]s each rank enters (in
    /// program order, including the implicit final `Shutdown`), returned
    /// in [`RunOutcome::Completed`]'s `logs` by
    /// [`run_with_config_faulted`]. The conformance tests replay these
    /// observed sequences against the static protocol spec extracted by
    /// `xtask protocol`. Off by default: recording appends to a per-rank
    /// log on every collective.
    pub record_protocol: bool,
}

impl RuntimeConfig {
    /// `ranks` ranks with the default coalescing capacity (1024 messages,
    /// ~16 KiB packets for 16-byte messages).
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            coalesce_capacity: 1024,
            check_protocol: cfg!(debug_assertions),
            perturb_seed: None,
            record_protocol: false,
        }
    }
}

/// The kind of collective operation a rank is entering, tracked by the
/// protocol shadow state so mismatches can name the offending operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// No collective entered yet (initial shadow state).
    Idle,
    /// [`RankCtx::barrier`].
    Barrier,
    /// [`RankCtx::allreduce_sum`] (scalar f64 reduction).
    ReduceF64,
    /// [`RankCtx::allreduce_sum_u64`].
    ReduceU64,
    /// [`RankCtx::allreduce_sum_vec`].
    AllreduceSumVec,
    /// [`RankCtx::allgather_f64`].
    AllgatherF64,
    /// [`RankCtx::sim_sync`] / [`RankCtx::sim_time_units`].
    SimSync,
    /// An [`Exchange`](crate::Exchange) phase completing in `finish`.
    Exchange,
    /// The implicit collective every rank enters after its closure
    /// returns (protocol checks only). Keeps the barrier full when one
    /// rank exits while a peer is still inside a collective, so the
    /// count mismatch is diagnosed instead of deadlocking.
    Shutdown,
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl CollectiveKind {
    /// Stable textual name, used by checkpoint serialization to persist a
    /// recorded protocol-log prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Idle => "Idle",
            Self::Barrier => "Barrier",
            Self::ReduceF64 => "ReduceF64",
            Self::ReduceU64 => "ReduceU64",
            Self::AllreduceSumVec => "AllreduceSumVec",
            Self::AllgatherF64 => "AllgatherF64",
            Self::SimSync => "SimSync",
            Self::Exchange => "Exchange",
            Self::Shutdown => "Shutdown",
        }
    }

    /// Inverse of [`CollectiveKind::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "Idle" => Self::Idle,
            "Barrier" => Self::Barrier,
            "ReduceF64" => Self::ReduceF64,
            "ReduceU64" => Self::ReduceU64,
            "AllreduceSumVec" => Self::AllreduceSumVec,
            "AllgatherF64" => Self::AllgatherF64,
            "SimSync" => Self::SimSync,
            "Exchange" => Self::Exchange,
            "Shutdown" => Self::Shutdown,
            _ => return None,
        })
    }
}

/// Per-rank protocol shadow state: operation sequence numbers, collective
/// type tags, and the user call site of the collective currently being
/// entered. Only consulted when [`RuntimeConfig::check_protocol`] is set.
pub(crate) struct ShadowState {
    /// Collective operations entered so far, per rank.
    pub(crate) seq: Vec<u64>,
    /// Kind of the collective each rank is currently entering.
    pub(crate) kind: Vec<CollectiveKind>,
    /// Call site of the collective each rank is currently entering.
    pub(crate) loc: Vec<Option<&'static Location<'static>>>,
}

/// Aggregate communication counters for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Total messages sent across all ranks and phases.
    pub messages: u64,
    /// Total packets (coalesced message batches) sent.
    pub packets: u64,
}

/// The world's rank barrier. A rank thread that unwinds poisons it, and
/// every rank blocked in a wait, or entering one later, then unwinds
/// with [`WorldPoisoned`] instead of waiting forever for the dead rank.
pub(crate) struct RankBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    /// Ranks waiting in the current generation.
    arrived: usize,
    /// Completed waits so far.
    generation: u64,
    /// The first rank whose thread unwound, once one has.
    poisoned_by: Option<usize>,
}

/// Panic payload of a rank released from a barrier that a peer's panic
/// poisoned. It never reaches the caller: the launcher re-raises the
/// poisoning rank's own payload.
struct WorldPoisoned;

impl RankBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned_by: None,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Blocks until all `n` ranks have called `wait`.
    ///
    /// # Panics
    ///
    /// With [`WorldPoisoned`] once a peer's thread has unwound.
    fn wait(&self) {
        let mut st = self.state.lock();
        if st.poisoned_by.is_none() {
            let generation = st.generation;
            st.arrived += 1;
            if st.arrived == self.n {
                st.arrived = 0;
                st.generation += 1;
                self.cvar.notify_all();
                return;
            }
            while st.generation == generation && st.poisoned_by.is_none() {
                st = self.cvar.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if st.generation != generation {
                return;
            }
        }
        drop(st);
        std::panic::panic_any(WorldPoisoned);
    }

    /// Records that `rank`'s thread is unwinding (the first such rank is
    /// kept) and releases every waiter.
    fn poison(&self, rank: usize) {
        self.state.lock().poisoned_by.get_or_insert(rank);
        self.cvar.notify_all();
    }

    /// The first rank whose thread unwound, if any.
    fn poisoned_by(&self) -> Option<usize> {
        self.state.lock().poisoned_by
    }
}

/// Shared world state (one per `run`).
pub(crate) struct World<M: Send> {
    pub(crate) p: usize,
    pub(crate) coalesce: usize,
    pub(crate) senders: Vec<Sender<Packet<M>>>,
    pub(crate) barrier: RankBarrier,
    /// One f64 slot per rank for scalar reductions.
    pub(crate) f64_slots: Mutex<Vec<f64>>,
    /// One u64 slot per rank for integer reductions.
    pub(crate) u64_slots: Mutex<Vec<u64>>,
    /// One vector slot per rank for element-wise reductions / allgather.
    pub(crate) vec_slots: Mutex<Vec<Vec<f64>>>,
    /// p×p per-phase send-count matrix (row = sender).
    pub(crate) counts: Mutex<Vec<u64>>,
    /// p×p matrix of messages actually flushed to the channels (row =
    /// sender), reconciled against `counts` when `check_protocol` is set.
    pub(crate) actual_counts: Mutex<Vec<u64>>,
    /// Protocol shadow state (see [`ShadowState`]).
    pub(crate) shadow: Mutex<ShadowState>,
    pub(crate) check_protocol: bool,
    pub(crate) record_protocol: bool,
    /// Per-rank observed collective sequences, flushed by each rank
    /// thread on exit when [`RuntimeConfig::record_protocol`] is set.
    pub(crate) protocol_logs: Mutex<Vec<Vec<CollectiveKind>>>,
    pub(crate) perturb_seed: Option<u64>,
    pub(crate) msg_counter: AtomicU64,
    pub(crate) packet_counter: AtomicU64,
    /// BSP simulated clock (see [`crate::sim`]).
    pub(crate) sim: Mutex<SimState>,
    /// Fault-injection state, present only when the world runs under a
    /// non-empty [`FaultPlan`].
    pub(crate) fault: Option<FaultState>,
}

/// Per-rank handle: the only way a rank interacts with the rest of the
/// "machine".
pub struct RankCtx<'w, M: Send> {
    pub(crate) rank: usize,
    pub(crate) world: &'w World<M>,
    pub(crate) rx: Receiver<Packet<M>>,
    /// Messages this rank has sent (all phases).
    pub(crate) sent_messages: u64,
    /// BSP work charged since the last simulated synchronization.
    pub(crate) work: Cell<f64>,
    /// BSP work charged over the whole run (never reset by syncs) — the
    /// per-rank side of the load-imbalance story: the simulated clock
    /// advances by the *max* over ranks, this counter keeps each rank's
    /// own share so skew is observable.
    pub(crate) work_total: Cell<f64>,
    /// Exchange phases started by this rank (seeds the perturbation RNG).
    pub(crate) exchange_seq: Cell<u64>,
    /// Simulated synchronization points this rank has completed.
    pub(crate) syncs: Cell<u64>,
    /// Payload bytes this rank has pushed into remote packets.
    pub(crate) bytes_sent: Cell<u64>,
    /// Observed collective sequence (program order), populated only when
    /// [`RuntimeConfig::record_protocol`] is set.
    pub(crate) protocol_log: RefCell<Vec<CollectiveKind>>,
    /// Packets this rank dropped (and retransmitted) under fault
    /// injection — rank-local program-order quantities, so trace samples
    /// built from them stay schedule-invariant.
    pub(crate) fault_drops: Cell<u64>,
    /// Packets this rank sent with an injected redundant copy.
    pub(crate) fault_dups: Cell<u64>,
    /// Packets this rank delayed past a later packet.
    pub(crate) fault_delays: Cell<u64>,
}

impl<'w, M: Send> RankCtx<'w, M> {
    /// This rank's id in `0..num_ranks`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[must_use]
    pub fn num_ranks(&self) -> usize {
        self.world.p
    }

    /// Messages sent by this rank so far.
    #[must_use]
    pub fn sent_messages(&self) -> u64 {
        self.sent_messages
    }

    /// Simulated synchronization points ([`RankCtx::sim_sync`]) this rank
    /// has completed so far. Every exchange and collective ends in exactly
    /// one, so this is the per-rank sync count of the Fig. 8-style
    /// breakdown.
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.syncs.get()
    }

    /// Payload bytes this rank has pushed into remote packets so far
    /// (`messages × size_of::<M>()`; self-sends bypass the network and
    /// are not counted).
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.get()
    }

    /// `true` when this world runs under a non-empty [`FaultPlan`]
    /// ([`run_with_config_faulted`]); the empty plan is the fault-free
    /// path.
    #[must_use]
    pub fn fault_injection_active(&self) -> bool {
        self.world.fault.is_some()
    }

    /// Transport faults this rank has injected so far (the `crashes`
    /// field is always 0 here: a crash is a world-level outcome, reported
    /// by [`RunOutcome::Crashed`]). Rank-local program-order quantities,
    /// schedule-invariant like every other per-rank counter.
    #[must_use]
    pub fn fault_counters(&self) -> FaultStats {
        FaultStats {
            packets_dropped: self.fault_drops.get(),
            packets_duplicated: self.fault_dups.get(),
            packets_delayed: self.fault_delays.get(),
            crashes: 0,
        }
    }

    /// Snapshot of the collective sequence recorded so far (empty unless
    /// [`RuntimeConfig::record_protocol`] is set). Checkpoints persist
    /// this so a restarted run can splice the pre-crash prefix back in.
    #[must_use]
    pub fn protocol_log_snapshot(&self) -> Vec<CollectiveKind> {
        self.protocol_log.borrow().clone()
    }

    /// Replaces the recorded collective sequence with `prefix` — used by
    /// checkpoint restore, *before* the first collective of the resumed
    /// run, so the spliced log reads exactly like an uninterrupted run's.
    pub fn seed_protocol_log(&self, prefix: &[CollectiveKind]) {
        let mut log = self.protocol_log.borrow_mut();
        log.clear();
        log.extend_from_slice(prefix);
    }

    /// Fires a scheduled crash for this rank at post-sync clock `clock`:
    /// records the crash for the survivors' diagnosis and unwinds. Called
    /// by [`RankCtx::sim_sync`] after every rank has passed the sync's
    /// final barrier (so all ranks agree on `clock` and no rank is left
    /// mid-protocol), which makes the sim-sync boundary the only place a
    /// rank can die — a faithful model of a machine lost between BSP
    /// supersteps.
    pub(crate) fn maybe_crash(&self, clock: f64) {
        let Some(fault) = &self.world.fault else {
            return;
        };
        let Some(cp) = fault.plan.next_crash(clock) else {
            return;
        };
        if cp.rank != self.rank {
            return;
        }
        *fault.crashed.lock() = Some(cp);
        std::panic::panic_any(SimulatedCrash { rank: cp.rank });
    }

    /// The transport fault (if any) for this rank's next packet to
    /// `dest`, keyed on the phase, per-phase packet ordinal, and current
    /// simulated clock.
    pub(crate) fn packet_fault(
        &self,
        dest: usize,
        phase: u64,
        ordinal: u64,
    ) -> Option<crate::fault::PacketFault> {
        let fault = self.world.fault.as_ref()?;
        let clock_bits = self.world.sim.lock().clock.to_bits();
        fault
            .plan
            .packet_fault(self.rank as u64, dest as u64, phase, ordinal, clock_bits)
    }

    /// Blocks until every rank reaches the barrier.
    #[track_caller]
    pub fn barrier(&self) {
        self.enter_collective(CollectiveKind::Barrier, Location::caller());
    }

    /// The raw shared barrier, with no shadow bookkeeping. Internal
    /// synchronization points that are not collectives in their own right
    /// (e.g. the second wait of a reduction protocol) use this.
    pub(crate) fn wait_raw(&self) {
        self.world.barrier.wait();
    }

    /// Synchronization point at the head of every collective. With
    /// protocol checks off this is exactly one barrier wait (the seed
    /// behavior). With checks on, each rank posts `(seq, kind, call
    /// site)` to its shadow slot, waits, and then *every* rank verifies
    /// that all slots agree — so a mismatched collective panics on all
    /// ranks simultaneously (no rank is left blocked on the barrier) with
    /// a diagnostic naming each rank's operation and call site. The
    /// trailing wait keeps a fast rank from re-posting its slot for the
    /// next collective before slow ranks have inspected this one.
    pub(crate) fn enter_collective(&self, kind: CollectiveKind, loc: &'static Location<'static>) {
        if self.world.record_protocol {
            self.protocol_log.borrow_mut().push(kind);
        }
        if !self.world.check_protocol {
            self.wait_raw();
            return;
        }
        {
            let mut sh = self.world.shadow.lock();
            sh.seq[self.rank] += 1;
            sh.kind[self.rank] = kind;
            sh.loc[self.rank] = Some(loc);
        }
        self.wait_raw();
        {
            let sh = self.world.shadow.lock();
            let me = (sh.seq[self.rank], sh.kind[self.rank]);
            if (0..self.world.p).any(|r| (sh.seq[r], sh.kind[r]) != me) {
                // A mismatch whose only out-of-step rank is a recorded
                // crash victim sitting in its Shutdown rendezvous is not
                // a protocol bug — it is the detection signal for rank
                // loss. Every rank (survivors and victim alike) reaches
                // this point in the same inspection round and unwinds
                // with the same payload, keeping barrier counts
                // consistent; the crash record was written before the
                // victim's Shutdown entry, so the intervening barrier
                // ordered it before this read.
                let crash = self.world.fault.as_ref().and_then(|f| *f.crashed.lock());
                if let Some(cp) = crash {
                    let survivors_agree = {
                        let mut it = (0..self.world.p)
                            .filter(|&r| r != cp.rank)
                            .map(|r| (sh.seq[r], sh.kind[r]));
                        let first = it.next();
                        first.is_none_or(|f0| it.all(|x| x == f0))
                    };
                    if survivors_agree
                        && cp.rank < self.world.p
                        && sh.kind[cp.rank] == CollectiveKind::Shutdown
                    {
                        std::panic::panic_any(RankLost { rank: cp.rank });
                    }
                }
                let mut detail = String::new();
                for r in 0..self.world.p {
                    let site = sh.loc[r].map_or_else(
                        || "<unknown>".to_string(),
                        |l| format!("{}:{}", l.file(), l.line()),
                    );
                    detail.push_str(&format!(
                        "\n  rank {r}: op #{} {} at {site}",
                        sh.seq[r], sh.kind[r]
                    ));
                }
                panic!(
                    "collective protocol mismatch (ranks entered different \
                     collectives):{detail}"
                );
            }
        }
        self.wait_raw();
    }
}

/// Runs `f` on `cfg.ranks` simulated ranks and returns the per-rank results
/// in rank order together with communication statistics.
///
/// `M` is the message type carried by [`Exchange`](crate::Exchange) phases;
/// it must be `Send`. The closure is invoked once per rank with that rank's
/// [`RankCtx`].
pub fn run_with_config<M, R, F>(cfg: RuntimeConfig, f: F) -> (Vec<R>, CommStats)
where
    M: Send,
    R: Send,
    F: Fn(&mut RankCtx<'_, M>) -> R + Sync,
{
    match run_with_config_faulted(cfg, &FaultPlan::default(), f) {
        RunOutcome::Completed { results, stats, .. } => (results, stats),
        // The empty plan schedules no crash.
        RunOutcome::Crashed { .. } => unreachable!("crash without a fault plan"),
    }
}

/// The launcher: builds the world, runs one closure per rank thread, and
/// classifies the outcome. Under a non-empty `plan` the messaging layer
/// injects (and masks) its transport faults, and a scheduled rank crash
/// tears the world down into [`RunOutcome::Crashed`] instead of
/// completing; the empty plan builds no fault state at all. Crash
/// detection rides on the collective protocol shadow, so `check_protocol`
/// is forced on whenever the plan schedules crashes.
///
/// Panics that are *not* injected faults (genuine bugs, protocol
/// mismatches unrelated to the crash) poison the world and reach the
/// caller with the panicking rank's own payload.
pub fn run_with_config_faulted<M, R, F>(
    mut cfg: RuntimeConfig,
    plan: &FaultPlan,
    f: F,
) -> RunOutcome<R>
where
    M: Send,
    R: Send,
    F: Fn(&mut RankCtx<'_, M>) -> R + Sync,
{
    if !plan.crashes.is_empty() {
        cfg.check_protocol = true;
        install_panic_silencer();
    }
    assert!(cfg.ranks >= 1, "at least one rank required");
    assert!(cfg.coalesce_capacity >= 1, "coalesce capacity must be >= 1");
    let p = cfg.ranks;
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded::<Packet<M>>();
        senders.push(tx);
        receivers.push(rx);
    }
    let world = World {
        p,
        coalesce: cfg.coalesce_capacity,
        senders,
        barrier: RankBarrier::new(p),
        f64_slots: Mutex::new(vec![0.0; p]),
        u64_slots: Mutex::new(vec![0; p]),
        vec_slots: Mutex::new(vec![Vec::new(); p]),
        counts: Mutex::new(vec![0; p * p]),
        actual_counts: Mutex::new(vec![0; p * p]),
        shadow: Mutex::new(ShadowState {
            seq: vec![0; p],
            kind: vec![CollectiveKind::Idle; p],
            loc: vec![None; p],
        }),
        check_protocol: cfg.check_protocol,
        record_protocol: cfg.record_protocol,
        protocol_logs: Mutex::new(vec![Vec::new(); p]),
        perturb_seed: cfg.perturb_seed,
        msg_counter: AtomicU64::new(0),
        packet_counter: AtomicU64::new(0),
        sim: Mutex::new(SimState {
            clock: 0.0,
            pending: vec![0.0; p],
        }),
        fault: (!plan.is_empty()).then(|| FaultState {
            plan: plan.clone(),
            crashed: Mutex::new(None),
            drops: AtomicU64::new(0),
            dups: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }),
    };
    let results: Vec<Option<R>> = std::thread::scope(|s| {
        let world = &world;
        let f = &f;
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                s.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        world,
                        rx,
                        sent_messages: 0,
                        work: Cell::new(0.0),
                        work_total: Cell::new(0.0),
                        exchange_seq: Cell::new(0),
                        syncs: Cell::new(0),
                        bytes_sent: Cell::new(0),
                        protocol_log: RefCell::new(Vec::new()),
                        fault_drops: Cell::new(0),
                        fault_dups: Cell::new(0),
                        fault_delays: Cell::new(0),
                    };
                    let out = run_rank(world, &mut ctx, f);
                    world
                        .msg_counter
                        .fetch_add(ctx.sent_messages, Ordering::Relaxed);
                    if let Some(fault) = &world.fault {
                        fault
                            .drops
                            .fetch_add(ctx.fault_drops.get(), Ordering::Relaxed);
                        fault
                            .dups
                            .fetch_add(ctx.fault_dups.get(), Ordering::Relaxed);
                        fault
                            .delays
                            .fetch_add(ctx.fault_delays.get(), Ordering::Relaxed);
                    }
                    if world.record_protocol {
                        world.protocol_logs.lock()[rank] = ctx.protocol_log.take();
                    }
                    out
                })
            })
            .collect();
        let mut joined: Vec<std::thread::Result<Option<R>>> =
            handles.into_iter().map(|h| h.join()).collect();
        // Re-raise a rank thread's panic with its original payload so
        // protocol diagnostics survive to the caller: the panic that
        // poisoned the world, not a peer's poison panic.
        let first = world
            .barrier
            .poisoned_by()
            .or_else(|| joined.iter().position(std::thread::Result::is_err));
        if let Some(rank) = first {
            if let Err(payload) = joined.swap_remove(rank) {
                std::panic::resume_unwind(payload);
            }
        }
        joined.into_iter().map(|r| r.ok().flatten()).collect()
    });
    let crash = world.fault.as_ref().and_then(|f| *f.crashed.lock());
    let faults = FaultStats {
        packets_dropped: world
            .fault
            .as_ref()
            .map_or(0, |f| f.drops.load(Ordering::Relaxed)),
        packets_duplicated: world
            .fault
            .as_ref()
            .map_or(0, |f| f.dups.load(Ordering::Relaxed)),
        packets_delayed: world
            .fault
            .as_ref()
            .map_or(0, |f| f.delays.load(Ordering::Relaxed)),
        crashes: u64::from(crash.is_some()),
    };
    if let Some(cp) = crash {
        return RunOutcome::Crashed {
            rank: cp.rank,
            at_clock: cp.at_clock,
            faults,
        };
    }
    let stats = CommStats {
        messages: world.msg_counter.load(Ordering::Relaxed),
        packets: world.packet_counter.load(Ordering::Relaxed),
    };
    let logs = std::mem::take(&mut *world.protocol_logs.lock());
    let results = results
        .into_iter()
        .enumerate()
        .map(|(rank, out)| {
            out.unwrap_or_else(|| unreachable!("rank {rank} produced no output without a crash"))
        })
        .collect();
    RunOutcome::Completed {
        results,
        stats,
        logs,
        faults,
    }
}

/// Installs (once per process) a delegating panic hook that suppresses
/// the default stderr report for the runtime's own panic payloads —
/// [`SimulatedCrash`] and [`RankLost`] are caught and handled by the
/// rank-thread wrappers, so printing them would spam every chaos test,
/// and a [`WorldPoisoned`] peer would bury the panic that poisoned the
/// world — while every other panic keeps the previous hook's behavior.
fn install_panic_silencer() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<SimulatedCrash>() || p.is::<RankLost>() || p.is::<WorldPoisoned>() {
                return;
            }
            prev(info);
        }));
    });
}

/// One rank's execution. Injected fault panics resolve to `None`: the
/// crash victim ([`SimulatedCrash`]) first joins one more rendezvous —
/// the implicit `Shutdown` entry — so the survivors' next collective
/// observes the out-of-step `Shutdown` slot and diagnoses the loss
/// ([`RankLost`]) instead of deadlocking on a barrier that would never
/// fill. All ranks leave that rendezvous by unwinding before its
/// trailing barrier, keeping the per-barrier arrival counts consistent.
/// Any other panic poisons the world's barrier on its way out, so the
/// peers unwind from their next collective instead of blocking on it
/// forever.
fn run_rank<M, R, F>(world: &World<M>, ctx: &mut RankCtx<'_, M>, f: &F) -> Option<R>
where
    M: Send,
    F: Fn(&mut RankCtx<'_, M>) -> R + Sync,
{
    let out = catch_unwind(AssertUnwindSafe(|| {
        let out = f(&mut *ctx);
        if world.check_protocol || world.record_protocol {
            // A rank that returned while a peer is still in a collective
            // would leave that peer blocked on the barrier forever;
            // entering Shutdown here turns the drift into a
            // protocol-mismatch diagnostic (and stamps the recorded
            // sequences' terminator). Under a fault plan it also
            // diagnoses a peer that crashed at the program's final sync.
            ctx.enter_collective(CollectiveKind::Shutdown, Location::caller());
        }
        out
    }));
    match out {
        Ok(out) => Some(out),
        Err(payload) if payload.is::<SimulatedCrash>() => {
            // The victim: join the detection rendezvous (the survivors'
            // next collective) exactly once, swallowing the RankLost it
            // raises for us too.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                ctx.enter_collective(CollectiveKind::Shutdown, Location::caller());
            }));
            None
        }
        Err(payload) if payload.is::<RankLost>() => None,
        Err(payload) => {
            install_panic_silencer();
            world.barrier.poison(ctx.rank);
            std::panic::resume_unwind(payload)
        }
    }
}

/// [`run_with_config`] with the default coalescing capacity.
///
/// ```
/// // Each rank sends its id to rank 0 and everyone reduces a sum.
/// let out = louvain_runtime::run::<u32, _, _>(4, |ctx| {
///     let rank = ctx.rank() as u32;
///     let mut ex = ctx.exchange();
///     ex.send(0, rank);
///     let mut received = 0u32;
///     ex.finish(|m| received += m);
///     let total = ctx.allreduce_sum_u64(u64::from(rank));
///     (received, total)
/// });
/// assert_eq!(out[0], (0 + 1 + 2 + 3, 6)); // rank 0 got all ids
/// assert_eq!(out[2], (0, 6));             // others got none
/// ```
pub fn run<M, R, F>(ranks: usize, f: F) -> Vec<R>
where
    M: Send,
    R: Send,
    F: Fn(&mut RankCtx<'_, M>) -> R + Sync,
{
    run_with_config(RuntimeConfig::new(ranks), f).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_get_distinct_ids_in_order() {
        let out = run::<(), _, _>(4, |ctx| (ctx.rank(), ctx.num_ranks()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_works() {
        let out = run::<(), _, _>(1, |ctx| ctx.rank());
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let out = run::<(), _, _>(8, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank must see all 8 increments.
            counter.load(Ordering::SeqCst)
        });
        assert!(out.iter().all(|&c| c == 8), "{out:?}");
    }

    #[test]
    fn a_rank_panic_poisons_the_world_instead_of_hanging() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        // The plans: fault-free, transport faults only, and a crash
        // scheduled past the end of the run.
        let transport = FaultPlan {
            drop_one_in: 3,
            delay_one_in: 5,
            ..FaultPlan::default()
        };
        let plans = [FaultPlan::default(), transport, FaultPlan::crash(0, 1e18)];
        for plan in plans {
            for ranks in [2usize, 4] {
                let victim = ranks - 1;
                let (tx, rx) = channel();
                let plan_name = format!("{plan:?}");
                let plan = plan.clone();
                let solver = std::thread::spawn(move || {
                    let body = |ctx: &mut RankCtx<'_, u32>| {
                        let rank = ctx.rank();
                        let _ = ctx.allreduce_sum(1.0);
                        let mut ex = ctx.exchange();
                        ex.send((rank + 1) % ranks, 1);
                        assert_ne!(rank, victim, "rank {victim} failed mid-phase");
                        ex.finish(|_| ());
                        ctx.barrier();
                    };
                    let run = std::panic::catch_unwind(|| {
                        drop(run_with_config_faulted(
                            RuntimeConfig::new(ranks),
                            &plan,
                            body,
                        ));
                    });
                    let message = run.map_err(|p| p.downcast_ref::<String>().cloned());
                    let _ = tx.send(message);
                });
                let got = rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| {
                        panic!("{ranks} ranks, plan {plan_name}: the world hung after a rank panic")
                    });
                solver
                    .join()
                    .expect("the solver thread catches the world's panic");
                let message = got.expect_err("the victim's panic must reach the caller");
                assert!(
                    message.is_some_and(|m| m.contains(&format!("rank {victim} failed mid-phase"))),
                    "{ranks} ranks, plan {plan_name}: the caller must see the victim's own payload"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = run::<(), _, _>(0, |_| ());
    }
}
