//! The distributed-memory parallel Louvain algorithm (Algorithms 2–5 of
//! the paper).
//!
//! Data layout per rank (Section IV-A):
//!
//! * vertices are 1D-partitioned by `v mod p` ([`ModuloPartition`]);
//! * `In_Table` holds the in-edges of locally owned vertices, keyed
//!   `(src, dst)` — immutable during the inner loop, and only ever built
//!   in bulk and walked, so here a sorted arc array rather than a hash;
//! * `Out_Table` holds `w_{u→c}` for each local vertex `u` — here not
//!   stored but summed at scan time: an `OutTable` keeps `u`'s in-arcs
//!   with one cached community label per arc, and every reader folds the
//!   arcs labelled `c`;
//! * community `c` (a global id) is owned by rank `c mod p`, which keeps
//!   its `Σ_tot` and member count.
//!
//! Per inner iteration (REFINE, Algorithm 4): gather a `Σ_tot` snapshot,
//! scan the Out-Table for each vertex's best gain `m_u` (FIND BEST
//! COMMUNITY), derive the move threshold `ΔQ̂` from the ε schedule via a
//! global log-histogram of the gains (Section IV-B), apply the thresholded
//! moves with `Σ_tot` delta messages (UPDATE COMMUNITY INFORMATION),
//! re-propagate state, and compute the new modularity. Q reads only
//! `Σ_c Σ_in(c)`, which is `Σ_u w(u, c_u)`, so each rank sums its own
//! vertices' own-row weights and no `Σ_in` message is sent.
//!
//! STATE PROPAGATION is **delta-compressed** (DESIGN.md §10): the arc
//! label cache is built once per level from purely local data (every
//! level starts with identity labels, so no communication is needed),
//! and each inner iteration thereafter broadcasts only `(vertex,
//! new_community)` pairs for vertices that actually migrated. Receivers
//! relabel the migrated vertex's arcs through the per-level `OutTable`;
//! no row weight is stored, so there is nothing to patch, and a row's
//! weight is a fresh sum under the current labels whenever it is read.
//! The cache is invalidated (rebuilt) at every GRAPH RECONSTRUCTION. The
//! announcements ride the UPDATE exchange alongside the `Σ_tot` deltas,
//! so STATE PROPAGATION adds no superstep of its own, and each rank's
//! modularity share and move count ride the next `Σ_tot` snapshot
//! allgather: an inner iteration is four supersteps at most. An
//! iteration in which no vertex migrates anywhere sends zero
//! state-propagation messages, and every rank leaves the inner loop on
//! the move count that allgather sums.
//!
//! The FIND BEST / UPDATE sweeps are **frontier-scheduled** (DESIGN.md
//! §13): each rank keeps a scan frontier over its local vertices
//! ([`crate::frontier`]), seeded with everyone at level start, and
//! re-scans only vertices whose scan *inputs* could have changed —
//! local neighbors of received state-propagation deltas (remote
//! re-activation piggybacked on the §10 protocol via the `OutTable`
//! source index) and vertices whose own or adjacent community changed
//! in the replicated `Σ_tot`/size snapshots. Everyone else's cached
//! `m_u`/`best` decision is bitwise what a fresh scan would compute, so
//! an ε-throttled vertex waits on the *eligible list* (every vertex with
//! a positive cached gain) — reachable by the UPDATE sweep, but never
//! re-scanned while its inputs hold still. A scan and a patch of a
//! cached decision run the same fold. A rank whose frontier drained
//! skips the scan entirely; every
//! collective stays outside the frontier conditionals, so lockstep is
//! preserved and the output is bit-identical to the full scan at the
//! default configuration.
//!
//! GRAPH RECONSTRUCTION (Algorithm 5) compacts surviving community ids,
//! then turns the Out-Table into the next level's In-Table with a single
//! all-to-all: entry `((u, c), w)` becomes message `((c'_new, c_new), w)`
//! to the owner of `c_new` — "transforming the graph relabeling problem
//! into an all-to-all communication with hashing".
//!
//! Determinism note: a perturb seed permutes message delivery at will
//! (DESIGN.md §8), so every floating-point accumulation over received
//! messages is made a function of the message *multiset* — a delta
//! batch only rewrites labels, each
//! vertex at most once, so its result is order-free; the Out-Table rows
//! fold their arcs in ascending source order under those labels; and the
//! In-Table loading, `Σ_tot` update and reconstruction accumulations
//! buffer and sort their contributions before folding, while reductions
//! fold in rank order. Runs are therefore
//! bit-reproducible for *arbitrary* weights, not just the
//! integer-valued ones the generators emit — which is what lets the
//! frontier/full-scan equivalence (DESIGN.md §13) be asserted bitwise
//! on mixed-magnitude inputs.
//!
//! This file holds the driver (Algorithm 2). The phases live in
//! submodules: `level` (a level's state and the loading superstep),
//! `out_table` (the Out-Table and its label cache), `inner_loop` (REFINE,
//! Algorithm 4, with STATE PROPAGATION), `reconstruct` (Algorithm 5) and
//! `resume` (the checkpoint glue).

mod inner_loop;
mod level;
mod out_table;
mod reconstruct;
mod resume;

pub(crate) use inner_loop::announce_migrations;
pub(crate) use level::build_initial_level;
pub(crate) use out_table::{group_by_index, OutTable, RowScratch};

use crate::checkpoint::CheckpointStore;
use crate::frontier::FrontierStats;
use crate::heuristic::{EpsilonSchedule, MIN_Q_IMPROVEMENT};
use crate::result::{LevelInfo, LouvainResult};
use crate::timing::{
    CommBreakdown, InnerIterationTiming, Phase, PhaseMeter, PhaseTimers, SimBreakdown, Stopwatch,
};
use inner_loop::refine;
use level::{fresh_rank_state, RankLevel};
use louvain_graph::edgelist::EdgeList;
use louvain_graph::partition::{load_imbalance, AnyPartition, PartitionStrategy};
use louvain_graph::partition1d::ModuloPartition;
use louvain_metrics::Partition;
use louvain_runtime::{
    run_with_config_faulted, CollectiveKind, CommStats, FaultPlan, FaultStats, RankCtx, RunOutcome,
    RuntimeConfig,
};
use louvain_trace::{Event, RankTrace};
use reconstruct::reconstruct;
use resume::{take_resume_state, write_level_checkpoint};
use std::time::Duration;

/// 16-byte POD message: two ids and a weight. The meaning of `(a, b, w)`
/// depends on the phase (edge, state triple, or Σ_tot delta).
#[derive(Clone, Copy, Debug)]
pub struct Msg {
    /// First id (source vertex / community).
    pub a: u32,
    /// Second id (destination vertex / community).
    pub b: u32,
    /// Weight or delta.
    pub w: f64,
}

/// Configuration of the distributed solver.
///
/// The default configuration reproduces the paper's algorithm with the
/// frontier-scheduled local-move phase (DESIGN.md §13) producing output
/// bit-identical to a full scan:
///
/// ```
/// use louvain_core::parallel::ParallelConfig;
///
/// let cfg = ParallelConfig::with_ranks(8);
/// assert!(cfg.use_heuristic); // the ε throttle of Equation 7
///
/// // The Figure-4 strawman: the same solver without the heuristic,
/// // iteration-capped so its oscillation terminates.
/// let strawman = ParallelConfig {
///     use_heuristic: false,
///     max_inner_iterations: 12,
///     max_levels: 6,
///     ..ParallelConfig::with_ranks(8)
/// };
/// assert_ne!(strawman, cfg);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelConfig {
    /// Simulated ranks (compute nodes).
    pub ranks: usize,
    /// Coalescing capacity of the messaging layer (messages per packet).
    pub coalesce_capacity: usize,
    /// The ε schedule of the convergence heuristic (Equation 7).
    pub schedule: EpsilonSchedule,
    /// When `false`, every positive-gain vertex moves each iteration —
    /// the "parallel without heuristic" ablation of Figure 4.
    pub use_heuristic: bool,
    /// Inner-loop iteration cap per level; at least 1.
    pub max_inner_iterations: usize,
    /// Maximum hierarchy levels; at least 1.
    pub max_levels: usize,
    /// Schedule-perturbation seed forwarded to the runtime (see
    /// [`louvain_runtime::RuntimeConfig::perturb_seed`]): `Some(seed)`
    /// adversarially permutes message delivery order in every exchange
    /// phase. The solver must produce bit-identical output regardless.
    pub perturb_seed: Option<u64>,
    /// When `true`, every rank records the sequence of collectives it
    /// enters; the observed sequences come back in
    /// [`ParallelResult::protocol_logs`] and must be accepted by the
    /// static protocol spec (DESIGN.md §11).
    pub record_protocol: bool,
    /// Test oracle: when `true`, every vertex is re-activated every
    /// iteration, reducing the frontier scheduler to the full scan the
    /// paper describes. Output is bit-identical either way (the frontier
    /// invariant of DESIGN.md §13); only the scan work and the
    /// `frontier.*` counters differ. The unit tests compare the two paths
    /// across perturb seeds on mixed-magnitude weighted graphs.
    #[cfg(test)]
    full_rescan: bool,
    /// Checkpoint cadence: snapshot every rank's solver state at every
    /// `checkpoint_every_level`-th level boundary (DESIGN.md §14).
    /// `0` (the default) disables checkpointing entirely — no extra
    /// barrier, no trace events, byte-identical behavior to a build
    /// without the subsystem.
    pub checkpoint_every_level: usize,
    /// Deterministic fault plan forwarded to the runtime (DESIGN.md §14):
    /// seeded transport faults (masked — results must not change) and
    /// scheduled rank crashes keyed on the simulated clock. On a crash
    /// the driver rewinds every rank to the last checkpoint, disarms the
    /// fired crash, and re-executes; [`ParallelResult::recovery_replays`]
    /// counts the restarts. The empty plan (the default) is the
    /// fault-free path: the runtime builds no fault state for it.
    pub fault_plan: FaultPlan,
    /// Vertex-ownership strategy (DESIGN.md §15). The default
    /// [`PartitionStrategy::Modulo`] is the paper's 1D modulo
    /// decomposition and adds **zero** collectives — results are
    /// bit-identical to a build without the pluggable-partition layer.
    /// [`PartitionStrategy::ArcBalanced`] equalizes per-rank arc load
    /// with a greedy LPT assignment built from one allreduced load
    /// vector, and repartitions the coarsened super-graph by
    /// super-vertex arc weight at every level boundary (the
    /// repartitioning rides the reconstruction all-to-all — no extra
    /// data exchange). Either strategy is fully deterministic
    /// (bit-identical across runs and perturb seeds), but the two may
    /// legitimately disagree with each other: the UPDATE sweep's
    /// Gauss-Seidel move ordering follows ownership, so a different
    /// partition is a different (equally valid) sequentialization.
    pub partition: PartitionStrategy,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            ranks: 4,
            coalesce_capacity: 1024,
            schedule: EpsilonSchedule::default(),
            use_heuristic: true,
            max_inner_iterations: 32,
            max_levels: 16,
            perturb_seed: None,
            record_protocol: false,
            #[cfg(test)]
            full_rescan: false,
            checkpoint_every_level: 0,
            fault_plan: FaultPlan::default(),
            partition: PartitionStrategy::default(),
        }
    }
}

impl ParallelConfig {
    /// Default configuration on `ranks` ranks.
    #[must_use]
    pub fn with_ranks(ranks: usize) -> Self {
        Self {
            ranks,
            ..Self::default()
        }
    }
}

/// Output of the distributed solver: the hierarchy result plus timing and
/// communication measurements.
#[derive(Clone, Debug)]
pub struct ParallelResult {
    /// Hierarchy result (levels, partitions, final modularity).
    pub result: LouvainResult,
    /// Per-phase times, critical path (max) across ranks.
    pub timers: PhaseTimers,
    /// Per-inner-iteration breakdown of the first level (rank 0) —
    /// Figure 8b.
    pub inner_timings: Vec<InnerIterationTiming>,
    /// Wall time of the whole run.
    pub total_time: Duration,
    /// Wall time of the first level (used for TEPS, Section V-E).
    pub first_level_time: Duration,
    /// Communication counters.
    pub comm: CommStats,
    /// Announcements state propagation collapsed, summed across ranks:
    /// arcs of a migrated vertex whose owner rank the same sweep had
    /// already told (DESIGN.md §10). Counted like
    /// [`ParallelResult::comm`], over the final attempt only.
    pub dedup_hits: u64,
    /// Undirected input edges.
    pub input_edges: usize,
    /// BSP-simulated time of the whole run, in work units (see
    /// `louvain-runtime`'s simulated clock; used for the scaling studies
    /// because wall clock cannot show speedup when simulated ranks
    /// timeshare fewer physical cores).
    pub sim_total_units: f64,
    /// BSP-simulated time of the first level, in work units.
    pub sim_first_level_units: f64,
    /// Remote messages per algorithm phase, summed across ranks.
    pub comm_breakdown: CommBreakdown,
    /// Per-phase simulated-clock deltas (Fig. 8 under the cost model).
    /// Identical on every rank; folded with an element-wise max. The
    /// loading cell includes the initial 2m reduction. The sum is slightly
    /// below [`ParallelResult::sim_total_units`] because the driver's
    /// bookkeeping syncs (first-level and final clock reads, checkpoint
    /// barriers) belong to no phase.
    pub sim_breakdown: SimBreakdown,
    /// BSP synchronization points per rank (identical on every rank by
    /// the collective-ordering invariant; rank 0's count is reported).
    pub syncs: u64,
    /// Payload bytes pushed into remote packets, summed across ranks.
    pub bytes_sent: u64,
    /// Per-rank event traces, in rank order. Empty unless the `trace`
    /// feature (on by default) enabled `louvain-trace/record`. Traces are
    /// keyed on the simulated clock and are bit-identical across runs and
    /// across `perturb_seed`s.
    pub traces: Vec<RankTrace>,
    /// Per-rank observed collective sequences, in rank order. Empty
    /// unless [`ParallelConfig::record_protocol`] was set. All ranks
    /// record the identical sequence (the runtime's shadow checker
    /// enforces lockstep), and the sequence must be accepted by the
    /// static protocol spec of DESIGN.md §11.
    pub protocol_logs: Vec<Vec<CollectiveKind>>,
    /// Frontier-scheduling counters, summed across ranks, levels and
    /// inner iterations: vertices scanned, vertices re-activated by a
    /// wake rule, and vertex scans skipped versus the full-scan
    /// schedule (DESIGN.md §13). `active_vertices + skipped_scans` is
    /// exactly the full scan's work, so the saving is directly readable.
    pub frontier: FrontierStats,
    /// Frontier occupancy of the **first level**, one entry per inner
    /// iteration, summed across ranks: how many vertices the FIND BEST
    /// sweep visited in that iteration (iteration 1 is the whole vertex
    /// set). Schedule-invariant, so it is safe to snapshot
    /// (`BENCH_louvain.json` carries it per workload).
    pub frontier_occupancy: Vec<u64>,
    /// How many times the driver restarted the world from the last
    /// checkpoint after a scheduled rank crash (DESIGN.md §14). Always 0
    /// when [`ParallelConfig::fault_plan`] schedules no crash, as the
    /// empty plan does.
    pub recovery_replays: u64,
    /// Per-rank checkpoints written across all attempts (0 when
    /// [`ParallelConfig::checkpoint_every_level`] is 0).
    pub checkpoints_taken: u64,
    /// Total rendered bytes of all checkpoints written (cumulative).
    pub checkpoint_bytes: u64,
    /// Simulated clock at each completed level boundary of the final
    /// (successful) attempt, in work units — the aiming grid for crash
    /// injection: a crash scheduled just past `level_boundary_clocks[i]`
    /// fires in level `i + 1`. Identical on every rank; rank 0's reading.
    pub level_boundary_clocks: Vec<f64>,
    /// Fault-injection counters summed over every attempt (all zero
    /// under the empty plan).
    pub faults: FaultStats,
    /// Per-rank per-phase **charged work** in simulated units, in rank
    /// order (DESIGN.md §15). Unlike [`ParallelResult::sim_breakdown`]
    /// — which is the globally synchronized clock, identical on every
    /// rank because each superstep advances by the max over ranks —
    /// these are each rank's *own* charges, so per-phase load skew is
    /// directly readable: `max_r(work[r].find_best)` is the straggler
    /// term the arc-balanced partition exists to shrink.
    pub per_rank_work_breakdown: Vec<SimBreakdown>,
    /// Per-rank arc load, in rank order: local In-Table entries summed
    /// over the levels each rank processed. This is the find-best scan
    /// and state-propagation volume a rank owns, i.e. the quantity the
    /// partition strategy balances.
    pub arc_loads: Vec<u64>,
    /// Max-over-mean skew of [`ParallelResult::arc_loads`]: `1.0` is
    /// perfectly balanced, `ranks` is everything-on-one-rank. The BSP
    /// clock advances by per-superstep maxima, so this ratio is a
    /// direct proxy for simulated time lost to partition skew.
    pub imbalance: f64,
}

impl ParallelResult {
    /// Traversed edges per second: input edges / first-level time
    /// (the paper's Figure 9 metric), measured on the wall clock.
    #[must_use]
    pub fn teps(&self) -> f64 {
        self.edges_per(self.first_level_time.as_secs_f64())
    }

    /// TEPS under the BSP cost model: input edges per simulated second,
    /// with one work unit costing `ns_per_unit` nanoseconds. The
    /// benchmarks' 20 ns is an uncalibrated assumption: a traced
    /// `amazon-1r` run measured 37–88 ns per charged unit, by phase
    /// (ROADMAP item 5).
    #[must_use]
    pub fn teps_simulated(&self, ns_per_unit: f64) -> f64 {
        self.edges_per(self.sim_first_level_units * ns_per_unit * 1e-9)
    }

    /// Input edges per `t` seconds; 0.0 for a non-positive `t`.
    fn edges_per(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            self.input_edges as f64 / t
        }
    }

    /// Whole-run simulated time at `ns_per_unit` nanoseconds per unit.
    #[must_use]
    pub fn simulated_time(&self, ns_per_unit: f64) -> Duration {
        Duration::from_secs_f64(self.sim_total_units * ns_per_unit * 1e-9)
    }
}

/// The distributed-memory parallel Louvain solver.
///
/// ```
/// use louvain_core::parallel::{ParallelConfig, ParallelLouvain};
/// use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
///
/// let (edges, _truth) = generate_planted(
///     &PlantedConfig { communities: 4, community_size: 25, p_in: 0.4, p_out: 0.01 },
///     7,
/// );
/// let r = ParallelLouvain::new(ParallelConfig::with_ranks(3)).run(&edges);
/// assert_eq!(r.result.final_partition.num_communities(), 4);
/// assert!(r.result.final_modularity > 0.5);
/// assert!(r.comm.messages > 0); // it really communicated
/// ```
#[derive(Clone, Debug, Default)]
pub struct ParallelLouvain {
    cfg: ParallelConfig,
}

/// What each rank reports back to the driver.
struct RankOutput {
    /// The level loop's final state. Its last level is already freed:
    /// the driver reads only the carried fields.
    st: LoopState,
    /// Per-phase wall time, messages, clock and charged work.
    meter: PhaseMeter,
    first_level_time: Duration,
    sim_first_level_units: f64,
    sim_total_units: f64,
    syncs: u64,
    bytes_sent: u64,
    /// Simulated clock at each completed level boundary (identical on
    /// every rank; only levels executed by this attempt — a resumed
    /// attempt reports boundaries from its restart point on).
    level_boundary_clocks: Vec<f64>,
    /// Local In-Table entries summed over the levels this attempt
    /// processed: the per-rank arc load the partition strategy balances.
    arc_load: u64,
    trace: Option<RankTrace>,
}

/// How the input graph reaches the ranks.
enum RunInput<'a> {
    /// Every rank scans the same shared edge list and keeps its share —
    /// the analog of a parallel read of a replicated file.
    Replicated(&'a EdgeList),
    /// Rank `r` contributes `f(r)`, an arbitrary disjoint slice of the
    /// global edge stream (a generator chunk or file shard); arcs are
    /// routed to their owners through the runtime. Duplicate edges
    /// accumulate as weight, so raw generator streams are accepted.
    Parts {
        num_vertices: usize,
        f: &'a (dyn Fn(usize) -> EdgeList + Sync),
    },
}

impl ParallelLouvain {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(cfg: ParallelConfig) -> Self {
        assert!(
            cfg.ranks >= 1,
            "ParallelLouvain needs at least one rank, got 0"
        );
        // A zero cap would return the singleton partition with no level
        // run to measure its modularity.
        assert!(
            cfg.max_levels >= 1,
            "ParallelLouvain needs max_levels >= 1, got 0"
        );
        assert!(
            cfg.max_inner_iterations >= 1,
            "ParallelLouvain needs max_inner_iterations >= 1, got 0"
        );
        Self { cfg }
    }

    /// Runs the distributed algorithm on `edges` and assembles the global
    /// result.
    #[must_use]
    pub fn run(&self, edges: &EdgeList) -> ParallelResult {
        let edges = edges.scaled_to_band();
        self.run_input(RunInput::Replicated(&edges), edges.num_vertices())
    }

    /// Distributed loading: rank `r` ingests `parts(r)` (e.g. an R-MAT
    /// generator chunk) and the arcs are routed to their owning ranks
    /// through the messaging layer — no rank ever holds the whole graph.
    /// This is how the paper's weak-scaling runs ingest their per-node
    /// generator output.
    ///
    /// # Panics
    ///
    /// When a rank's chunk has a largest weight outside [2^-64, 2^64]:
    /// no rank sees the whole input to scale it (see
    /// [`louvain_graph::band_scale`]), so scale the weights first.
    #[must_use]
    pub fn run_from_parts<F>(&self, num_vertices: usize, parts: F) -> ParallelResult
    where
        F: Fn(usize) -> EdgeList + Sync,
    {
        self.run_input(
            RunInput::Parts {
                num_vertices,
                f: &parts,
            },
            num_vertices,
        )
    }

    fn run_input(&self, input: RunInput<'_>, n: usize) -> ParallelResult {
        let cfg = self.cfg.clone();
        let t0 = Stopwatch::start();
        let input = &input;
        let rt_cfg = RuntimeConfig {
            coalesce_capacity: cfg.coalesce_capacity,
            perturb_seed: cfg.perturb_seed,
            record_protocol: cfg.record_protocol,
            ..RuntimeConfig::new(cfg.ranks)
        };
        let store = CheckpointStore::new(cfg.ranks);
        let store = &store;
        let mut recovery_replays = 0u64;
        let mut faults = FaultStats::default();
        // Run until the plan is exhausted (the empty plan completes on
        // the first attempt). Each crash is disarmed after it fires (the
        // machine "comes back"), and the next attempt resumes every rank
        // from its checkpoint slot — or from scratch if no checkpoint was
        // taken yet.
        let mut plan = cfg.fault_plan.clone();
        let (mut rank_outputs, comm, protocol_logs) = loop {
            let outcome = run_with_config_faulted::<Msg, RankOutput, _>(rt_cfg, &plan, |ctx| {
                rank_main(ctx, input, &cfg, store)
            });
            match outcome {
                RunOutcome::Completed {
                    results,
                    stats,
                    logs,
                    faults: attempt,
                } => {
                    faults = faults.sum(&attempt);
                    break (results, stats, logs);
                }
                RunOutcome::Crashed {
                    rank,
                    at_clock,
                    faults: attempt,
                } => {
                    faults = faults.sum(&attempt);
                    recovery_replays += 1;
                    plan.disarm_crash(rank, at_clock);
                }
            }
        };
        let total_time = t0.elapsed();

        // Assemble the global partition from per-rank original labels.
        // Each rank reports its own level-0 vertex set (`orig_vertices`)
        // rather than the driver re-deriving it: under the arc-balanced
        // strategy the level-0 ownership is a function of the allreduced
        // load vector, which only the ranks ever see.
        let assemble = |l: usize| -> Partition {
            let mut raw = vec![0u32; n];
            for out in &rank_outputs {
                for (&v, &c) in out.st.orig_vertices.iter().zip(&out.st.level_orig_comms[l]) {
                    raw[v as usize] = c;
                }
            }
            Partition::from_labels(&raw)
        };
        let level_partitions: Vec<Partition> = (0..rank_outputs[0].st.level_orig_comms.len())
            .map(assemble)
            .collect();

        let levels = rank_outputs[0].st.levels.clone();
        // Unlike the sequential algorithm, stale-state moves can make a
        // later level slightly worse; report the best level as the final
        // answer (the paper prints C and Q per outer loop). Every run
        // completes a level (`max_levels >= 1`, and restore refuses a
        // checkpoint without one), so `best_level` indexes one.
        let by_q = |a: &usize, b: &usize| levels[*a].modularity.total_cmp(&levels[*b].modularity);
        let best_level = (0..levels.len()).max_by(by_q).unwrap_or_default();
        let final_modularity = levels[best_level].modularity;
        let timers = rank_outputs
            .iter()
            .fold(PhaseTimers::new(), |acc, r| acc.max(&r.meter.timers));
        let first_level_time = rank_outputs
            .iter()
            .map(|r| r.first_level_time)
            .max()
            .unwrap_or_default();
        let final_partition = level_partitions[best_level].clone();
        let inner_timings = std::mem::take(&mut rank_outputs[0].meter.inner);
        let sim_total_units = rank_outputs[0].sim_total_units;
        let sim_first_level_units = rank_outputs[0].sim_first_level_units;
        let comm_breakdown = rank_outputs
            .iter()
            .fold(CommBreakdown::default(), |acc, r| acc.sum(&r.meter.comm));
        let sim_breakdown = rank_outputs
            .iter()
            .fold(SimBreakdown::default(), |acc, r| acc.max(&r.meter.sim));
        let syncs = rank_outputs[0].syncs;
        let bytes_sent = rank_outputs.iter().map(|r| r.bytes_sent).sum();
        let dedup_hits = rank_outputs.iter().map(|r| r.meter.dedup_hits).sum();
        let frontier = rank_outputs
            .iter()
            .fold(FrontierStats::default(), |acc, r| {
                acc.sum(&r.st.frontier_stats)
            });
        // Iterations are global lockstep, so every rank recorded the same
        // number of first-level occupancy entries; fold element-wise.
        let mut frontier_occupancy = vec![0u64; rank_outputs[0].st.frontier_occupancy.len()];
        for r in &rank_outputs {
            for (acc, &v) in frontier_occupancy.iter_mut().zip(&r.st.frontier_occupancy) {
                *acc += v;
            }
        }
        let traces: Vec<RankTrace> = rank_outputs
            .iter_mut()
            .filter_map(|r| r.trace.take())
            .collect();
        // Partition-skew observability (DESIGN.md §15): per-rank arc
        // loads and own-charge breakdowns, in rank order, plus the
        // max/mean skew the BSP clock actually pays for.
        let per_rank_work_breakdown: Vec<SimBreakdown> =
            rank_outputs.iter().map(|r| r.meter.work).collect();
        let arc_loads: Vec<u64> = rank_outputs.iter().map(|r| r.arc_load).collect();
        let arc_loads_f64: Vec<f64> = arc_loads.iter().map(|&x| x as f64).collect();
        let imbalance = load_imbalance(&arc_loads_f64);

        ParallelResult {
            result: LouvainResult {
                levels,
                level_partitions,
                final_partition,
                final_modularity,
            },
            timers,
            inner_timings,
            total_time,
            first_level_time,
            comm,
            dedup_hits,
            input_edges: rank_outputs.iter().map(|r| r.st.input_edges).sum(),
            sim_total_units,
            sim_first_level_units,
            comm_breakdown,
            sim_breakdown,
            syncs,
            bytes_sent,
            traces,
            protocol_logs,
            frontier,
            frontier_occupancy,
            recovery_replays,
            checkpoints_taken: store.total_taken(),
            checkpoint_bytes: store.total_bytes(),
            level_boundary_clocks: rank_outputs[0].level_boundary_clocks.clone(),
            faults,
            per_rank_work_breakdown,
            arc_loads,
            imbalance,
        }
    }
}

/// Everything the level loop of [`rank_main`] carries across levels —
/// the unit of state a checkpoint persists and a restore reconstructs.
/// The loop resumes at level `levels.len()`.
struct LoopState {
    lvl: RankLevel,
    /// This rank's share of the input edge count (for TEPS).
    input_edges: usize,
    /// The global weight sum `s = 2m` (invariant across levels).
    s: f64,
    /// Level-0 local vertices of this rank, the domain of every
    /// `level_orig_comms` entry (persisted: a restore may not communicate,
    /// and a balanced level-0 partition is not re-derivable offline).
    orig_vertices: Vec<u32>,
    levels: Vec<LevelInfo>,
    /// Per completed level, each original vertex's community as a vertex
    /// of the next level; the last entry maps into the current level.
    level_orig_comms: Vec<Vec<u32>>,
    /// This rank's frontier counters, summed over levels and iterations.
    frontier_stats: FrontierStats,
    /// This rank's first-level frontier occupancy per inner iteration.
    frontier_occupancy: Vec<u64>,
}

/// The per-rank driver: Algorithm 2.
fn rank_main(
    ctx: &mut RankCtx<'_, Msg>,
    input: &RunInput<'_>,
    cfg: &ParallelConfig,
    store: &CheckpointStore,
) -> RankOutput {
    // Each rank is one OS thread: install this rank's trace buffer here
    // and drain it just before returning. Every emission below is keyed
    // on the simulated clock, never wall time.
    louvain_trace::install(ctx.rank());
    // Restart path (DESIGN.md §14): if a checkpoint exists, rebuild the
    // loop state from it — no loading, no 2m reduction; the restored
    // protocol-log prefix stands in for the skipped collectives. A fresh
    // world (or checkpointing off) takes the loading path.
    let mut st = match take_resume_state(store, cfg, ctx) {
        Some(st) => st,
        None => fresh_rank_state(ctx, input, cfg),
    };
    // Everything up to here (edge distribution + the 2m reduction) is the
    // loading superstep; the restore path did none of it.
    let mut meter = PhaseMeter::after_loading(ctx);
    let mut first_level_time = Duration::ZERO;
    let mut sim_first_level_units = 0.0f64;
    let mut level_boundary_clocks: Vec<f64> = Vec::new();
    let mut checkpoints_written = 0u64;
    let mut checkpoint_bytes_written = 0u64;
    let mut arc_load = 0u64;

    for level_idx in st.levels.len()..cfg.max_levels {
        // The rank's share of this level's arcs — the quantity the
        // partition strategy balances (the find-best scan and both
        // propagation directions are linear in it).
        arc_load += st.lvl.in_table.len() as u64;
        let level_start = Stopwatch::start();
        // The Out-Table is an index over the In-Table, which is
        // immutable within a level — its epoch IS the level. Graph
        // reconstruction replaced the In-Table, so every level builds a
        // fresh table (DESIGN.md §10).
        let mut table = OutTable::build(&st.lvl, ctx.rank());
        // --- REFINE (Algorithm 4) ---
        louvain_trace::emit_with(|| Event::Enter {
            phase: "refine",
            clock: ctx.sim_clock_units(),
        });
        let refine_start = Stopwatch::start();
        let (q, iterations, fractions, q_trace) =
            refine(ctx, &mut st, &mut table, cfg, &mut meter, level_idx == 0);
        meter.timers.add(Phase::Refine, refine_start.elapsed());
        louvain_trace::emit_with(|| Event::Exit {
            phase: "refine",
            clock: ctx.sim_clock_units(),
        });

        // --- GRAPH RECONSTRUCTION (Algorithm 5) ---
        louvain_trace::emit_with(|| Event::Enter {
            phase: "reconstruction",
            clock: ctx.sim_clock_units(),
        });
        let orig_comm = st.level_orig_comms.last().unwrap_or(&st.orig_vertices);
        let (next, orig_comm) = reconstruct(ctx, &st.lvl, &table, orig_comm, cfg);
        meter.lap(ctx, Phase::Reconstruction);
        louvain_trace::emit_with(|| Event::Exit {
            phase: "reconstruction",
            clock: ctx.sim_clock_units(),
        });
        if level_idx == 0 {
            first_level_time = level_start.elapsed();
            sim_first_level_units = ctx.sim_time_units();
        }

        let n_next = next.n();
        let no_reduction = n_next == st.lvl.n();
        let q_prev_level = st.levels.last().map_or(f64::NEG_INFINITY, |l| l.modularity);
        let improved = q - q_prev_level > MIN_Q_IMPROVEMENT;
        st.levels.push(LevelInfo {
            num_vertices: st.lvl.n(),
            num_communities: n_next,
            modularity: q,
            inner_iterations: iterations,
            move_fractions: fractions,
            q_trace,
        });
        st.level_orig_comms.push(orig_comm);
        st.lvl = next;
        // Every collective above completed, so this read is identical on
        // all ranks — the aiming grid for deterministic crash injection.
        level_boundary_clocks.push(ctx.sim_clock_units());
        if no_reduction || !improved {
            break;
        }
        if checkpoint_due(cfg, level_idx) {
            // The barrier makes the store update atomic with respect to
            // scheduled crashes: a rank can only die at a sim_sync, so a
            // pre-barrier crash unwinds everyone *at* this barrier
            // (before any slot is written), and once the barrier
            // completes there is no sync before the writes — every rank
            // writes level `level_idx + 1`, or none does. Checkpoint
            // serialization happens outside every traced phase region
            // (lint rule X1): it is bookkeeping, not algorithm work, and
            // must not distort the per-phase clock attribution.
            ctx.barrier();
            checkpoint_bytes_written += write_level_checkpoint(store, ctx, cfg, &st);
            checkpoints_written += 1;
        }
    }

    let sim_total_units = ctx.sim_time_units();
    // Final counter samples, then drain the buffer. All three values are
    // rank-local program-order quantities, so the trace stays
    // schedule-invariant.
    louvain_trace::count("runtime.syncs", ctx.sync_count());
    louvain_trace::count("runtime.bytes_sent", ctx.bytes_sent());
    louvain_trace::count("runtime.messages_sent", ctx.sent_messages());
    // Delta-mode counters (all rank-local program-order quantities, so
    // none of these can vary with the perturbed delivery schedule).
    louvain_trace::count(
        "delta.state_propagation_messages",
        meter.comm.state_propagation,
    );
    louvain_trace::count("delta.dedup_hits", meter.dedup_hits);
    // Frontier-scheduling counters (DESIGN.md §13). All three are
    // rank-local program-order tallies over schedule-invariant wake
    // sets, so the trace contract of §9 holds.
    louvain_trace::count(
        "frontier.active_vertices",
        st.frontier_stats.active_vertices,
    );
    louvain_trace::count("frontier.reactivations", st.frontier_stats.reactivations);
    louvain_trace::count("frontier.skipped_scans", st.frontier_stats.skipped_scans);
    // Partitioning observables (DESIGN.md §15): this rank's share of
    // the arc load the partition strategy balances and its level-0
    // vertex count — both rank-local program-order tallies, so the §9
    // trace contract holds under any partition. The repartition counter
    // is gated on the arc-balanced strategy, mirroring the chaos gating
    // below: the default modulo trace carries no counter for a
    // mechanism that never ran. That strategy repartitions at every
    // reconstruction, one per level boundary this attempt crossed.
    louvain_trace::count("partition.arc_load", arc_load);
    louvain_trace::count("partition.local_vertices", st.orig_vertices.len() as u64);
    if matches!(cfg.partition, PartitionStrategy::ArcBalanced) {
        let repartitions = level_boundary_clocks.len() as u64;
        louvain_trace::count("partition.repartitions", repartitions);
    }
    // Chaos observables (DESIGN.md §14), gated so a default-config run's
    // trace stays byte-identical to a build without the subsystem:
    // checkpoint counters only when a cadence is set, fault counters
    // only when a plan is injecting. All are rank-local program-order
    // tallies of deterministic decisions, so the §9 trace contract
    // holds.
    if cfg.checkpoint_every_level > 0 {
        louvain_trace::count("checkpoint.count", checkpoints_written);
        louvain_trace::count("checkpoint.bytes", checkpoint_bytes_written);
    }
    if ctx.fault_injection_active() {
        let f = ctx.fault_counters();
        louvain_trace::count("fault.packets_dropped", f.packets_dropped);
        louvain_trace::count("fault.packets_duplicated", f.packets_duplicated);
        louvain_trace::count("fault.packets_delayed", f.packets_delayed);
    }
    // Free the last level now rather than when the driver drops every
    // rank's output: nothing after the loop reads it.
    let empty = AnyPartition::Modulo(ModuloPartition::new(0, 1));
    st.lvl = RankLevel::singletons(empty, Vec::new(), 0);
    RankOutput {
        st,
        meter,
        first_level_time,
        sim_first_level_units,
        sim_total_units,
        syncs: ctx.sync_count(),
        bytes_sent: ctx.bytes_sent(),
        level_boundary_clocks,
        arc_load,
        trace: louvain_trace::take(),
    }
}

/// Whether the boundary at the end of `level_idx` is a checkpoint point.
fn checkpoint_due(cfg: &ParallelConfig, level_idx: usize) -> bool {
    cfg.checkpoint_every_level > 0 && (level_idx + 1).is_multiple_of(cfg.checkpoint_every_level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{SeqConfig, SequentialLouvain};
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
    use louvain_metrics::{modularity, similarity::nmi, Partition as P};

    pub(super) fn planted_graph(seed: u64) -> (EdgeList, Vec<u32>) {
        generate_planted(
            &PlantedConfig {
                communities: 6,
                community_size: 30,
                p_in: 0.35,
                p_out: 0.01,
            },
            seed,
        )
    }

    #[test]
    fn recovers_planted_communities_on_multiple_ranks() {
        let (el, truth) = planted_graph(3);
        for ranks in [1, 2, 4, 7] {
            let r = ParallelLouvain::new(ParallelConfig::with_ranks(ranks)).run(&el);
            let sim = nmi(&P::from_labels(&truth), &r.result.final_partition);
            assert!(sim > 0.9, "ranks={ranks}: NMI {sim}");
            assert!(r.result.final_modularity > 0.5, "ranks={ranks}");
        }
    }

    #[test]
    fn reported_modularity_matches_recomputation() {
        let (el, _) = planted_graph(5);
        let g = el.to_csr();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(3)).run(&el);
        let q = modularity(&g, &r.result.final_partition);
        assert!(
            (q - r.result.final_modularity).abs() < 1e-9,
            "reported {} vs recomputed {q}",
            r.result.final_modularity
        );
        // Every level's projected partition matches its reported Q.
        for (lvl, p) in r.result.levels.iter().zip(&r.result.level_partitions) {
            let ql = modularity(&g, p);
            assert!(
                (ql - lvl.modularity).abs() < 1e-9,
                "level Q {} vs projected {ql}",
                lvl.modularity
            );
        }
    }

    #[test]
    fn single_rank_close_to_sequential_quality() {
        let (el, _) = planted_graph(7);
        let g = el.to_csr();
        let q_seq = SequentialLouvain::new(SeqConfig::default())
            .run(&g)
            .final_modularity;
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(1)).run(&el);
        assert!(
            (r.result.final_modularity - q_seq).abs() < 0.05,
            "parallel {} vs sequential {q_seq}",
            r.result.final_modularity
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (el, _) = planted_graph(11);
        let a = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        let b = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        assert_eq!(a.result.final_modularity, b.result.final_modularity);
        assert_eq!(
            a.result.final_partition.labels(),
            b.result.final_partition.labels()
        );
    }

    #[test]
    fn an_empty_fault_plan_is_the_fault_free_path() {
        // The default plan and a seeded plan with every rate at zero both
        // inject nothing, so each run must equal the default run bit for
        // bit — traces included, which carry no `fault.*` counter.
        let (el, _) = planted_graph(23);
        let base = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        let is_fault_count =
            |e: &Event| matches!(e, Event::Count { name, .. } if name.starts_with("fault."));
        assert!(!base.traces.is_empty(), "traces record by default");
        assert!(!base
            .traces
            .iter()
            .any(|t| t.events.iter().any(is_fault_count)));
        let seeded = FaultPlan {
            seed: 0xC0FFEE,
            ..FaultPlan::default()
        };
        for plan in [FaultPlan::default(), seeded] {
            let r = ParallelLouvain::new(ParallelConfig {
                fault_plan: plan.clone(),
                ..ParallelConfig::with_ranks(4)
            })
            .run(&el);
            let q_bits = |r: &ParallelResult| {
                r.result
                    .levels
                    .iter()
                    .map(|l| l.modularity.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(q_bits(&r), q_bits(&base), "{plan:?}");
            assert_eq!(r.result.level_partitions, base.result.level_partitions);
            assert_eq!(r.traces, base.traces, "{plan:?}");
            assert_eq!(r.sim_total_units.to_bits(), base.sim_total_units.to_bits());
            assert_eq!(
                (r.comm, r.syncs, r.bytes_sent),
                (base.comm, base.syncs, base.bytes_sent)
            );
            assert_eq!(r.faults, FaultStats::default());
            assert_eq!(r.recovery_replays, 0);
        }
    }

    #[test]
    fn handles_self_loops_and_weights() {
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(0, 1, 2.0);
        b.add_edge(2, 3, 2.0);
        b.add_edge(1, 2, 0.5);
        b.add_edge(0, 0, 1.0);
        let el = b.build();
        let g = el.to_csr();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
        let q = modularity(&g, &r.result.final_partition);
        assert!((q - r.result.final_modularity).abs() < 1e-12);
        // 0,1 and 2,3 pair up.
        let p = &r.result.final_partition;
        assert_eq!(p.community(0), p.community(1));
        assert_eq!(p.community(2), p.community(3));
        assert_ne!(p.community(0), p.community(2));
    }

    #[test]
    fn more_ranks_than_vertices() {
        // Five of the eight ranks own no vertex and no community, so
        // their modularity share is 0.0; they still take part in every
        // exchange and reduction, under either partition.
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let el = b.build();
        let g = el.to_csr();
        for partition in [PartitionStrategy::Modulo, PartitionStrategy::ArcBalanced] {
            let r = ParallelLouvain::new(ParallelConfig {
                partition,
                ..ParallelConfig::with_ranks(8)
            })
            .run(&el);
            let p = &r.result.final_partition;
            assert!(p.num_communities() <= 3, "{partition:?}");
            assert_eq!(p.num_vertices(), 3, "{partition:?}: unlabelled vertices");
            assert!(p.is_valid(), "{partition:?}: labels {:?}", p.labels());
            let q = modularity(&g, p);
            assert!(
                (q - r.result.final_modularity).abs() <= 1e-12,
                "{partition:?}: reported {} vs recomputed {q}",
                r.result.final_modularity
            );
        }
    }

    #[test]
    fn teps_and_timers_populated() {
        let (el, _) = planted_graph(13);
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
        assert!(r.teps() > 0.0);
        assert!(r.first_level_time > Duration::ZERO);
        assert!(!r.inner_timings.is_empty());
        assert!(r.comm.messages > 0);
        // The four REFINE sub-phases are laps inside the REFINE span. The
        // cross-rank max fold may take each bucket from a different rank,
        // so the sum bound is checked on one rank, where the fold is exact.
        let one = ParallelLouvain::new(ParallelConfig::with_ranks(1)).run(&el);
        let sub = |t: &PhaseTimers| {
            [
                Phase::StatePropagation,
                Phase::FindBestCommunity,
                Phase::UpdateCommunity,
                Phase::ComputeModularity,
            ]
            .map(|p| t.get(p))
        };
        for t in [sub(&r.timers), sub(&one.timers)] {
            assert!(t.iter().all(|&d| d > Duration::ZERO), "{t:?}");
        }
        assert!(sub(&one.timers).iter().sum::<Duration>() <= one.timers.get(Phase::Refine));
    }

    #[test]
    fn comm_breakdown_accounts_for_all_messages() {
        let (el, _) = planted_graph(19);
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(3)).run(&el);
        let cb = r.comm_breakdown;
        // Every remote message belongs to exactly one phase.
        assert_eq!(cb.total(), r.comm.messages);
        // Delta mode: migrations did happen, so state propagation is not
        // silent, and its announcements are where dedup lives.
        assert!(cb.state_propagation > 0);
        assert!(r.dedup_hits > 0);
        // Strictly below a per-arc rebuild's volume of one message per
        // arc per inner iteration (robust to phase tuning, unlike comparing
        // against another phase's incidental message count).
        let arcs = 2 * el.num_edges() as u64;
        let inner: u64 = r
            .result
            .levels
            .iter()
            .map(|l| l.inner_iterations as u64)
            .sum();
        assert!(cb.state_propagation < arcs * inner);
        // Replicated loading sends nothing.
        assert_eq!(cb.loading, 0);
        // Distributed loading does.
        let chunks: Vec<EdgeList> = (0..3)
            .map(|r| {
                let mut b = louvain_graph::edgelist::EdgeListBuilder::new(el.num_vertices());
                for (i, e) in el.edges().iter().enumerate() {
                    if i % 3 == r {
                        b.add_edge(e.u, e.v, e.w);
                    }
                }
                b.build()
            })
            .collect();
        let r2 = ParallelLouvain::new(ParallelConfig::with_ranks(3))
            .run_from_parts(el.num_vertices(), |r| chunks[r].clone());
        assert!(r2.comm_breakdown.loading > 0);
        assert_eq!(r2.comm_breakdown.total(), r2.comm.messages);
    }

    #[test]
    fn no_migration_sends_no_state_propagation_messages() {
        // Two vertices with only self-loops: no vertex ever migrates, so
        // the inner loop runs exactly one iteration in which (a) the
        // Out-Table is built from local data and (b) the UPDATE exchange
        // carries no announcement — zero state-propagation messages —
        // and every rank leaves the loop on the move count that rides
        // the closing snapshot allgather.
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 0, 1.0);
        b.add_edge(1, 1, 1.0);
        let el = b.build();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
        assert_eq!(r.comm_breakdown.state_propagation, 0);
        assert_eq!(r.result.levels.len(), 1);
        assert_eq!(r.result.levels[0].inner_iterations, 1);
        // The run still synced (collectives closed every superstep).
        assert!(r.syncs > 0);
        let g = el.to_csr();
        let q = modularity(&g, &r.result.final_partition);
        assert!((q - r.result.final_modularity).abs() < 1e-12);
    }

    #[test]
    fn distributed_loading_matches_replicated_loading() {
        // Split a planted graph's edges round-robin into per-rank chunks;
        // the distributed loader must reconstruct exactly the same graph
        // and produce identical results, under every partition strategy
        // and under perturbed message delivery.
        let (el, _) = planted_graph(17);
        let ranks = 4;
        let chunks: Vec<EdgeList> = (0..ranks)
            .map(|r| {
                let mut b = louvain_graph::edgelist::EdgeListBuilder::new(el.num_vertices());
                for (i, e) in el.edges().iter().enumerate() {
                    if i % ranks == r {
                        b.add_edge(e.u, e.v, e.w);
                    }
                }
                b.build()
            })
            .collect();
        for partition in [PartitionStrategy::Modulo, PartitionStrategy::ArcBalanced] {
            for perturb_seed in [None, Some(7)] {
                let solver = ParallelLouvain::new(ParallelConfig {
                    partition,
                    perturb_seed,
                    ..ParallelConfig::with_ranks(ranks)
                });
                let a = solver.run(&el);
                let b = solver.run_from_parts(el.num_vertices(), |r| chunks[r].clone());
                let case = format!("{partition:?}, perturb {perturb_seed:?}");
                assert_eq!(
                    a.result.final_modularity, b.result.final_modularity,
                    "{case}"
                );
                assert_eq!(
                    a.result.final_partition.labels(),
                    b.result.final_partition.labels(),
                    "{case}"
                );
                // TEPS accounting: both attribute the same total input edges.
                assert_eq!(a.input_edges, el.num_edges(), "{case}");
                assert_eq!(b.input_edges, el.num_edges(), "{case}");
            }
        }
    }

    #[test]
    fn distributed_loading_accepts_raw_generator_streams() {
        // Raw (duplicate-carrying) R-MAT chunks: duplicates accumulate as
        // weight and the run is still well-formed.
        use louvain_graph::gen::rmat::{generate_rmat_chunk, RmatConfig};
        let cfg = RmatConfig::graph500(9);
        let ranks = 4;
        let solver = ParallelLouvain::new(ParallelConfig::with_ranks(ranks));
        let r = solver.run_from_parts(cfg.num_vertices(), |rank| {
            generate_rmat_chunk(&cfg, 5, rank, ranks)
        });
        assert!(r.result.final_partition.is_valid());
        // Chunks dedup internally, so the delivered count is bounded by
        // the raw budget but stays in its ballpark.
        assert!(r.input_edges <= cfg.num_edges_raw());
        assert!(r.input_edges > cfg.num_edges_raw() / 2);
        assert!(r.teps() > 0.0);
    }

    #[test]
    fn without_heuristic_struggles_on_mixed_graphs() {
        use louvain_graph::gen::lfr::{generate_lfr, LfrConfig};
        let el = generate_lfr(&LfrConfig::standard(2000, 0.5), 7).edges;
        let with = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        let without = ParallelLouvain::new(ParallelConfig {
            use_heuristic: false,
            max_inner_iterations: 12,
            ..ParallelConfig::with_ranks(4)
        })
        .run(&el);
        assert!(
            with.result.final_modularity > without.result.final_modularity,
            "heuristic {} vs without {}",
            with.result.final_modularity,
            without.result.final_modularity
        );
    }
}
