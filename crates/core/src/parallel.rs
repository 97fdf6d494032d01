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
//!   stored but summed at scan time: a `RowIndex` keeps `u`'s in-arcs
//!   with one cached community label per arc, and every reader folds the
//!   arcs labelled `c`;
//! * community `c` (a global id) is owned by rank `c mod p`, which keeps
//!   its `Σ_tot` and `Σ_in`.
//!
//! Per inner iteration (REFINE, Algorithm 4): gather a `Σ_tot` snapshot,
//! scan the Out-Table for each vertex's best gain `m_u` (FIND BEST
//! COMMUNITY), derive the move threshold `ΔQ̂` from the ε schedule via a
//! global log-histogram of the gains (Section IV-B), apply the thresholded
//! moves with `Σ_tot` delta messages (UPDATE COMMUNITY INFORMATION),
//! re-propagate state, and accumulate `Σ_in` to compute the new
//! modularity.
//!
//! STATE PROPAGATION is **delta-compressed** (DESIGN.md §10): the arc
//! label cache is built once per level from purely local data (every
//! level starts with identity labels, so no communication is needed),
//! and each inner iteration thereafter broadcasts only `(vertex,
//! new_community)` pairs for vertices that actually migrated. Receivers
//! relabel the migrated vertex's arcs through a per-level `RemoteCache`;
//! no row weight is stored, so there is nothing to patch, and a row's
//! weight is a fresh sum under the current labels whenever it is read.
//! The cache is invalidated (rebuilt) at every GRAPH RECONSTRUCTION. An
//! iteration in which no vertex migrates anywhere exchanges zero
//! state-propagation messages — the inner loop then terminates through
//! the modularity collective that follows.
//!
//! The FIND BEST / UPDATE sweeps are **frontier-scheduled** (DESIGN.md
//! §13): each rank keeps a scan frontier over its local vertices
//! ([`crate::frontier`]), seeded with everyone at level start, and
//! re-scans only vertices whose scan *inputs* could have changed —
//! local neighbors of received state-propagation deltas (remote
//! re-activation piggybacked on the §10 protocol via the `RemoteCache`
//! source index) and vertices whose own or adjacent community changed
//! in the replicated `Σ_tot`/size snapshots. Everyone else's cached
//! `m_u`/`best` decision is bitwise what a fresh scan would compute, so
//! an ε-throttled vertex waits on the *eligibility ledger* — reachable
//! by the UPDATE sweep, but never re-scanned while its inputs hold
//! still. A rank whose frontier drained skips the scan entirely; every
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
//! Determinism note: packet arrival order varies between runs, so every
//! floating-point accumulation over received messages is made a function
//! of the message *multiset* — a delta batch only rewrites labels, each
//! vertex at most once, so its result is order-free; the Out-Table rows
//! fold their arcs in ascending source order under those labels; and the
//! In-Table loading, `Σ_tot` update, `Σ_in`, and reconstruction
//! accumulations buffer and sort their contributions before folding,
//! while reductions fold in rank order. Runs are therefore
//! bit-reproducible for *arbitrary* weights, not just the
//! integer-valued ones the generators emit — which is what lets the
//! frontier/full-scan equivalence (DESIGN.md §13) be asserted bitwise
//! on mixed-magnitude inputs.

use crate::checkpoint::{Checkpoint, CheckpointStore, LevelSnapshot};
use crate::dq;
use crate::frontier::{Frontier, FrontierStats};
use crate::heuristic::{EpsilonSchedule, MIN_MOVE_FRACTION, MIN_Q_IMPROVEMENT};
use crate::result::{LevelInfo, LouvainResult};
use crate::timing::{
    CommBreakdown, InnerIterationTiming, Phase, PhaseMeter, PhaseTimers, SimBreakdown, Stopwatch,
};
use louvain_graph::edgelist::EdgeList;
use louvain_graph::partition::{
    load_imbalance, AnyPartition, BalancedPartition, PartitionStrategy,
};
use louvain_graph::partition1d::ModuloPartition;
use louvain_hash::{pack_key, unpack_key};
use louvain_metrics::Partition;
use louvain_runtime::{
    run_with_config_faulted, run_with_config_logged, CollectiveKind, CommStats, Exchange,
    FaultPlan, FaultStats, RankCtx, RunOutcome, RuntimeConfig,
};
use louvain_trace::{Event, RankTrace};
use std::time::Duration;

/// Bins of the global gain histogram that translates ε into `ΔQ̂`.
const HISTOGRAM_BINS: usize = 64;

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
    /// Inner-loop iteration cap per level.
    pub max_inner_iterations: usize,
    /// Maximum hierarchy levels.
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
    /// Testing/ablation knob: when `true`, STATE PROPAGATION falls back
    /// to the v1 full per-arc rebuild (every local vertex announces its
    /// label along every out-arc, every iteration) instead of the
    /// delta-compressed path of DESIGN.md §10. Results are identical;
    /// only the message volume differs. The cost-conformance suite flips
    /// this to prove the volume verifier rejects the regression
    /// (DESIGN.md §12).
    pub v1_state_rebuild: bool,
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
    /// counts the restarts. `None` (the default) takes exactly the
    /// fault-free code path.
    pub fault_plan: Option<FaultPlan>,
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
            v1_state_rebuild: false,
            #[cfg(test)]
            full_rescan: false,
            checkpoint_every_level: 0,
            fault_plan: None,
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
    /// Remote-state cache rebuilds forced by graph reconstruction, summed
    /// across ranks (the level-0 build is a construction, not an
    /// invalidation). See DESIGN.md §10.
    pub cache_invalidations: u64,
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
    /// without a [`ParallelConfig::fault_plan`].
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
    /// without a fault plan).
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
        let t = self.first_level_time.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.input_edges as f64 / t
        }
    }

    /// TEPS under the BSP cost model: input edges per simulated second,
    /// with one work unit costing `ns_per_unit` nanoseconds (default
    /// calibration: 20 ns ≈ the handling cost of one fine-grained
    /// message).
    #[must_use]
    pub fn teps_simulated(&self, ns_per_unit: f64) -> f64 {
        let t = self.sim_first_level_units * ns_per_unit * 1e-9;
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

/// Per-rank state of one hierarchy level.
struct RankLevel {
    /// Global vertices at this level.
    n: usize,
    part: AnyPartition,
    /// In-edges of local vertices as `(pack_key(src, dst), weight)`,
    /// strictly ascending by key: nothing probes the table by key, so a
    /// sorted arc array replaces the paper's hashed `In_Table`.
    in_table: Vec<(u64, f64)>,
    /// Weighted degree `k_u` per local vertex.
    k: Vec<f64>,
    /// Community (global id) per local vertex.
    label: Vec<u32>,
    /// `Σ_tot` per *owned community* (local community index).
    tot: Vec<f64>,
    /// `Σ_in` per owned community.
    internal: Vec<f64>,
    /// Member count per owned community (for the singleton swap guard).
    size: Vec<u32>,
}

impl RankLevel {
    /// The level over `in_table` at singleton communities: every local
    /// vertex is its own community (`c = v`, owned by the same rank), so
    /// `Σ_tot` starts at the weighted degree and `Σ_in` at zero.
    fn singletons(part: AnyPartition, in_table: Vec<(u64, f64)>, rank: usize) -> Self {
        debug_assert!(in_table.windows(2).all(|p| p[0].0 < p[1].0));
        let local_n = part.local_count(rank);
        let mut k = vec![0.0f64; local_n];
        for &(key, w) in &in_table {
            let (_, dst) = unpack_key(key);
            k[part.local_index(dst)] += w;
        }
        Self {
            n: part.num_vertices(),
            label: part.local_vertices(rank).collect(),
            tot: k.clone(),
            internal: vec![0.0; local_n],
            size: vec![1; local_n],
            k,
            part,
            in_table,
        }
    }
}

/// The Out-Table, held implicitly: each local vertex's in-arcs with the
/// cached community of every arc's source (DESIGN.md §10).
///
/// Vertex `li` owns the arc segment `offsets[li]..offsets[li + 1]`, its
/// In-Table entries `(s, li)` in ascending source order. Row `w_{li→c}`
/// is not stored: it is the sum of the weights of the segment's arcs
/// labelled `c`, folded in arc order from 0.0 whenever a reader needs it
/// ([`RowIndex::gather`], [`RowIndex::weight`]). A row is live exactly
/// when some arc carries its label, so liveness needs no bookkeeping and
/// a row's weight is a function of the current labels alone. Weights are
/// non-negative, so a live row sums to exactly 0.0 only when all its arcs
/// weigh 0.0; the consumers' `w != 0.0` sentinel skips it as it skips an
/// absent row.
pub(crate) struct RowIndex {
    /// Segment bounds, one slice per local vertex (`local_n + 1` entries).
    offsets: Vec<usize>,
    /// Cached community of each arc's source.
    label: Vec<u32>,
    /// In-Table weight `w(s, d)` of each arc.
    w: Vec<f64>,
}

impl RowIndex {
    /// An index over arcs grouped into per-vertex segments by `offsets`,
    /// each arc carrying its source's label and its weight.
    #[cfg(test)]
    pub(crate) fn from_arcs(offsets: Vec<usize>, label: Vec<u32>, w: Vec<f64>) -> Self {
        debug_assert_eq!(offsets.last().copied(), Some(label.len()));
        debug_assert_eq!(label.len(), w.len());
        Self { offsets, label, w }
    }

    /// Arc range of local vertex `li`.
    fn segment(&self, li: usize) -> std::ops::Range<usize> {
        self.offsets[li]..self.offsets[li + 1]
    }

    /// Cached source labels of local vertex `li`'s arcs, in arc order.
    pub(crate) fn labels(&self, li: usize) -> &[u32] {
        &self.label[self.segment(li)]
    }

    /// Sums every live row of local vertex `li` into `scratch`, whose
    /// previous contents are discarded.
    fn gather(&self, li: usize, scratch: &mut RowScratch) {
        scratch.begin();
        let seg = self.segment(li);
        for (&c, &w) in self.label[seg.clone()].iter().zip(&self.w[seg]) {
            let slot = &mut scratch.slot[c as usize];
            if slot.0 != scratch.epoch {
                *slot = (scratch.epoch, scratch.rows.len() as u32);
                scratch.rows.push((c, 0.0));
            }
            scratch.rows[slot.1 as usize].1 += w;
        }
    }

    /// Weight of row `(li, c)`; 0.0 when the row is dead. Folds in the
    /// same order as [`RowIndex::gather`], so the two agree bitwise.
    fn weight(&self, li: usize, c: u32) -> f64 {
        let seg = self.segment(li);
        let mut sum = 0.0;
        for (&e, &w) in self.label[seg.clone()].iter().zip(&self.w[seg]) {
            if e == c {
                sum += w;
            }
        }
        sum
    }

    /// Whether local vertex `li` holds a live row into a community other
    /// than `c` — false exactly when `li` is interior to `c` (or has no
    /// arcs).
    pub(crate) fn has_external(&self, li: usize, c: u32) -> bool {
        self.labels(li).iter().any(|&e| e != c)
    }

    /// Every live row as `(local vertex, community, weight)`, ascending
    /// by vertex, then community, at a level with `n` communities.
    fn all_rows(&self, n: usize) -> Vec<(u32, u32, f64)> {
        let mut scratch = RowScratch::new(n);
        let mut rows = Vec::new();
        for li in 0..self.offsets.len() - 1 {
            self.gather(li, &mut scratch);
            let start = rows.len();
            rows.extend(scratch.rows.iter().map(|&(c, w)| (li as u32, c, w)));
            rows[start..].sort_unstable_by_key(|&(_, c, _)| c);
        }
        rows
    }
}

/// Collision-free accumulator for [`RowIndex::gather`]: a slot per
/// global community id points at the community's row, and is valid only
/// when stamped with the current epoch, so starting a new vertex costs
/// nothing. The rows themselves sit in one short dense list.
struct RowScratch {
    /// `(epoch stamp, index into rows)` per community.
    slot: Vec<(u32, u32)>,
    epoch: u32,
    /// The gathered rows as `(community, weight)`, in first-seen arc
    /// order.
    rows: Vec<(u32, f64)>,
}

impl RowScratch {
    /// Scratch for a level with `n` communities.
    fn new(n: usize) -> Self {
        Self {
            slot: vec![(0, 0); n],
            epoch: 0,
            rows: Vec::new(),
        }
    }

    /// Invalidates every slot.
    fn begin(&mut self) {
        self.rows.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slot.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// Gathered weight of row `c`; 0.0 when the row is dead.
    fn get(&self, c: u32) -> f64 {
        match self.slot[c as usize] {
            (stamp, i) if stamp == self.epoch => self.rows[i as usize].1,
            _ => 0.0,
        }
    }
}

/// Per-level index over the local In-Table that makes delta-based state
/// propagation O(migrations), plus the label cache it keeps current and
/// the Out-Table that reads it (DESIGN.md §10).
///
/// `srcs`/`labels`/`offsets`/`pairs` serve the *receiver* side: a delta
/// `(u, c_new)` is applied by looking up `u` in `srcs` and relabelling
/// each of `u`'s arcs in the Out-Table. `out_srcs` serves the *sender*
/// side: the sorted neighbor sources of each local vertex, i.e. exactly
/// the ranks that hold arcs of it, so a migration is announced to
/// precisely the owners that need it. Its per-vertex segments are the
/// [`RowIndex`] segments.
///
/// The whole structure is derived from the In-Table, which is immutable
/// within a level — so the cache's epoch *is* the level, and GRAPH
/// RECONSTRUCTION (which replaces the In-Table) is the one event that
/// invalidates it.
struct RemoteCache {
    /// Sorted distinct source vertices appearing in the local In-Table.
    srcs: Vec<u32>,
    /// Cached community of `srcs[i]`, kept current by applied deltas.
    /// Initialized to the identity labels every level starts with.
    labels: Vec<u32>,
    /// CSR offsets into `pairs`, one slice per entry of `srcs`.
    offsets: Vec<usize>,
    /// `(local vertex, arc position)` of each Out-Table arc a source
    /// feeds, grouped by source.
    pairs: Vec<(u32, u32)>,
    /// Sorted neighbor sources of each local vertex, one
    /// [`RowIndex::segment`] each.
    out_srcs: Vec<u32>,
    /// Self-loop weight `a_uu` per local vertex (0.0 without one): the
    /// In-Table entry `(u, u)`, which the own-row term subtracts.
    self_loop: Vec<f64>,
    /// The Out-Table: the arcs of each local vertex with their cached
    /// labels. The FIND BEST scan gathers a vertex's candidate
    /// communities from it, and the interior tests and wake rule W2 read
    /// it too (DESIGN.md §13).
    out_table: RowIndex,
}

impl RemoteCache {
    /// Builds the cache for `lvl` (two passes over the sorted In-Table,
    /// no sort). Labels start at the identity mapping because every level
    /// begins with singleton communities `c = v` — known without
    /// communication — so the Out-Table starts as the transposed In-Table
    /// with each arc labelled by its source (STATE PROPAGATION,
    /// Algorithm 3, level-start edition: zero messages).
    fn build(lvl: &RankLevel, rank: usize) -> Self {
        let part = &lvl.part;
        let arcs = &lvl.in_table;
        let local_n = part.local_count(rank);
        assert!(
            arcs.len() <= u32::MAX as usize,
            "arc positions overflow u32"
        );
        let mut srcs: Vec<u32> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        let mut out_offsets = vec![0usize; local_n + 1];
        let mut self_loop = vec![0.0f64; local_n];
        for (j, &(key, w)) in arcs.iter().enumerate() {
            let (s, d) = unpack_key(key);
            if srcs.last() != Some(&s) {
                srcs.push(s);
                offsets.push(j);
            }
            let li = part.local_index(d);
            out_offsets[li + 1] += 1;
            if s == d {
                self_loop[li] = w;
            }
        }
        offsets.push(arcs.len());
        let labels = srcs.clone();
        // Transpose: the arcs of each local vertex. The arcs are visited
        // in ascending source order, so each segment comes out sorted by
        // source and no per-segment sort is needed; `pairs` records where
        // each arc landed, in the source-grouped order of the In-Table.
        for li in 0..local_n {
            out_offsets[li + 1] += out_offsets[li];
        }
        let mut cursor = out_offsets[..local_n].to_vec();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(arcs.len());
        let mut out_srcs = vec![0u32; arcs.len()];
        let mut weights = vec![0.0f64; arcs.len()];
        for &(key, w) in arcs {
            let (s, d) = unpack_key(key);
            let li = part.local_index(d);
            let j = cursor[li];
            cursor[li] += 1;
            pairs.push((li as u32, j as u32));
            out_srcs[j] = s;
            weights[j] = w;
        }
        // At the identity labelling every arc is labelled by its source.
        let out_table = RowIndex {
            offsets: out_offsets,
            label: out_srcs.clone(),
            w: weights,
        };
        Self {
            srcs,
            labels,
            offsets,
            pairs,
            out_srcs,
            self_loop,
            out_table,
        }
    }

    /// Applies a batch of received `(vertex, new_community)` deltas to
    /// the label cache and the Out-Table's arc labels, reporting to
    /// `dirty` as `(local vertex, community)` both rows each relabelled
    /// arc moved between: wake rule W1's input.
    ///
    /// The result is independent of delivery order: each vertex migrates
    /// at most once per sweep and only its owner announces it, so the
    /// deltas of one batch touch disjoint labels, and the frontier
    /// consumes the reported rows as a set. (The v1 full rebuild
    /// re-announces unmoved labels; those are no-ops.)
    fn apply_deltas(&mut self, deltas: &[(u32, u32)], mut dirty: impl FnMut(u32, u32)) {
        for &(u, c_new) in deltas {
            // Only owners of neighbors of `u` receive its delta, so the
            // lookup always hits; guard anyway rather than unwrap (P1).
            let Ok(idx) = self.srcs.binary_search(&u) else {
                continue;
            };
            let c_old = std::mem::replace(&mut self.labels[idx], c_new);
            if c_old == c_new {
                continue;
            }
            for &(li, j) in &self.pairs[self.offsets[idx]..self.offsets[idx + 1]] {
                self.out_table.label[j as usize] = c_new;
                dirty(li, c_old);
                dirty(li, c_new);
            }
        }
    }
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
        assert!(cfg.ranks >= 1);
        Self { cfg }
    }

    /// Runs the distributed algorithm on `edges` and assembles the global
    /// result.
    #[must_use]
    pub fn run(&self, edges: &EdgeList) -> ParallelResult {
        self.run_input(RunInput::Replicated(edges), edges.num_vertices())
    }

    /// Distributed loading: rank `r` ingests `parts(r)` (e.g. an R-MAT
    /// generator chunk) and the arcs are routed to their owning ranks
    /// through the messaging layer — no rank ever holds the whole graph.
    /// This is how the paper's weak-scaling runs ingest their per-node
    /// generator output.
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
        let (mut rank_outputs, comm, protocol_logs) = match cfg.fault_plan.clone() {
            // No fault plan: exactly the fault-free code path (the
            // checkpoint hooks still run if the cadence knob is set).
            None => run_with_config_logged::<Msg, RankOutput, _>(rt_cfg, |ctx| {
                rank_main(ctx, input, &cfg, store)
            }),
            // Chaos path: run until the plan is exhausted. Each crash is
            // disarmed after it fires (the machine "comes back"), and the
            // next attempt resumes every rank from its checkpoint slot —
            // or from scratch if no checkpoint was taken yet.
            Some(mut plan) => loop {
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
            },
        };
        let total_time = t0.elapsed();

        // Assemble the global partition from per-rank original labels.
        // Each rank reports its own level-0 vertex set (`orig_vertices`)
        // rather than the driver re-deriving it: under the arc-balanced
        // strategy the level-0 ownership is a function of the allreduced
        // load vector, which only the ranks ever see.
        let assemble = |selector: &dyn Fn(&RankOutput) -> &[u32]| -> Partition {
            let mut raw = vec![0u32; n];
            for out in rank_outputs.iter() {
                for (i, &v) in out.st.orig_vertices.iter().enumerate() {
                    raw[v as usize] = selector(out)[i];
                }
            }
            Partition::from_labels(&raw)
        };
        let num_level_parts = rank_outputs[0].st.level_orig_comms.len();
        let level_partitions: Vec<Partition> = (0..num_level_parts)
            .map(|l| assemble(&|o| &o.st.level_orig_comms[l]))
            .collect();

        let levels = rank_outputs[0].st.levels.clone();
        // Unlike the sequential algorithm, stale-state moves can make a
        // later level slightly worse; report the best level as the final
        // answer (the paper prints C and Q per outer loop).
        let best_level = levels
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.modularity.total_cmp(&b.1.modularity))
            .map(|(i, _)| i);
        let final_modularity = best_level.map_or(0.0, |i| levels[i].modularity);
        let timers = rank_outputs
            .iter()
            .fold(PhaseTimers::new(), |acc, r| acc.max(&r.meter.timers));
        let first_level_time = rank_outputs
            .iter()
            .map(|r| r.first_level_time)
            .max()
            .unwrap_or_default();
        let final_partition = best_level
            .and_then(|i| level_partitions.get(i).cloned())
            .unwrap_or_else(|| assemble(&|o| &o.st.orig_comm));
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
        let cache_invalidations = rank_outputs.iter().map(|r| r.st.cache_invalidations).sum();
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
            input_edges: rank_outputs.iter().map(|r| r.st.input_edges).sum(),
            sim_total_units,
            sim_first_level_units,
            comm_breakdown,
            sim_breakdown,
            syncs,
            bytes_sent,
            cache_invalidations,
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
    /// Community of each originally-local vertex, as a vertex id of the
    /// current level (the final dense community once the loop ends).
    orig_comm: Vec<u32>,
    /// Level-0 local vertices of this rank (the domain of `orig_comm`);
    /// persisted in checkpoints because a restore may not communicate
    /// and a balanced level-0 partition is not re-derivable offline.
    orig_vertices: Vec<u32>,
    levels: Vec<LevelInfo>,
    /// Partitions of original local vertices after each level.
    level_orig_comms: Vec<Vec<u32>>,
    q_prev_level: f64,
    /// Remote-state caches discarded because reconstruction replaced the
    /// In-Table they indexed.
    cache_invalidations: u64,
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
    let mut repartitions = 0u64;

    for level_idx in st.levels.len()..cfg.max_levels {
        // The rank's share of this level's arcs — the quantity the
        // partition strategy balances (the find-best scan and both
        // propagation directions are linear in it).
        arc_load += st.lvl.in_table.len() as u64;
        let level_start = Stopwatch::start();
        // The remote-state cache is an index over the In-Table, which is
        // immutable within a level — its epoch IS the level. Graph
        // reconstruction replaced the In-Table, so every level after the
        // first begins by discarding the stale cache (DESIGN.md §10).
        if level_idx > 0 {
            st.cache_invalidations += 1;
        }
        let mut cache = RemoteCache::build(&st.lvl, ctx.rank());
        // --- REFINE (Algorithm 4) ---
        louvain_trace::emit_with(|| Event::Enter {
            phase: "refine",
            clock: ctx.sim_clock_units(),
        });
        let refine_start = Stopwatch::start();
        let (q, iterations, fractions, q_trace) =
            refine(ctx, &mut st, &mut cache, cfg, &mut meter, level_idx == 0);
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
        let next = reconstruct(ctx, &st.lvl, &cache.out_table, &mut st.orig_comm, cfg);
        meter.lap(ctx, Phase::Reconstruction);
        louvain_trace::emit_with(|| Event::Exit {
            phase: "reconstruction",
            clock: ctx.sim_clock_units(),
        });
        if level_idx == 0 {
            first_level_time = level_start.elapsed();
            sim_first_level_units = ctx.sim_time_units();
        }

        let n_next = next.n;
        st.levels.push(LevelInfo {
            num_vertices: st.lvl.n,
            num_communities: n_next,
            modularity: q,
            inner_iterations: iterations,
            move_fractions: fractions,
            q_trace,
        });
        st.level_orig_comms.push(st.orig_comm.clone());

        let no_reduction = n_next == st.lvl.n;
        let improved = q - st.q_prev_level > MIN_Q_IMPROVEMENT;
        st.q_prev_level = q;
        st.lvl = next;
        if matches!(st.lvl.part, AnyPartition::Balanced(_)) {
            repartitions += 1;
        }
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
    louvain_trace::emit_with(|| Event::Count {
        name: "runtime.syncs",
        value: ctx.sync_count(),
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "runtime.bytes_sent",
        value: ctx.bytes_sent(),
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "runtime.messages_sent",
        value: ctx.sent_messages(),
    });
    // Delta-mode counters (all rank-local program-order quantities;
    // dedup_hits is a per-phase multiset property, so none of these can
    // vary with the perturbed delivery schedule).
    louvain_trace::emit_with(|| Event::Count {
        name: "delta.state_propagation_messages",
        value: meter.comm.state_propagation,
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "delta.cache_invalidations",
        value: st.cache_invalidations,
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "runtime.dedup_hits",
        value: ctx.dedup_hits(),
    });
    // Frontier-scheduling counters (DESIGN.md §13). All three are
    // rank-local program-order tallies over schedule-invariant wake
    // sets, so the trace contract of §9 holds.
    louvain_trace::emit_with(|| Event::Count {
        name: "frontier.active_vertices",
        value: st.frontier_stats.active_vertices,
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "frontier.reactivations",
        value: st.frontier_stats.reactivations,
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "frontier.skipped_scans",
        value: st.frontier_stats.skipped_scans,
    });
    // Partitioning observables (DESIGN.md §15): this rank's share of
    // the arc load the partition strategy balances and its level-0
    // vertex count — both rank-local program-order tallies, so the §9
    // trace contract holds under any partition. The repartition counter
    // is gated on the arc-balanced strategy, mirroring the chaos gating
    // below: the default modulo trace carries no counter for a
    // mechanism that never ran.
    louvain_trace::emit_with(|| Event::Count {
        name: "partition.arc_load",
        value: arc_load,
    });
    louvain_trace::emit_with(|| Event::Count {
        name: "partition.local_vertices",
        value: st.orig_comm.len() as u64,
    });
    if matches!(cfg.partition, PartitionStrategy::ArcBalanced) {
        louvain_trace::emit_with(|| Event::Count {
            name: "partition.repartitions",
            value: repartitions,
        });
    }
    // Chaos observables (DESIGN.md §14), gated so a default-config run's
    // trace stays byte-identical to a build without the subsystem:
    // checkpoint counters only when a cadence is set, fault counters
    // only when a plan is injecting. All are rank-local program-order
    // tallies of deterministic decisions, so the §9 trace contract
    // holds.
    if cfg.checkpoint_every_level > 0 {
        louvain_trace::emit_with(|| Event::Count {
            name: "checkpoint.count",
            value: checkpoints_written,
        });
        louvain_trace::emit_with(|| Event::Count {
            name: "checkpoint.bytes",
            value: checkpoint_bytes_written,
        });
    }
    if ctx.fault_injection_active() {
        let f = ctx.fault_counters();
        louvain_trace::emit_with(|| Event::Count {
            name: "fault.packets_dropped",
            value: f.packets_dropped,
        });
        louvain_trace::emit_with(|| Event::Count {
            name: "fault.packets_duplicated",
            value: f.packets_duplicated,
        });
        louvain_trace::emit_with(|| Event::Count {
            name: "fault.packets_delayed",
            value: f.packets_delayed,
        });
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

/// The fresh-start half of [`rank_main`]'s initialization: distribute
/// the input, reduce `2m`, and start the hierarchy at level 0. This is
/// the loading superstep of Algorithm 2, untouched — restore runs skip
/// it wholesale.
fn fresh_rank_state(
    ctx: &mut RankCtx<'_, Msg>,
    input: &RunInput<'_>,
    cfg: &ParallelConfig,
) -> LoopState {
    let (lvl, input_edges) = match input {
        RunInput::Replicated(edges) => {
            let lvl = build_initial_level(ctx, edges, cfg);
            // Attribute the shared input evenly so the sum is exact.
            let rank = ctx.rank();
            let m = edges.num_edges();
            let share = m / cfg.ranks + usize::from(rank < m % cfg.ranks);
            (lvl, share)
        }
        RunInput::Parts { num_vertices, f } => {
            let part = f(ctx.rank());
            let m = part.num_edges();
            (
                build_initial_level_distributed(ctx, *num_vertices, &part, cfg),
                m,
            )
        }
    };
    // 2m is invariant across levels (reconstruction preserves weight).
    let s = ctx.allreduce_sum(lvl.k.iter().sum());
    // Current community of each originally-local vertex, expressed as a
    // vertex id of the *current* level. At level 0 that is the identity:
    // the vertex set itself, which also becomes the permanent domain
    // (`orig_vertices`) the driver scatters final labels with.
    let orig_comm: Vec<u32> = lvl.part.local_vertices(ctx.rank()).collect();
    let orig_vertices = orig_comm.clone();
    LoopState {
        lvl,
        input_edges,
        s,
        orig_comm,
        orig_vertices,
        levels: Vec::new(),
        level_orig_comms: Vec::new(),
        q_prev_level: f64::NEG_INFINITY,
        cache_invalidations: 0,
        frontier_stats: FrontierStats::default(),
        frontier_occupancy: Vec::new(),
    }
}

/// The restart half of [`rank_main`]'s initialization: if this rank has
/// a checkpoint slot (and checkpointing is on), rebuild the loop state
/// from it — bit-for-bit — and seed the recorded protocol log with the
/// checkpointed prefix so the spliced log reads exactly like an
/// uninterrupted run's. Contains no collectives: a restored world goes
/// straight to the resumed level's first collective, in lockstep.
///
/// The In-Table is rebuilt by accumulating the persisted `(key, weight)`
/// multiset in sorted key order. Its slot layout and capacity may differ
/// from the original table's, but every consumer folds table contents in
/// sorted order (the determinism contract of this module), so the
/// difference is unobservable in results.
fn take_resume_state(
    store: &CheckpointStore,
    cfg: &ParallelConfig,
    ctx: &RankCtx<'_, Msg>,
) -> Option<LoopState> {
    if cfg.checkpoint_every_level == 0 {
        return None;
    }
    let cp = store.read_slot(ctx.rank())?;
    assert_eq!(cp.ranks, cfg.ranks, "checkpoint is for a different world");
    assert_eq!(cp.rank, ctx.rank(), "checkpoint slot/rank skew");
    let prefix: Vec<CollectiveKind> = cp
        .protocol_log
        .iter()
        .map(|name| match CollectiveKind::parse(name) {
            Some(kind) => kind,
            None => panic!("checkpoint names unknown collective {name:?}"),
        })
        .collect();
    ctx.seed_protocol_log(&prefix);
    let n = cp.n as usize;
    // Restore may not communicate, so the partition is rebuilt from the
    // checkpoint alone: modulo from `(n, ranks)`, balanced from its
    // persisted owner vector (DESIGN.md §15).
    let part = match PartitionStrategy::from_tag(&cp.part_kind) {
        Some(PartitionStrategy::Modulo) => AnyPartition::Modulo(ModuloPartition::new(n, cfg.ranks)),
        Some(PartitionStrategy::ArcBalanced) => {
            assert_eq!(
                cp.part_owners.len(),
                n,
                "checkpoint owner vector length skew"
            );
            AnyPartition::Balanced(BalancedPartition::from_owners(&cp.part_owners, cfg.ranks))
        }
        None => panic!("checkpoint names unknown partition kind {:?}", cp.part_kind),
    };
    // The persisted In-Table is already the live form: validation has
    // checked that its keys are strictly ascending.
    let in_table = cp
        .in_keys
        .iter()
        .zip(&cp.in_w_bits)
        .map(|(&key, &w_bits)| (key, f64::from_bits(w_bits)))
        .collect();
    let lvl = RankLevel {
        n,
        part,
        in_table,
        k: cp.k_bits.iter().map(|&b| f64::from_bits(b)).collect(),
        label: cp.label,
        tot: cp.tot_bits.iter().map(|&b| f64::from_bits(b)).collect(),
        internal: cp
            .internal_bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect(),
        size: cp.size,
    };
    Some(LoopState {
        lvl,
        input_edges: cp.input_edges as usize,
        s: f64::from_bits(cp.s_bits),
        orig_comm: cp.orig_comm,
        orig_vertices: cp.orig_vertices,
        levels: cp.levels.iter().map(LevelSnapshot::restore).collect(),
        level_orig_comms: cp.level_orig_comms,
        q_prev_level: f64::from_bits(cp.q_prev_level_bits),
        cache_invalidations: cp.cache_invalidations,
        frontier_stats: cp.frontier,
        frontier_occupancy: cp.frontier_occupancy,
    })
}

/// Snapshots this rank's loop state into its [`CheckpointStore`] slot at
/// the boundary into level `st.levels.len()`. Called only inside the
/// post-barrier window of the level loop (see the call site for the
/// atomicity argument) and never inside a traced phase region (lint rule
/// X1). Returns the rendered checkpoint size in bytes.
fn write_level_checkpoint(
    store: &CheckpointStore,
    ctx: &RankCtx<'_, Msg>,
    cfg: &ParallelConfig,
    st: &LoopState,
) -> u64 {
    let lvl = &st.lvl;
    let cp = Checkpoint {
        rank: ctx.rank(),
        ranks: cfg.ranks,
        next_level: st.levels.len(),
        s_bits: st.s.to_bits(),
        input_edges: st.input_edges as u64,
        q_prev_level_bits: st.q_prev_level.to_bits(),
        cache_invalidations: st.cache_invalidations,
        n: lvl.n as u64,
        // The In-Table is persisted as-is: it already is the sorted
        // (key, weight-bits) form the checkpoint stores.
        in_keys: lvl.in_table.iter().map(|&(key, _)| key).collect(),
        in_w_bits: lvl.in_table.iter().map(|&(_, w)| w.to_bits()).collect(),
        k_bits: lvl.k.iter().map(|x| x.to_bits()).collect(),
        label: lvl.label.clone(),
        tot_bits: lvl.tot.iter().map(|x| x.to_bits()).collect(),
        internal_bits: lvl.internal.iter().map(|x| x.to_bits()).collect(),
        size: lvl.size.clone(),
        orig_comm: st.orig_comm.clone(),
        orig_vertices: st.orig_vertices.clone(),
        // The partition must survive the restore without communication:
        // modulo is rebuilt from `(n, ranks)`, balanced from the dense
        // owner vector persisted here (DESIGN.md §15).
        part_kind: lvl.part.strategy().tag().to_string(),
        part_owners: lvl.part.owners().map(<[u32]>::to_vec).unwrap_or_default(),
        levels: st.levels.iter().map(LevelSnapshot::of).collect(),
        level_orig_comms: st.level_orig_comms.clone(),
        frontier: st.frontier_stats,
        frontier_occupancy: st.frontier_occupancy.clone(),
        protocol_log: ctx
            .protocol_log_snapshot()
            .iter()
            .map(|kind| kind.name().to_string())
            .collect(),
    };
    store.save_slot(&cp)
}

/// Builds a level's vertex partition (DESIGN.md §15). The modulo arm is
/// pure arithmetic — zero communication, so the default path's protocol
/// is untouched. The arc-balanced arm computes the local per-vertex load
/// counts, allreduces them (its one collective), and derives the LPT
/// assignment — a pure function of the reduced vector, so every rank
/// builds the identical partition.
fn build_vertex_partition(
    ctx: &RankCtx<'_, Msg>,
    cfg: &ParallelConfig,
    n: usize,
    loads_fn: impl FnOnce() -> Vec<f64>,
) -> AnyPartition {
    match cfg.partition {
        PartitionStrategy::Modulo => AnyPartition::Modulo(ModuloPartition::new(n, cfg.ranks)),
        PartitionStrategy::ArcBalanced => {
            let loads = loads_fn();
            let loads = ctx.allreduce_sum_vec(&loads);
            AnyPartition::Balanced(BalancedPartition::from_loads(&loads, cfg.ranks))
        }
    }
}

/// Distributes the input edge list into per-rank In-Tables (Algorithm 2,
/// line 1) and initializes singleton communities.
fn build_initial_level(
    ctx: &RankCtx<'_, Msg>,
    edges: &EdgeList,
    cfg: &ParallelConfig,
) -> RankLevel {
    let n = edges.num_vertices();
    let rank = ctx.rank();
    // Replicated loading: every rank scans the same full edge list, so
    // the reduced load vector is `ranks`× the true degree counts. LPT is
    // invariant to uniform scaling, so the assignment is unaffected.
    let part = build_vertex_partition(ctx, cfg, n, || degree_loads(n, edges));
    // Counting sort by source. The edge list holds distinct edges
    // ascending by `(u, v)` with `u <= v`, so every arc key arises once
    // and each source `s`'s bucket fills in ascending destination order:
    // the arcs `(s, u)` with `u < s` (earlier edges), then the self-loop,
    // then `(s, v)` with `v > s`. No sort and no accumulation is needed.
    let mut start = vec![0usize; n + 1];
    for e in edges.edges() {
        if part.owner(e.v) == rank {
            start[e.u as usize + 1] += 1;
        }
        if e.u != e.v && part.owner(e.u) == rank {
            start[e.v as usize + 1] += 1;
        }
    }
    for s in 0..n {
        start[s + 1] += start[s];
    }
    let mut in_table = vec![(0u64, 0.0f64); start[n]];
    let mut place = |s: u32, d: u32, w: f64| {
        let slot = &mut start[s as usize];
        in_table[*slot] = (pack_key(s, d), w);
        *slot += 1;
    };
    for e in edges.edges() {
        if e.u == e.v {
            if part.owner(e.u) == rank {
                // A_uu = 2w, stored once.
                place(e.u, e.u, 2.0 * e.w);
            }
        } else {
            if part.owner(e.v) == rank {
                place(e.u, e.v, e.w);
            }
            if part.owner(e.u) == rank {
                place(e.v, e.u, e.w);
            }
        }
    }
    RankLevel::singletons(part, in_table, rank)
}

/// Folds arcs sorted by `(key, weight bits)` into the In-Table: one entry
/// per distinct key, its weight summed in that order — the bits a hashed
/// insert-or-accumulate table fed the same order would hold.
fn merge_sorted_arcs(arcs: &[(u64, u64)]) -> Vec<(u64, f64)> {
    let mut in_table: Vec<(u64, f64)> = Vec::with_capacity(arcs.len());
    for &(key, w_bits) in arcs {
        let w = f64::from_bits(w_bits);
        match in_table.last_mut() {
            Some((last, sum)) if *last == key => *sum += w,
            _ => in_table.push((key, w)),
        }
    }
    in_table
}

/// Per-vertex arc counts of `edges` (a self-loop is one arc): the load
/// vector the arc-balanced partition is built from.
fn degree_loads(n: usize, edges: &EdgeList) -> Vec<f64> {
    let mut loads = vec![0.0f64; n];
    for e in edges.edges() {
        loads[e.u as usize] += 1.0;
        if e.u != e.v {
            loads[e.v as usize] += 1.0;
        }
    }
    loads
}

/// Distributed graph loading: route this rank's edge chunk to the
/// owning ranks (both arc directions) and build the In-Table from the
/// received stream. Duplicate edges accumulate as weight.
fn build_initial_level_distributed(
    ctx: &mut RankCtx<'_, Msg>,
    n: usize,
    chunk: &EdgeList,
    cfg: &ParallelConfig,
) -> RankLevel {
    let rank = ctx.rank();
    // Distributed loading: chunks are disjoint, so the reduced vector is
    // the true per-vertex degree count.
    let part = build_vertex_partition(ctx, cfg, n, || degree_loads(n, chunk));
    let in_table = {
        let mut ex = ctx.exchange();
        for e in chunk.edges() {
            debug_assert!((e.u as usize) < n && (e.v as usize) < n);
            if e.u == e.v {
                ex.send(
                    part.owner(e.u),
                    Msg {
                        a: e.u,
                        b: e.u,
                        w: 2.0 * e.w,
                    },
                );
            } else {
                ex.send(
                    part.owner(e.v),
                    Msg {
                        a: e.u,
                        b: e.v,
                        w: e.w,
                    },
                );
                ex.send(
                    part.owner(e.u),
                    Msg {
                        a: e.v,
                        b: e.u,
                        w: e.w,
                    },
                );
            }
        }
        // Sorted application, for the same reason as reconstruction: the
        // table's weights must be a function of the routed arc multiset,
        // never of the delivery interleaving.
        let mut arcs: Vec<(u64, u64)> = Vec::new();
        ex.finish(|m| arcs.push((pack_key(m.a, m.b), m.w.to_bits())));
        arcs.sort_unstable();
        merge_sorted_arcs(&arcs)
    };
    RankLevel::singletons(part, in_table, rank)
}

/// The v1 full per-arc rebuild (ablation/testing only): re-announce every
/// local vertex's label along every out-arc, whether it moved or not.
/// [`RemoteCache::apply_deltas`] skips unchanged labels, so the cache ends
/// identical to the delta path's — this arm exists so the cost-conformance
/// suite can show the volume verifier catching the
/// `O(local_arcs)`-per-iteration regression the delta path was built to
/// eliminate (DESIGN.md §12).
fn send_full_rebuild(
    ex: &mut Exchange<'_, '_, Msg>,
    lvl: &RankLevel,
    cache: &RemoteCache,
    rank: usize,
) {
    let part = &lvl.part;
    let local_n = part.local_count(rank);
    for li in 0..local_n {
        let v = part.global(rank, li);
        let c = lvl.label[li];
        for &s in &cache.out_srcs[cache.out_table.segment(li)] {
            ex.send(part.owner(s), Msg { a: v, b: c, w: 0.0 });
        }
    }
}

/// STATE PROPAGATION (Algorithm 3), steady-state edition: instead of
/// rebuilding the Out-Table from scratch, each rank announces only the
/// vertices that migrated this sweep as `(vertex, new_community)` deltas
/// — keyed sends, so a vertex with many neighbors on one rank costs one
/// message. Received deltas relabel the arcs of the migrated vertex in
/// the Out-Table through [`RemoteCache::apply_deltas`] (DESIGN.md §10).
fn propagate_deltas(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &RankLevel,
    cache: &mut RemoteCache,
    migrated: &[(u32, u32)],
    frontier: &mut Frontier,
    v1_state_rebuild: bool,
) {
    let part = &lvl.part;
    let rank = ctx.rank();
    let mut ex = ctx.exchange();
    if v1_state_rebuild {
        send_full_rebuild(&mut ex, lvl, cache, rank);
    } else {
        for &(u, c_new) in migrated {
            let li = part.local_index(u);
            for &s in &cache.out_srcs[cache.out_table.segment(li)] {
                ex.send_keyed(
                    part.owner(s),
                    u64::from(u),
                    Msg {
                        a: u,
                        b: c_new,
                        w: 0.0,
                    },
                );
            }
        }
    }
    let mut deltas: Vec<(u32, u32)> = Vec::new();
    ex.finish(|m| deltas.push((m.a, m.b)));
    // Wake rule W1 — remote re-activation, piggybacked on the deltas
    // (DESIGN.md §13): a received `(u, c_new)` that changes `u`'s cached
    // label moves each of `u`'s arcs from row `(d, c_old)` to row
    // `(d, c_new)`. Both rows are handed to the frontier; the next
    // snapshot-diff pass classifies each into a full re-scan (own row or
    // cached winner touched) or an O(1) scan patch. No-op announcements
    // (the v1 full rebuild re-sends unmoved labels) relabel nothing and
    // dirty nothing, so both ablations schedule identically.
    cache.apply_deltas(&deltas, |li, c| frontier.mark_row_dirty(li as usize, c));
}

/// Gathers a replicated snapshot (global community id → value) from each
/// owner's dense local array, laid out in the modulo partition order.
fn gather_snapshot(ctx: &RankCtx<'_, Msg>, lvl: &RankLevel, local: &[f64]) -> Vec<f64> {
    let p = ctx.num_ranks();
    let gathered = ctx.allgather_f64(local);
    let mut offsets = vec![0usize; p + 1];
    for r in 0..p {
        offsets[r + 1] = offsets[r] + lvl.part.local_count(r);
    }
    debug_assert_eq!(offsets[p], gathered.len());
    let mut global = vec![0.0f64; lvl.n];
    for (c, g) in global.iter_mut().enumerate() {
        let r = lvl.part.owner(c as u32);
        *g = gathered[offsets[r] + lvl.part.local_index(c as u32)];
    }
    global
}

/// The `(gain, community)` lexicographic order of the best-move fold:
/// `total_cmp` on the gain, larger community id breaking exact ties.
/// Community ids are distinct within one vertex's candidate set, so this
/// is a strict total order and the fold is order-independent.
#[inline]
fn lex_gt(g1: f64, c1: u32, g2: f64, c2: u32) -> bool {
    match g1.total_cmp(&g2) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Equal => c1 > c2,
        std::cmp::Ordering::Less => false,
    }
}

/// Depth of the per-vertex candidate summary kept for the patch pass.
const SUMMARY_K: usize = 4;

/// Exact-prefix candidate summary (DESIGN.md §13). Invariant: the first
/// `v` slots of `e` are, in descending `(gain, id)` lexicographic order,
/// *exactly* the top `v` contributing entries of the vertex's cached
/// best-move fold (the sentinel `(0.0, c_u)` included), and every other
/// contributing entry is lexicographically ≤ `bound`. A full scan fills
/// the whole prefix; a patch group re-folds the changed entries together
/// with the surviving prefix and keeps however much of the result still
/// clears the bound — so winner demotions resolve in O(group) as long as
/// the churn has not eaten through the whole prefix, and only then does
/// the vertex escalate to a full re-scan.
#[derive(Clone, Copy)]
struct CandSummary {
    e: [(f64, u32); SUMMARY_K],
    v: u8,
    bound: (f64, u32),
}

impl CandSummary {
    fn empty() -> Self {
        Self {
            e: [(f64::NEG_INFINITY, 0); SUMMARY_K],
            v: 0,
            bound: (f64::NEG_INFINITY, 0),
        }
    }

    /// The summary of a vertex with no contributing candidates at all:
    /// the fold is the sentinel constant and nothing is hiding below it.
    fn sentinel_only(c_u: u32) -> Self {
        let mut s = Self::empty();
        s.e[0] = (0.0, c_u);
        s.v = 1;
        s
    }

    /// Sorted insert of one contributing entry. Entry ids are distinct,
    /// so the `(gain, id)` order is strict and the fold result does not
    /// depend on the fold order. Entries pushed off the bottom are
    /// ≤ the final last slot, which `seal`/the patch pass fold into the
    /// bound.
    #[inline]
    fn fold(&mut self, g: f64, c: u32) {
        let filled = self.v as usize;
        let mut i = 0;
        while i < filled {
            if lex_gt(g, c, self.e[i].0, self.e[i].1) {
                break;
            }
            i += 1;
        }
        if i < SUMMARY_K {
            let upto = filled.min(SUMMARY_K - 1);
            for j in (i..upto).rev() {
                self.e[j + 1] = self.e[j];
            }
            self.e[i] = (g, c);
            if filled < SUMMARY_K {
                self.v = (filled + 1) as u8;
            }
        }
    }

    /// Closes a full-scan fold: every entry was enumerated, so the
    /// prefix is exact and anything pushed off the bottom is bounded by
    /// the last slot.
    fn seal(&mut self) {
        self.bound = if (self.v as usize) == SUMMARY_K {
            self.e[SUMMARY_K - 1]
        } else {
            (f64::NEG_INFINITY, 0)
        };
    }
}

/// The inner loop (Algorithm 4), frontier-scheduled (DESIGN.md §13), on
/// the level `st.lvl`. Returns (final modularity, iterations,
/// per-iteration global move fractions, per-iteration modularity). The
/// per-iteration timings and frontier occupancy are kept only on the
/// `first_level` (Figure 8b).
fn refine(
    ctx: &mut RankCtx<'_, Msg>,
    st: &mut LoopState,
    cache: &mut RemoteCache,
    cfg: &ParallelConfig,
    meter: &mut PhaseMeter,
    first_level: bool,
) -> (f64, usize, Vec<f64>, Vec<f64>) {
    let lvl = &mut st.lvl;
    let s = st.s;
    let rank = ctx.rank();
    let local_n = lvl.part.local_count(rank);
    let mut m_u = vec![0.0f64; local_n];
    let mut best = vec![0u32; local_n];
    // Exact-prefix candidate summaries for the patch pass (DESIGN.md
    // §13): the top `SUMMARY_K` entries of each vertex's cached lexmax
    // fold, plus a bound on everything below them. A demotion of the
    // cached winner resolves in O(group) against the surviving prefix;
    // only when patch churn has pushed every known entry under the bound
    // does the vertex escalate to a full re-scan.
    let mut summ = vec![CandSummary::empty(); local_n];
    // One row accumulator for the whole level: every gather below
    // re-stamps it instead of allocating.
    let mut scratch = RowScratch::new(lvl.n);
    // The scheduler and the previous iteration's replicated snapshots
    // (for the bitwise diff of wake rule W2). Vertices off the scan
    // frontier keep their *cached* `m_u`/`best` — every input of their
    // last scan is bitwise unchanged (else a wake rule would have fired),
    // so the untouched entries still feed `compute_threshold` and the
    // UPDATE sweep the exact values a full rescan would produce.
    let mut frontier = Frontier::new(local_n, lvl.n);
    let mut prev_tot: Vec<f64> = Vec::new();
    let mut prev_size: Vec<f64> = Vec::new();
    let mut fractions = Vec::new();
    let mut q_trace = Vec::new();
    let mut q_prev = f64::NEG_INFINITY;
    let mut q = 0.0;
    let mut iterations = 0usize;

    // Per-phase attribution: every phase below ends in a meter lap, taken
    // right after the collective that closes it, so its wall time,
    // messages, clock delta and charged work close at the same point.
    // Each lap opens the next phase; the chain starts here, so the setup
    // above belongs to no sub-phase.
    meter.restart(ctx);

    // Initial propagation (Algorithm 2, line 5): `RemoteCache::build`
    // filled the Out-Table from purely local data — the level starts at
    // the identity labelling, so no rank needs remote state yet. Charge
    // that pass; the clock realizes it at the next collective. Its wall
    // lap counts toward iteration 1.
    ctx.charge(lvl.in_table.len() as f64);
    meter.lap(ctx, Phase::StatePropagation);
    let mut migrated: Vec<(u32, u32)> = Vec::new();

    for iter in 1..=cfg.max_inner_iterations {
        iterations = iter;

        // --- FIND BEST COMMUNITY (frontier-scheduled, DESIGN.md §13) ---
        let tot_snap = gather_snapshot(ctx, lvl, &lvl.tot);
        let size_local: Vec<f64> = lvl.size.iter().map(|&x| f64::from(x)).collect();
        let size_snap = gather_snapshot(ctx, lvl, &size_local);
        // Commit this iteration's scan worklist. Iteration 1 seeds the
        // whole vertex set (as does the tests' `full_rescan` oracle);
        // afterwards the pending set holds wake rule W1 (delta piggyback,
        // added during the previous propagation), and wake rule W2 adds
        // everyone whose own or adjacent community changed bitwise in
        // the replicated snapshots. Vertices woken by neither rule have
        // every FIND BEST input bitwise unchanged since their last scan,
        // so their cached `m_u`/`best` is already the answer. All
        // collectives stay outside frontier conditionals, so a drained
        // rank skips work, never a collective.
        #[cfg(test)]
        let wake_all = iter == 1 || cfg.full_rescan;
        #[cfg(not(test))]
        let wake_all = iter == 1;
        if wake_all {
            frontier.wake_all();
        } else {
            frontier.wake_snapshot_changes(
                &prev_tot,
                &tot_snap,
                &prev_size,
                &size_snap,
                &lvl.label,
                &cache.out_table,
            );
        }
        // --- Scan patches (DESIGN.md §13) ---
        // Runs *before* `commit`: a vertex promoted to a full re-scan —
        // by a wake rule above or by the winner escalation below — sits
        // in the pending set, and `is_pending` supersedes its patches.
        // Each surviving patch re-folds one changed candidate entry over
        // the cached incumbent instead of re-scanning every row. The
        // result is bitwise equal to a full re-scan: the cached
        // `(m_u, best)` is the f64 lexmax (`total_cmp`, larger-id
        // tie-break) over the previous entry set, and every entry
        // outside the patch group is bitwise unchanged (rows by W1,
        // snapshots by W2, label/`a_uu`/`k`/own-row by the self-wake and
        // own-row rules — any of those firing makes the vertex pending).
        // Two cases per group:
        //   * the cached winner's own entry changed: recompute its gain
        //     g'. If g' ≥ cached `m_u` (`total_cmp`), no unchanged entry
        //     can overtake it — O(1) winner update (on Equal the id
        //     tie-break keeps the incumbent: every equal-gain unchanged
        //     entry lost the tie to `b0` before, so it has a smaller
        //     id). If g' < `m_u`, or the entry is now skipped entirely
        //     (dead row, singleton guard), the cached max is invalidated
        //     and the vertex escalates to a full re-scan.
        //   * a non-winning entry changed: removing a non-argmax entry
        //     from a lexmax leaves it intact, so folding the entry's
        //     *new* value over the cached incumbent is exact.
        let mut rows_patched = 0usize;
        let mut pi = 0;
        while pi < frontier.patches.len() {
            let lv = frontier.patches[pi].0;
            let li = lv as usize;
            let mut pj = pi;
            while pj < frontier.patches.len() && frontier.patches[pj].0 == lv {
                pj += 1;
            }
            if !frontier.is_pending(li) {
                let c_u = lvl.label[li];
                cache.out_table.gather(li, &mut scratch);
                let w_own = scratch.get(c_u) - cache.self_loop[li];
                let remove_u = dq::remove_gain(w_own, lvl.k[li], tot_snap[c_u as usize], s);
                // Fold the *known-exact* entries into a fresh summary:
                // the sentinel `(0.0, c_u)`, each patched candidate's
                // freshly recomputed entry, and every cached prefix
                // entry whose candidate is not in the group (unchanged,
                // so its cached value is still bitwise what a re-scan
                // would compute). Every entry outside this fold is
                // lexicographically ≤ the cached bound, so the fold's
                // max is the true new max whenever it reaches the bound
                // — and only when it falls short (the new maximum may
                // hide among the unchanged candidates) does the vertex
                // escalate to a full re-scan.
                let old = summ[li];
                let mut f = CandSummary::empty();
                f.fold(0.0, c_u);
                for px in pi..pj {
                    let c_new = frontier.patches[px].1;
                    debug_assert_ne!(c_new, c_u);
                    rows_patched += 1;
                    let w = scratch.get(c_new);
                    #[allow(clippy::float_cmp)]
                    // lint: allow(F1) — a zero-sum row is skipped like a dead one, as in the scan
                    if w == 0.0 {
                        continue; // entry removed: contributes nothing
                    }
                    let sz_new = size_snap[c_new as usize];
                    let sz_u = size_snap[c_u as usize];
                    #[allow(clippy::float_cmp)]
                    // lint: allow(F1) — community sizes are exact small-integer-valued f64 counters
                    let singles = sz_new == 1.0 && sz_u == 1.0;
                    if cfg.use_heuristic && singles && c_new > c_u {
                        continue; // guard-skipped: contributes nothing
                    }
                    let gain =
                        remove_u + dq::insert_gain(w, lvl.k[li], tot_snap[c_new as usize], s);
                    f.fold(gain, c_new);
                }
                for i in 0..old.v as usize {
                    let (g, c) = old.e[i];
                    // The sentinel is already the fold's seed; a prefix
                    // entry is unchanged iff it has no patch in the
                    // group (ids are distinct, groups are small).
                    if c != c_u && !(pi..pj).any(|px| frontier.patches[px].1 == c) {
                        f.fold(g, c);
                    }
                }
                // Resolution: a `-∞` bound means the cached fold
                // enumerated every contributing entry, so nothing is
                // hiding below the prefix.
                let bounded = old.bound.0.is_finite();
                if bounded && lex_gt(old.bound.0, old.bound.1, f.e[0].0, f.e[0].1) {
                    frontier.wake(li);
                } else {
                    // The fold entries that clear the bound are exactly
                    // the top of the new entry set (no hidden entry can
                    // interleave above them — pairs are unique, so a
                    // hidden entry equal to the bound still loses to a
                    // fold entry at the bound). Entries below stay
                    // covered: hidden ones by the old bound, fold
                    // overflow by the last slot when the prefix is full.
                    if bounded {
                        let filled = f.v as usize;
                        f.v = (0..filled)
                            .take_while(|&i| !lex_gt(old.bound.0, old.bound.1, f.e[i].0, f.e[i].1))
                            .count() as u8;
                    }
                    f.bound = if (f.v as usize) == SUMMARY_K {
                        f.e[SUMMARY_K - 1]
                    } else {
                        old.bound
                    };
                    m_u[li] = f.e[0].0;
                    best[li] = f.e[0].1;
                    summ[li] = f;
                    // A patch fold keeps the cached decision exact, so
                    // eligibility routes through the ledger as usual.
                    frontier.set_eligible(li, m_u[li] > 0.0);
                }
            }
            pi = pj;
        }
        frontier.commit(iter == 1);
        if first_level {
            st.frontier_occupancy.push(frontier.worklist.len() as u64);
        }
        prev_tot.clone_from(&tot_snap);
        prev_size.clone_from(&size_snap);
        let mut rows_scanned = 0usize;
        // Index loop instead of a worklist iterator: the scan updates the
        // eligibility ledger of the same frontier mid-iteration.
        for wi in 0..frontier.worklist.len() {
            let li = frontier.worklist[wi] as usize;
            let c_u = lvl.label[li];
            let mut cs = CandSummary::empty();
            cs.fold(0.0, c_u);
            cache.out_table.gather(li, &mut scratch);
            let w_own = scratch.get(c_u) - cache.self_loop[li];
            let remove_u = dq::remove_gain(w_own, lvl.k[li], tot_snap[c_u as usize], s);
            // Candidate communities are exactly the live Out-Table rows
            // of `u`, gathered in first-seen arc order. The fold below is
            // order-independent, so that order never shows.
            for &(c_new, w) in &scratch.rows {
                rows_scanned += 1;
                if c_new == c_u {
                    continue;
                }
                // A live row of zero-weight arcs sums to exactly 0.0; it
                // offers no gain, and the patch pass skips it the same
                // way.
                #[allow(clippy::float_cmp)]
                // lint: allow(F1) — a zero-sum row is skipped like a dead one
                if w == 0.0 {
                    continue;
                }
                // Singleton swap guard (minimum-label rule): two singleton
                // communities deciding to join each other simultaneously would
                // swap forever on stale state; only the higher-labelled one
                // may move. Standard symmetric-oscillation breaker for
                // synchronous Louvain (cf. Lu et al., Grappolo); complements
                // the paper's ε threshold, which throttles volume but cannot
                // break exact two-cycles. Part of the convergence machinery,
                // so disabled in the no-heuristic ablation.
                #[allow(clippy::float_cmp)]
                // lint: allow(F1) — community sizes are exact small-integer-valued f64 counters
                let singles = size_snap[c_new as usize] == 1.0 && size_snap[c_u as usize] == 1.0;
                if cfg.use_heuristic && singles && c_new > c_u {
                    continue;
                }
                let gain = remove_u + dq::insert_gain(w, lvl.k[li], tot_snap[c_new as usize], s);
                // The best move is the lexicographic max over
                // (gain, community id) — order-independent, so any
                // candidate order selects the identical candidate (the
                // id tie-break the perturbation harness forced).
                // Demoted entries cascade down the summary, keeping the
                // exact top-`SUMMARY_K` of the fold for the patch pass
                // (`total_cmp` Equal means identical bits, so the
                // equal-gain promote leaves the max unchanged).
                cs.fold(gain, c_new);
            }
            cs.seal();
            m_u[li] = cs.e[0].0;
            best[li] = cs.e[0].1;
            summ[li] = cs;
            // Eligibility ledger: a vertex that still sees a worthwhile
            // gain may merely be ε-throttled this sweep — it can migrate
            // in a later iteration with *no* further input change, so it
            // must stay reachable by the UPDATE sweep. Re-scanning it
            // would be waste, though: with unchanged inputs the cached
            // decision is already exact, so the ledger — not the scan
            // frontier — carries it forward.
            frontier.set_eligible(li, m_u[li] > 0.0);
        }
        // The UPDATE sweep below consumes the rebuilt (ascending)
        // eligible list: freshly scanned vertices contribute their new
        // verdict, unscanned ones their sticky — and still exact — one.
        frontier.commit_eligible();
        // Local compute charge: one unit per candidate row scanned or
        // patched plus one per active vertex (the remove-gain pass). The
        // frontier is schedule-invariant, so the charge — and the
        // simulated clock — remain deterministic.
        ctx.charge((rows_scanned + rows_patched + frontier.worklist.len()) as f64);

        // --- Threshold ΔQ̂ from the ε schedule (Section IV-B) ---
        let threshold = if cfg.use_heuristic {
            compute_threshold(ctx, &m_u, lvl.n, cfg, iter)
        } else {
            0.0
        };
        // The find-best lap closes at the threshold reductions (the scan
        // itself has no collective; its compute charge is accounted by the
        // sync that follows). Without the heuristic there is no threshold
        // collective, so the scan's clock delta folds into the update lap.
        meter.lap(ctx, Phase::FindBestCommunity);

        // --- UPDATE COMMUNITY INFORMATION ---
        // Algorithm 4 lines 13–15 apply the Σ_tot changes *immediately*
        // while sweeping the local vertices. We mirror that: moves are
        // applied sequentially against a locally updated Σ_tot view and
        // re-vetted — the precomputed gain may have gone stale as earlier
        // local moves crowded the target community. A move whose
        // re-evaluated gain is no longer positive is skipped. This
        // recovers most of the Gauss-Seidel quality a purely synchronous
        // snapshot loses.
        let mut tot_view = tot_snap;
        let mut local_moves = 0u64;
        migrated.clear();
        {
            let part = &lvl.part;
            let label = &mut lvl.label;
            let k = &lvl.k;
            let mut ex = ctx.exchange();
            // Movers are a subset of the eligibility ledger (by
            // construction: eligible ⟺ cached `m_u` clears the
            // threshold), and the eligible list is ascending — so this
            // sweep visits the same candidate vertices in the same order
            // as the full `0..local_n` scan, and the Gauss-Seidel
            // `tot_view` evolves bit-identically. ε-throttled vertices
            // ride along on their cached decision without having been
            // re-scanned. Index loop: the mover self-wake below re-arms
            // the pending set of the same frontier mid-sweep.
            for ei in 0..frontier.eligible_list.len() {
                let li = frontier.eligible_list[ei] as usize;
                if m_u[li] > 0.0 && m_u[li] >= threshold {
                    let c_old = label[li];
                    let c_new = best[li];
                    let u = part.global(rank, li);
                    let k_u = k[li];
                    // Re-vet only with the heuristic enabled; the
                    // no-heuristic ablation applies snapshot decisions blindly, which
                    // is exactly the chaotic motion of Section III.
                    if cfg.use_heuristic {
                        let w_old = cache.out_table.weight(li, c_old) - cache.self_loop[li];
                        let w_new = cache.out_table.weight(li, c_new);
                        let gain = dq::move_gain(
                            w_old,
                            w_new,
                            k_u,
                            tot_view[c_old as usize],
                            tot_view[c_new as usize],
                            s,
                        );
                        if gain <= 0.0 {
                            continue;
                        }
                        tot_view[c_old as usize] -= k_u;
                        tot_view[c_new as usize] += k_u;
                    }
                    label[li] = c_new;
                    local_moves += 1;
                    migrated.push((u, c_new));
                    // Mover self-wake: the label change invalidates the
                    // cached scan (w_own, remove side, even the interior
                    // test all read `c_u`), and W2's interior exclusion
                    // means membership alone no longer guarantees a
                    // re-scan — a vertex whose only external row was its
                    // new home becomes interior the moment it arrives.
                    // That freshly-interior mover needs no re-scan at
                    // all, though: with every live row pointing at its
                    // new home, a scan's candidate loop never runs, so
                    // the exact fresh result is the sentinel — install
                    // it directly. (Rows are frozen during this sweep —
                    // the deltas land in the next propagation, where W1
                    // catches any subsequent row birth.)
                    if !cache.out_table.has_external(li, c_new) {
                        m_u[li] = 0.0;
                        best[li] = c_new;
                        summ[li] = CandSummary::sentinel_only(c_new);
                        frontier.set_eligible(li, m_u[li] > 0.0);
                    } else {
                        frontier.wake(li);
                    }
                    // b flags join (1) vs leave (0) for size tracking.
                    ex.send(
                        part.owner(c_old),
                        Msg {
                            a: c_old,
                            b: 0,
                            w: -k_u,
                        },
                    );
                    ex.send(
                        part.owner(c_new),
                        Msg {
                            a: c_new,
                            b: 1,
                            w: k_u,
                        },
                    );
                }
            }
            // Buffer first, apply in sorted order: Σ_tot is floating
            // point, so the accumulation must be a function of the
            // delta *multiset*, not of the (perturbable, and for
            // mixed-magnitude weights ulp-visible) delivery order.
            let mut tot_deltas: Vec<(u32, u32, u64)> = Vec::new();
            ex.finish(|m| tot_deltas.push((m.a, m.b, m.w.to_bits())));
            tot_deltas.sort_unstable();
            let tot = &mut lvl.tot;
            let size = &mut lvl.size;
            for &(a, b, w_bits) in &tot_deltas {
                let li = part.local_index(a);
                tot[li] += f64::from_bits(w_bits);
                if b == 1 {
                    size[li] += 1;
                } else {
                    size[li] -= 1;
                }
            }
        }
        let moves = ctx.allreduce_sum_u64(local_moves);
        meter.lap(ctx, Phase::UpdateCommunity);
        fractions.push(moves as f64 / lvl.n.max(1) as f64);

        // --- STATE PROPAGATION (Algorithm 4, line 16) ---
        // Delta mode: only migrated vertices are announced. `moves` is
        // the allreduce result, identical on every rank, so when nothing
        // moved anywhere the exchange is skipped in lockstep (the
        // zero-delta fast path) and the iteration still terminates
        // through the modularity collective below.
        if moves > 0 {
            propagate_deltas(
                ctx,
                lvl,
                cache,
                &migrated,
                &mut frontier,
                cfg.v1_state_rebuild,
            );
        }
        meter.lap(ctx, Phase::StatePropagation);

        // --- Σ_in and modularity (Algorithm 4, lines 18–25) ---
        q = compute_modularity(ctx, lvl, &cache.out_table, s);
        meter.lap(ctx, Phase::ComputeModularity);
        meter.end_iteration(first_level);
        q_trace.push(q);

        if moves == 0 {
            break;
        }
        let fraction = moves as f64 / lvl.n.max(1) as f64;
        if cfg.use_heuristic
            && iter > 1
            && (q - q_prev < MIN_Q_IMPROVEMENT || fraction < MIN_MOVE_FRACTION)
        {
            break;
        }
        q_prev = q;
    }
    st.frontier_stats = st.frontier_stats.sum(&frontier.stats);
    (q, iterations, fractions, q_trace)
}

/// Translates ε(iter) into the gain threshold `ΔQ̂` with a global
/// log-spaced histogram of the positive gains — "we build a histogram
/// based on m_u and calculate the update threshold" (Section IV-C2).
fn compute_threshold(
    ctx: &RankCtx<'_, Msg>,
    m_u: &[f64],
    n_global: usize,
    cfg: &ParallelConfig,
    iter: usize,
) -> f64 {
    let eps = cfg.schedule.epsilon(iter);
    let local_max = m_u.iter().copied().fold(0.0f64, f64::max);
    let global_max = ctx.allreduce_max(local_max);
    if global_max <= 0.0 {
        return 0.0; // nobody wants to move
    }
    let bins = HISTOGRAM_BINS;
    let hi = global_max;
    let lo = hi * 1e-9;
    let log_span = (hi / lo).ln();
    let bin_of = |g: f64| -> usize {
        if g <= lo {
            0
        } else {
            (((g / lo).ln() / log_span) * bins as f64).min(bins as f64 - 1.0) as usize
        }
    };
    let mut hist = vec![0.0f64; bins];
    for &g in m_u {
        if g > 0.0 {
            hist[bin_of(g)] += 1.0;
        }
    }
    let hist = ctx.allreduce_sum_vec(&hist);
    let total_positive: f64 = hist.iter().sum();
    let keep = (eps * n_global as f64).ceil();
    if keep >= total_positive {
        return 0.0; // budget not binding: all positive gains move
    }
    // Walk bins from the top, accumulating until the budget is filled.
    let mut cum = 0.0;
    for b in (0..bins).rev() {
        cum += hist[b];
        if cum >= keep {
            // Lower edge of bin b.
            return lo * (log_span * b as f64 / bins as f64).exp();
        }
    }
    0.0
}

/// Σ_in accumulation and global modularity (Algorithm 4, lines 18–25).
fn compute_modularity(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &mut RankLevel,
    out_table: &RowIndex,
    s: f64,
) -> f64 {
    lvl.internal.iter_mut().for_each(|x| *x = 0.0);
    {
        let part = &lvl.part;
        let label = &lvl.label;
        let mut ex = ctx.exchange();
        // Each local vertex contributes its own-community row, if live.
        for (li, &c) in label.iter().enumerate() {
            let w = out_table.weight(li, c);
            // Dead rows (see the find-best scan) carry no weight and
            // must not be shipped.
            #[allow(clippy::float_cmp)]
            // lint: allow(F1) — a dead row reads exact 0.0 (an empty fold)
            let live = w != 0.0;
            if live {
                ex.send(part.owner(c), Msg { a: c, b: 0, w });
            }
        }
        // Σ_in is floating point: sort the contributions so the sum is a
        // function of the message multiset, independent of delivery order
        // (which the perturbation harness scrambles and mixed-magnitude
        // weights expose at ulp scale).
        let mut contribs: Vec<(u32, u64)> = Vec::new();
        ex.finish(|m| contribs.push((m.a, m.w.to_bits())));
        contribs.sort_unstable();
        let internal = &mut lvl.internal;
        for &(c, w_bits) in &contribs {
            internal[part.local_index(c)] += f64::from_bits(w_bits);
        }
    }
    let mut q_local = 0.0;
    for li in 0..lvl.internal.len() {
        let tot = lvl.tot[li];
        // lint: allow(F1) — exact zero sentinel: empty communities carry Σ_tot = 0.0 exactly
        if tot != 0.0 {
            q_local += lvl.internal[li] / s - (tot / s) * (tot / s);
        }
    }
    ctx.allreduce_sum(q_local)
}

/// GRAPH RECONSTRUCTION (Algorithm 5): compact surviving community ids,
/// update `orig_comm`, and rebuild the next level's In-Table through an
/// all-to-all over the Out-Table `rows`. Returns the next level.
fn reconstruct(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &RankLevel,
    rows: &RowIndex,
    orig_comm: &mut [u32],
    cfg: &ParallelConfig,
) -> RankLevel {
    let rank = ctx.rank();
    let p = ctx.num_ranks();
    let part = &lvl.part;

    // 1. Owners learn which of their communities are non-empty.
    let mut distinct: Vec<u32> = lvl.label.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let mut owned: Vec<u32> = Vec::new();
    {
        let mut ex = ctx.exchange();
        for &c in &distinct {
            ex.send(part.owner(c), Msg { a: c, b: 0, w: 0.0 });
        }
        ex.finish(|m| owned.push(m.a));
    }
    owned.sort_unstable();
    owned.dedup();

    // 2. Dense new ids: rank r's communities get ids
    //    [offset_r, offset_r + count_r).
    let counts = ctx.allgather_f64(&[owned.len() as f64]);
    let offset: usize = counts.iter().take(rank).map(|&c| c as usize).sum();
    let n_next: usize = counts.iter().map(|&c| c as usize).sum();

    // 3. Replicate the old→new mapping (each owner broadcasts its pairs)
    //    into a dense array indexed by old id; `u32::MAX` marks an empty
    //    community, which no lookup below may hit.
    let mut map = vec![u32::MAX; lvl.n];
    {
        let mut ex = ctx.exchange();
        for (i, &c) in owned.iter().enumerate() {
            let new_id = (offset + i) as u32;
            for dest in 0..p {
                ex.send(
                    dest,
                    Msg {
                        a: c,
                        b: new_id,
                        w: 0.0,
                    },
                );
            }
        }
        ex.finish(|m| map[m.a as usize] = m.b);
    }
    let new_id = |c: u32| {
        let id = map[c as usize];
        assert_ne!(id, u32::MAX, "community {c} has no new id");
        id
    };

    // 4. Project original vertices: current level vertex id -> its final
    //    community in new-id space. Requires the replicated label array.
    let labels_f64: Vec<f64> = lvl.label.iter().map(|&l| l as f64).collect();
    let gathered = ctx.allgather_f64(&labels_f64);
    let mut offsets = vec![0usize; p + 1];
    for r in 0..p {
        offsets[r + 1] = offsets[r] + part.local_count(r);
    }
    for oc in orig_comm.iter_mut() {
        let x = *oc;
        let owner = part.owner(x);
        let old_label = gathered[offsets[owner] + part.local_index(x)] as u32;
        *oc = new_id(old_label);
    }

    // 5. Rebuild the In-Table in new-id space: ((u, c), w) becomes
    //    ((c'_new, c_new), w) sent to the owner of c_new. Under the
    //    arc-balanced strategy the super-graph is *repartitioned* here,
    //    before the rows are routed — the repartition rides the
    //    reconstruction all-to-all instead of adding a migration round
    //    (DESIGN.md §15).
    // The live rows are gathered once; the load count and the send loop
    // both read this list, so they count and ship the same rows.
    let out_table = rows.all_rows(lvl.n);
    let part_next = build_vertex_partition(ctx, cfg, n_next, || {
        // Arc load of super-vertex `b`: live Out-Table rows landing on
        // it, counted before cross-rank duplicate arcs merge — an
        // upper-bound proxy for the next In-Table's row distribution.
        let mut loads = vec![0.0f64; n_next];
        for &(_, c_old, _) in &out_table {
            loads[new_id(c_old) as usize] += 1.0;
        }
        loads
    });
    let in_table = {
        let label = &lvl.label;
        let mut ex = ctx.exchange();
        for &(li, c_old, w) in &out_table {
            // Only live rows are walked, and a live row's community has
            // at least one member, so `new_id(c_old)` always hits. Every
            // live row ships, even one whose weight sums to exact 0.0:
            // the next level's delta protocol needs the In-Table's key
            // set symmetric (DESIGN.md §10).
            let a = new_id(label[li as usize]);
            let b = new_id(c_old);
            ex.send(part_next.owner(b), Msg { a, b, w });
        }
        // Sorted application: the next level's edge weights (and the k
        // sums step 6 folds over them in key order) must be a function of
        // the arc multiset, not of the perturbable delivery order.
        let mut arcs: Vec<(u64, u64)> = Vec::new();
        ex.finish(|m| arcs.push((pack_key(m.a, m.b), m.w.to_bits())));
        arcs.sort_unstable();
        merge_sorted_arcs(&arcs)
    };

    // 6. The next level starts at singleton communities.
    RankLevel::singletons(part_next, in_table, rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{SeqConfig, SequentialLouvain};
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
    use louvain_hash::EdgeTable;
    use louvain_metrics::{modularity, similarity::nmi, Partition as P};

    fn planted_graph(seed: u64) -> (EdgeList, Vec<u32>) {
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
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let el = b.build();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(8)).run(&el);
        assert!(r.result.final_partition.num_communities() <= 3);
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
        // silent, and its keyed sends are where dedup lives.
        assert!(cb.state_propagation > 0);
        assert!(r.comm.dedup_hits > 0);
        assert!(r.cache_invalidations > 0);
        // Strictly below the v1 rebuild volume of one message per arc
        // per inner iteration (robust to phase tuning, unlike comparing
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
    fn zero_delta_fast_path_sends_no_state_propagation_messages() {
        // Two vertices with only self-loops: no vertex ever migrates, so
        // the inner loop runs exactly one iteration in which (a) the
        // Out-Table is built from local data and (b) the delta exchange
        // is skipped in lockstep — zero state-propagation messages —
        // while the phase still terminates through the closing
        // modularity collective.
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
        // and produce identical results.
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
        let solver = ParallelLouvain::new(ParallelConfig::with_ranks(ranks));
        let a = solver.run(&el);
        let b = solver.run_from_parts(el.num_vertices(), |r| chunks[r].clone());
        assert_eq!(a.result.final_modularity, b.result.final_modularity);
        assert_eq!(
            a.result.final_partition.labels(),
            b.result.final_partition.labels()
        );
        // TEPS accounting: both attribute the same total input edges.
        assert_eq!(a.input_edges, el.num_edges());
        assert_eq!(b.input_edges, el.num_edges());
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

    /// The In-Table as the hashed loader built it: every arc accumulated
    /// into an [`EdgeTable`] in edge order, read out sorted by key.
    fn hashed_in_table(edges: &EdgeList, part: &AnyPartition, rank: usize) -> Vec<(u64, u64)> {
        let mut t = EdgeTable::new(8);
        for e in edges.edges() {
            if e.u == e.v {
                if part.owner(e.u) == rank {
                    t.accumulate(pack_key(e.u, e.u), 2.0 * e.w);
                }
            } else {
                if part.owner(e.v) == rank {
                    t.accumulate(pack_key(e.u, e.v), e.w);
                }
                if part.owner(e.u) == rank {
                    t.accumulate(pack_key(e.v, e.u), e.w);
                }
            }
        }
        let mut arcs: Vec<(u64, u64)> = t.iter().map(|(key, w)| (key, w.to_bits())).collect();
        arcs.sort_unstable();
        arcs
    }

    fn in_table_bits(lvl: &RankLevel) -> Vec<(u64, u64)> {
        lvl.in_table
            .iter()
            .map(|&(key, w)| (key, w.to_bits()))
            .collect()
    }

    #[test]
    fn counting_sort_loader_matches_hashed_accumulation() {
        // Self-loops (one repeated), isolated vertices 9 and 10, and
        // duplicate edges in both orientations; weights mix magnitudes so
        // a different summation order would show in the bits.
        let raw: &[(u32, u32, f64)] = &[
            (0, 1, 1e16),
            (1, 0, 1.0),
            (0, 1, 0.3),
            (2, 2, 0.1),
            (2, 2, 2.5e-3),
            (3, 2, 7.77),
            (4, 5, 1.0),
            (5, 4, 1e8),
            (6, 7, 0.1),
            (7, 8, 0.3),
            (8, 6, 1.0),
            (11, 11, 1.0),
            (0, 11, 2.0),
            (3, 8, 0.1),
        ];
        let mut b = EdgeListBuilder::new(12);
        for &(u, v, w) in raw {
            b.add_edge(u, v, w);
        }
        let el = b.build();
        for ranks in [1, 2, 3] {
            for partition in [PartitionStrategy::Modulo, PartitionStrategy::ArcBalanced] {
                let cfg = ParallelConfig {
                    partition,
                    ..ParallelConfig::with_ranks(ranks)
                };
                let tables = louvain_runtime::run::<Msg, _, _>(ranks, |ctx| {
                    let lvl = build_initial_level(ctx, &el, &cfg);
                    (
                        in_table_bits(&lvl),
                        hashed_in_table(&el, &lvl.part, ctx.rank()),
                    )
                });
                let mut total = 0;
                for (rank, (got, want)) in tables.iter().enumerate() {
                    assert!(
                        got.windows(2).all(|p| p[0].0 < p[1].0),
                        "{ranks} ranks {partition:?}, rank {rank}: keys not strictly ascending"
                    );
                    assert_eq!(got, want, "{ranks} ranks {partition:?}, rank {rank}");
                    total += got.len();
                }
                // Every non-loop edge is stored on both endpoints' owners.
                let loops = el.edges().iter().filter(|e| e.u == e.v).count();
                assert_eq!(total, 2 * el.num_edges() - loops);
            }
        }
    }

    #[test]
    fn distributed_merge_loader_matches_replicated_loader_on_integer_weights() {
        // Raw chunks that repeat edges within and across ranks: the merge
        // pass must sum them into exactly the replicated table (integer
        // weights sum exactly in any order).
        let (el, _) = planted_graph(23);
        let ranks = 3;
        let chunk = |r: usize| {
            let mut b = EdgeListBuilder::new(el.num_vertices());
            for (i, e) in el.edges().iter().enumerate() {
                if i % ranks == r {
                    b.add_edge(e.u, e.v, e.w);
                }
                if i % 5 == r {
                    b.add_edge(e.v, e.u, 2.0 * e.w);
                }
            }
            b.build()
        };
        let mut doubled = EdgeListBuilder::new(el.num_vertices());
        for (i, e) in el.edges().iter().enumerate() {
            let extra = if i % 5 < ranks { 2.0 * e.w } else { 0.0 };
            doubled.add_edge(e.u, e.v, e.w + extra);
        }
        let doubled = doubled.build();
        let cfg = ParallelConfig::with_ranks(ranks);
        let tables = louvain_runtime::run::<Msg, _, _>(ranks, |ctx| {
            let lvl =
                build_initial_level_distributed(ctx, el.num_vertices(), &chunk(ctx.rank()), &cfg);
            let replicated = build_initial_level(ctx, &doubled, &cfg);
            (in_table_bits(&lvl), in_table_bits(&replicated))
        });
        for (rank, (distributed, replicated)) in tables.iter().enumerate() {
            assert!(
                distributed.windows(2).all(|p| p[0].0 < p[1].0),
                "rank {rank}"
            );
            assert_eq!(distributed, replicated, "rank {rank}");
        }
    }

    /// Builds a single-rank [`RankLevel`] over `edges` for white-box
    /// tests of the remote-state cache.
    fn single_rank_level(n: usize, edges: &[(u32, u32, f64)]) -> RankLevel {
        let part = AnyPartition::Modulo(ModuloPartition::new(n, 1));
        let mut in_table = EdgeTable::new(edges.len() * 2 + 8);
        for &(u, v, w) in edges {
            in_table.accumulate(pack_key(u, v), w);
            in_table.accumulate(pack_key(v, u), w);
        }
        let mut in_table: Vec<(u64, f64)> = in_table.iter().collect();
        in_table.sort_unstable_by_key(|&(key, _)| key);
        RankLevel::singletons(part, in_table, 0)
    }

    /// Reference Out-Table: a from-scratch rebuild of `lvl`'s In-Table
    /// under the cache's current labels, accumulated in key order — so
    /// each row folds its arcs in ascending source order, as a gather
    /// does.
    fn rebuild_reference(lvl: &RankLevel, cache: &RemoteCache) -> EdgeTable {
        let mut t = EdgeTable::new(lvl.in_table.len().max(8));
        for &(key, w) in &lvl.in_table {
            let (s, d) = unpack_key(key);
            let idx = cache.srcs.binary_search(&s).expect("source in cache");
            t.accumulate(pack_key(d, cache.labels[idx]), w);
        }
        t
    }

    /// Every live row of the cache's Out-Table as `((vertex, community),
    /// weight bits)`, ascending; the single-rank test levels make
    /// `li == vertex`.
    fn live_rows(lvl: &RankLevel, cache: &RemoteCache) -> Vec<(u64, u64)> {
        cache
            .out_table
            .all_rows(lvl.n)
            .into_iter()
            .map(|(li, c, w)| (pack_key(li, c), w.to_bits()))
            .collect()
    }

    /// The W1 rows a batch must report: both rows of every arc whose
    /// source changes label, as a sorted set.
    fn expected_dirt(
        lvl: &RankLevel,
        cache: &RemoteCache,
        batch: &[(u32, u32)],
    ) -> Vec<(u32, u32)> {
        let mut dirt = Vec::new();
        for &(u, c_new) in batch {
            let Ok(idx) = cache.srcs.binary_search(&u) else {
                continue;
            };
            let c_old = cache.labels[idx];
            for &(key, _) in &lvl.in_table {
                let (s, d) = unpack_key(key);
                if s == u && c_old != c_new {
                    dirt.push((d, c_old));
                    dirt.push((d, c_new));
                }
            }
        }
        dirt.sort_unstable();
        dirt.dedup();
        dirt
    }

    /// Applies `batches` to one cache in delivery order and to another in
    /// reverse order, asserting after every batch that both equal a
    /// from-scratch rebuild under the cached labels bit for bit, that
    /// `weight` agrees with the gathered rows bitwise, that the interior
    /// test matches the rows, and that the dirty set is exactly the rows
    /// the batch's arcs left and joined.
    fn assert_cache_matches_rebuild(lvl: &RankLevel, batches: &[Vec<(u32, u32)>]) {
        let mut cache = RemoteCache::build(lvl, 0);
        let mut reversed = RemoteCache::build(lvl, 0);
        for (bi, batch) in batches.iter().enumerate() {
            let want_dirt = expected_dirt(lvl, &cache, batch);
            let (mut dirt, mut rev_dirt) = (Vec::new(), Vec::new());
            cache.apply_deltas(batch, |li, c| dirt.push((li, c)));
            let rev_batch: Vec<(u32, u32)> = batch.iter().rev().copied().collect();
            reversed.apply_deltas(&rev_batch, |li, c| rev_dirt.push((li, c)));
            for d in [&mut dirt, &mut rev_dirt] {
                d.sort_unstable();
                d.dedup();
            }
            assert_eq!(dirt, want_dirt, "batch {bi}: dirty set");
            assert_eq!(rev_dirt, want_dirt, "batch {bi}: reversed dirty set");
            assert_eq!(cache.labels, reversed.labels, "batch {bi}: labels");
            assert_eq!(
                cache.out_table.label, reversed.out_table.label,
                "batch {bi}: arc labels"
            );
            let rows = live_rows(lvl, &cache);
            assert_eq!(rows, live_rows(lvl, &reversed), "batch {bi}: reversed rows");
            let mut want: Vec<(u64, u64)> = rebuild_reference(lvl, &cache)
                .iter()
                .map(|(key, w)| (key, w.to_bits()))
                .collect();
            want.sort_unstable();
            assert_eq!(rows, want, "batch {bi}: rows diverged from the rebuild");
            for &(key, w_bits) in &rows {
                let (li, c) = unpack_key(key);
                let w = cache.out_table.weight(li as usize, c);
                assert_eq!(w.to_bits(), w_bits, "batch {bi}: weight({li}, {c})");
            }
            for li in 0..lvl.label.len() {
                let cs: Vec<u32> = rows
                    .iter()
                    .map(|&(key, _)| unpack_key(key))
                    .filter(|&(d, _)| d as usize == li)
                    .map(|(_, c)| c)
                    .collect();
                for c in 0..lvl.n as u32 {
                    assert_eq!(
                        cache.out_table.has_external(li, c),
                        cs.iter().any(|&e| e != c),
                        "batch {bi}: has_external({li}, {c})"
                    );
                }
            }
        }
    }

    /// Mixed-magnitude weights whose sums depend on the fold order.
    const MIXED_EDGES: [(u32, u32, f64); 5] = [
        (0, 1, 1e16),
        (0, 2, 1.0),
        (0, 3, 0.3),
        (4, 1, 0.1),
        (4, 2, 2.5e7),
    ];

    /// Delta batches over [`MIXED_EDGES`]: rows are born, shared,
    /// vacated and re-joined. Vacating row `(0, 4)` after `1e16` and
    /// `1.0` shared it is the case where patched `+w`/`-w` arithmetic
    /// would leave a residue.
    const MIXED_BATCHES: [&[(u32, u32)]; 4] = [
        &[(1, 4), (2, 4), (3, 4)],
        &[(1, 3), (2, 3)],
        &[(2, 0), (3, 0), (1, 0)],
        &[(1, 4)],
    ];

    #[test]
    fn gathered_rows_match_a_rebuild_on_mixed_batches() {
        let lvl = single_rank_level(5, &MIXED_EDGES);
        let batches: Vec<Vec<(u32, u32)>> = MIXED_BATCHES.iter().map(|b| b.to_vec()).collect();
        assert_cache_matches_rebuild(&lvl, &batches);
        // The vacated row reads exact 0.0, and its re-join starts from it.
        let mut cache = RemoteCache::build(&lvl, 0);
        for batch in &batches[..3] {
            cache.apply_deltas(batch, |_, _| {});
        }
        assert_eq!(cache.out_table.weight(0, 4).to_bits(), 0.0f64.to_bits());
        cache.apply_deltas(&[(1, 4)], |_, _| {});
        assert_eq!(cache.out_table.weight(0, 4).to_bits(), 1e16f64.to_bits());
    }

    /// Edge weights spanning 23 orders of magnitude, so the row sums
    /// round differently under any change of fold order.
    const ORACLE_WEIGHTS: [f64; 6] = [1e16, 1.0, 0.3, 0.1, 2.5e7, 1e-7];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn gathered_rows_match_a_rebuild_on_random_batches(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0usize..6), 1..40),
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u32..12), 0..10),
                1..8,
            ),
        ) {
            let edges: Vec<(u32, u32, f64)> =
                edges.iter().map(|&(u, v, i)| (u, v, ORACLE_WEIGHTS[i])).collect();
            // A vertex migrates at most once per sweep: keep each
            // vertex's first delta in a batch.
            let batches: Vec<Vec<(u32, u32)>> = batches
                .into_iter()
                .map(|b| {
                    let mut seen = [false; 12];
                    b.into_iter()
                        .filter(|&(u, _)| !std::mem::replace(&mut seen[u as usize], true))
                        .collect()
                })
                .collect();
            assert_cache_matches_rebuild(&single_rank_level(12, &edges), &batches);
        }
    }

    #[test]
    fn mixed_magnitude_weights_survive_delta_patching() {
        // End-to-end: non-integer, mixed-magnitude weights whose sums
        // are not exactly representable, run under the perturbation
        // harness. Pre-structural-liveness this could panic in
        // reconstruction (`map[&c_old]` on a phantom residue row); now
        // the run must complete with a self-consistent modularity at
        // every rank count and perturb seed.
        let (el0, _) = planted_graph(23);
        let mut b = EdgeListBuilder::new(el0.num_vertices());
        for (i, e) in el0.edges().iter().enumerate() {
            let w = match i % 3 {
                0 => 1e8,
                1 => 0.1,
                _ => 0.3,
            };
            b.add_edge(e.u, e.v, w);
        }
        let el = b.build();
        let g = el.to_csr();
        for ranks in [2, 4] {
            for seed in [None, Some(1), Some(7)] {
                let r = ParallelLouvain::new(ParallelConfig {
                    perturb_seed: seed,
                    ..ParallelConfig::with_ranks(ranks)
                })
                .run(&el);
                assert!(r.result.final_partition.is_valid());
                let q = modularity(&g, &r.result.final_partition);
                assert!(
                    (q - r.result.final_modularity).abs() <= 1e-9 * (1.0 + q.abs()),
                    "ranks={ranks} seed={seed:?}: reported {} vs recomputed {q}",
                    r.result.final_modularity
                );
            }
        }
    }

    /// Satellite property test (ISSUE 8): frontier scheduling is an
    /// optimization, not a semantic change. A frontier-scheduled run and
    /// a full-scan (`full_rescan`) run must produce bit-identical
    /// assignments, per-level modularity, and final modularity across
    /// rank counts and perturbation seeds — on the mixed-magnitude
    /// weighted graphs where floating-point order sensitivity would
    /// surface first (the PR 4 review-fix generator).
    #[test]
    fn frontier_matches_full_rescan_bit_for_bit() {
        let (el0, _) = planted_graph(23);
        let mut b = EdgeListBuilder::new(el0.num_vertices());
        for (i, e) in el0.edges().iter().enumerate() {
            let w = match i % 3 {
                0 => 1e8,
                1 => 0.1,
                _ => 0.3,
            };
            b.add_edge(e.u, e.v, w);
        }
        let el = b.build();
        for ranks in [2, 4] {
            for seed in [None, Some(1), Some(7)] {
                let run = |full_rescan: bool| {
                    ParallelLouvain::new(ParallelConfig {
                        perturb_seed: seed,
                        full_rescan,
                        ..ParallelConfig::with_ranks(ranks)
                    })
                    .run(&el)
                };
                let f = run(false);
                let full = run(true);
                assert_eq!(
                    f.result.final_partition.labels(),
                    full.result.final_partition.labels(),
                    "ranks={ranks} seed={seed:?}: assignments diverged"
                );
                assert_eq!(
                    f.result.final_modularity.to_bits(),
                    full.result.final_modularity.to_bits(),
                    "ranks={ranks} seed={seed:?}: modularity diverged"
                );
                for (a, b) in f.result.levels.iter().zip(&full.result.levels) {
                    assert_eq!(
                        a.modularity.to_bits(),
                        b.modularity.to_bits(),
                        "ranks={ranks} seed={seed:?}: level modularity diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_skips_scans_and_reports_occupancy() {
        let (el, _) = planted_graph(11);
        let n = el.num_vertices() as u64;
        let run = |full_rescan: bool| {
            ParallelLouvain::new(ParallelConfig {
                full_rescan,
                ..ParallelConfig::with_ranks(4)
            })
            .run(&el)
        };
        let f = run(false);
        let full = run(true);
        // The full-scan ablation never skips and keeps everyone active.
        assert_eq!(full.frontier.skipped_scans, 0);
        assert_eq!(full.frontier.reactivations, 0);
        // The frontier run does strictly less find-best work for the
        // same (bit-identical) answer, and work conservation holds:
        // scanned + skipped on the frontier run equals the full scan.
        assert!(f.frontier.skipped_scans > 0);
        assert!(f.frontier.active_vertices < full.frontier.active_vertices);
        assert_eq!(
            f.frontier.active_vertices + f.frontier.skipped_scans,
            full.frontier.active_vertices
        );
        assert_eq!(
            f.result.final_modularity.to_bits(),
            full.result.final_modularity.to_bits()
        );
        // First-level occupancy: iteration 1 seeds every vertex, and the
        // frontier must shrink below that afterwards.
        assert_eq!(f.frontier_occupancy.first().copied(), Some(n));
        assert!(f.frontier_occupancy.len() >= 2);
        assert!(f.frontier_occupancy.iter().skip(1).any(|&o| o < n));
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
