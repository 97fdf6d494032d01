//! Checkpoint/restart for the distributed solver (DESIGN.md §14).
//!
//! At every level boundary the solver can snapshot each rank's state —
//! the In-Table and its partition, the dendrogram prefix, frontier
//! counters, and the recorded protocol-log prefix — into an in-memory
//! [`CheckpointStore`]. A level starts at singleton communities, so the
//! labels, degrees and `Σ_tot` are a function of the In-Table and are
//! derived on restore, not stored. When a scheduled fault kills a rank
//! (see `louvain_runtime::fault`), the driver rewinds every rank to the
//! last checkpoint and re-executes; because every persisted quantity is
//! an exact bit pattern and every downstream consumer folds its inputs
//! in sorted order, the recovered run is **bit-identical** to a
//! fault-free run — same modularity, same dendrogram, same protocol log.
//!
//! Serialization uses the repo's hand-rolled std-only JSON
//! ([`crate::json`]): floats travel as `f64::to_bits` integers so
//! NaN/∞/−0.0 and every finite value round-trip exactly. A checkpoint
//! that fails validation is rejected with a named [`CheckpointError`] —
//! never silently resumed.

use crate::frontier::FrontierStats;
use crate::json::Json;
use crate::result::LevelInfo;
use louvain_hash::unpack_key;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version stamp of the checkpoint JSON layout. A mismatch is a
/// [`CheckpointError::Schema`] — a checkpoint from another build is
/// refused, not reinterpreted. v2 added the partition record
/// (`part_kind`/`part_owners`) and the level-0 vertex domain
/// (`orig_vertices`) for the pluggable-partition work (DESIGN.md §15).
/// v3 dropped every field a restore derives: the singleton state
/// (`k_bits`, `label`, `tot_bits`, `size`), `next_level`,
/// `q_prev_level_bits`, `cache_invalidations` and `orig_comm`. v4
/// dropped `n`, the last level's community count.
pub const CHECKPOINT_SCHEMA: u64 = 4;

/// Why a checkpoint was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The document is not valid JSON.
    Malformed(String),
    /// The document's `schema` stamp is not [`CHECKPOINT_SCHEMA`].
    Schema {
        /// The stamp found in the document.
        found: u64,
    },
    /// A required field is absent or has the wrong JSON type.
    Missing(&'static str),
    /// Fields are individually well-formed but mutually inconsistent
    /// (e.g. per-vertex arrays of different lengths).
    Corrupt(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema { found } => write!(
                f,
                "checkpoint schema v{found} does not match this build's v{CHECKPOINT_SCHEMA}"
            ),
            CheckpointError::Missing(field) => {
                write!(f, "checkpoint field {field:?} is missing or mistyped")
            }
            CheckpointError::Corrupt(what) => write!(f, "checkpoint is corrupt: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One level's summary with floats as exact bit patterns (the
/// serializable image of [`LevelInfo`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelSnapshot {
    /// Vertices at this level.
    pub num_vertices: u64,
    /// Communities found at this level.
    pub num_communities: u64,
    /// `modularity.to_bits()`.
    pub modularity_bits: u64,
    /// Inner iterations executed.
    pub inner_iterations: u64,
    /// `move_fractions`, element-wise `to_bits()`.
    pub move_fraction_bits: Vec<u64>,
    /// `q_trace`, element-wise `to_bits()`.
    pub q_trace_bits: Vec<u64>,
}

impl LevelSnapshot {
    /// Captures a [`LevelInfo`] as exact bits.
    #[must_use]
    pub fn of(info: &LevelInfo) -> Self {
        Self {
            num_vertices: info.num_vertices as u64,
            num_communities: info.num_communities as u64,
            modularity_bits: info.modularity.to_bits(),
            inner_iterations: info.inner_iterations as u64,
            move_fraction_bits: info.move_fractions.iter().map(|x| x.to_bits()).collect(),
            q_trace_bits: info.q_trace.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// Reconstructs the [`LevelInfo`] bit-for-bit.
    #[must_use]
    pub fn restore(&self) -> LevelInfo {
        LevelInfo {
            num_vertices: self.num_vertices as usize,
            num_communities: self.num_communities as usize,
            modularity: f64::from_bits(self.modularity_bits),
            inner_iterations: self.inner_iterations as usize,
            move_fractions: self
                .move_fraction_bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect(),
            q_trace: self
                .q_trace_bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect(),
        }
    }
}

/// One rank's solver state at a level boundary.
///
/// Each fact the level loop of `rank_main` carries across levels is
/// here once, with floats as bit patterns; the rest is derived on
/// restore. The resumed level is `levels.len()`, it starts at singleton
/// communities over the In-Table, and the last `level_orig_comms` entry
/// maps each original vertex into it. The In-Table is
/// persisted as-is: the solver already keeps it as `(key, weight)` pairs
/// strictly ascending by key, which validation re-checks on restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The rank this snapshot belongs to.
    pub rank: usize,
    /// World size the snapshot was taken under.
    pub ranks: usize,
    /// `to_bits()` of the global weight sum `s = 2m`.
    pub s_bits: u64,
    /// This rank's share of the input edge count.
    pub input_edges: u64,
    /// Sorted In-Table keys.
    pub in_keys: Vec<u64>,
    /// `to_bits()` of the weight for each entry of `in_keys`.
    pub in_w_bits: Vec<u64>,
    /// The originally-local vertices (level-0 ids) — the domain every
    /// `level_orig_comms` entry is indexed by. Under the modulo partition
    /// this is derivable from `(rank, ranks)` and the level-0 vertex
    /// count; under a balanced partition it is genuine state and must
    /// travel with the snapshot.
    pub orig_vertices: Vec<u32>,
    /// Partition strategy tag of the resumed level (`"modulo"` or
    /// `"arc_balanced"`), restored without communication.
    pub part_kind: String,
    /// Dense owner vector of the resumed level's partition — one rank id
    /// per global vertex. Empty for `"modulo"`, whose ownership is pure
    /// arithmetic.
    pub part_owners: Vec<u32>,
    /// Completed level summaries (the dendrogram prefix's metadata).
    pub levels: Vec<LevelSnapshot>,
    /// Per-completed-level labels of originally-local vertices (the
    /// dendrogram prefix itself); the last entry maps each original
    /// vertex to a vertex of the resumed level.
    pub level_orig_comms: Vec<Vec<u32>>,
    /// Frontier counters accumulated so far.
    pub frontier: FrontierStats,
    /// First-level frontier occupancy per inner iteration.
    pub frontier_occupancy: Vec<u64>,
    /// Names of the collectives recorded so far (empty unless protocol
    /// recording is on); seeded back so the recovered log splices.
    pub protocol_log: Vec<String>,
}

fn ck_field<'a>(obj: &'a Json, key: &'static str) -> Result<&'a Json, CheckpointError> {
    obj.get(key).ok_or(CheckpointError::Missing(key))
}

fn ck_u64(obj: &Json, key: &'static str) -> Result<u64, CheckpointError> {
    ck_field(obj, key)?
        .as_u64()
        .ok_or(CheckpointError::Missing(key))
}

fn ck_arr<'a>(obj: &'a Json, key: &'static str) -> Result<&'a [Json], CheckpointError> {
    ck_field(obj, key)?
        .as_arr()
        .ok_or(CheckpointError::Missing(key))
}

fn ck_u64s(obj: &Json, key: &'static str) -> Result<Vec<u64>, CheckpointError> {
    ck_arr(obj, key)?
        .iter()
        .map(|v| v.as_u64().ok_or(CheckpointError::Missing(key)))
        .collect()
}

/// `arr` as `u32`s: a mistyped element is missing, an oversized one corrupt.
fn u32s(arr: &Json, key: &'static str) -> Result<Vec<u32>, CheckpointError> {
    let arr = arr.as_arr().ok_or(CheckpointError::Missing(key))?;
    arr.iter()
        .map(|v| {
            let u = v.as_u64().ok_or(CheckpointError::Missing(key))?;
            u32::try_from(u).map_err(|_| CheckpointError::Corrupt(key))
        })
        .collect()
}

fn ck_u32s(obj: &Json, key: &'static str) -> Result<Vec<u32>, CheckpointError> {
    u32s(ck_field(obj, key)?, key)
}

fn ck_str(obj: &Json, key: &'static str) -> Result<String, CheckpointError> {
    ck_field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or(CheckpointError::Missing(key))
}

fn ck_strs(obj: &Json, key: &'static str) -> Result<Vec<String>, CheckpointError> {
    ck_arr(obj, key)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or(CheckpointError::Missing(key))
        })
        .collect()
}

fn uints(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&u| Json::UInt(u)).collect())
}

fn uints32(xs: &[u32]) -> Json {
    Json::Arr(xs.iter().map(|&u| Json::UInt(u64::from(u))).collect())
}

impl Checkpoint {
    /// Serializes the checkpoint. `parse(to_json(c).render()) == c`
    /// bit-for-bit (floats are carried as bit patterns).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let fr = &self.frontier;
        Json::Obj(vec![
            ("schema".into(), Json::UInt(CHECKPOINT_SCHEMA)),
            ("rank".into(), Json::UInt(self.rank as u64)),
            ("ranks".into(), Json::UInt(self.ranks as u64)),
            ("s_bits".into(), Json::UInt(self.s_bits)),
            ("input_edges".into(), Json::UInt(self.input_edges)),
            ("in_keys".into(), uints(&self.in_keys)),
            ("in_w_bits".into(), uints(&self.in_w_bits)),
            ("orig_vertices".into(), uints32(&self.orig_vertices)),
            ("part_kind".into(), Json::Str(self.part_kind.clone())),
            ("part_owners".into(), uints32(&self.part_owners)),
            (
                "levels".into(),
                Json::Arr(
                    self.levels
                        .iter()
                        .map(|l| {
                            Json::Obj(vec![
                                ("num_vertices".into(), Json::UInt(l.num_vertices)),
                                ("num_communities".into(), Json::UInt(l.num_communities)),
                                ("modularity_bits".into(), Json::UInt(l.modularity_bits)),
                                ("inner_iterations".into(), Json::UInt(l.inner_iterations)),
                                ("move_fraction_bits".into(), uints(&l.move_fraction_bits)),
                                ("q_trace_bits".into(), uints(&l.q_trace_bits)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "level_orig_comms".into(),
                Json::Arr(self.level_orig_comms.iter().map(|c| uints32(c)).collect()),
            ),
            (
                "frontier".into(),
                Json::Obj(vec![
                    ("active_vertices".into(), Json::UInt(fr.active_vertices)),
                    ("reactivations".into(), Json::UInt(fr.reactivations)),
                    ("skipped_scans".into(), Json::UInt(fr.skipped_scans)),
                ]),
            ),
            ("frontier_occupancy".into(), uints(&self.frontier_occupancy)),
            (
                "protocol_log".into(),
                Json::Arr(
                    self.protocol_log
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes and validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// Every defect is a named [`CheckpointError`]: bad JSON
    /// ([`CheckpointError::Malformed`] via [`Self::parse`]), a foreign
    /// schema stamp, a missing or mistyped field, or mutually
    /// inconsistent array lengths. A failed restore must abort loudly —
    /// silently resuming from damaged state would break the bit-identity
    /// contract this subsystem exists to keep.
    pub fn from_json(doc: &Json) -> Result<Self, CheckpointError> {
        let schema = ck_u64(doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Schema { found: schema });
        }
        let levels = ck_arr(doc, "levels")?
            .iter()
            .map(|l| {
                Ok(LevelSnapshot {
                    num_vertices: ck_u64(l, "num_vertices")?,
                    num_communities: ck_u64(l, "num_communities")?,
                    modularity_bits: ck_u64(l, "modularity_bits")?,
                    inner_iterations: ck_u64(l, "inner_iterations")?,
                    move_fraction_bits: ck_u64s(l, "move_fraction_bits")?,
                    q_trace_bits: ck_u64s(l, "q_trace_bits")?,
                })
            })
            .collect::<Result<_, CheckpointError>>()?;
        let level_orig_comms = ck_arr(doc, "level_orig_comms")?
            .iter()
            .map(|c| u32s(c, "level_orig_comms"))
            .collect::<Result<_, _>>()?;
        let fr = ck_field(doc, "frontier")?;
        let cp = Self {
            rank: ck_u64(doc, "rank")? as usize,
            ranks: ck_u64(doc, "ranks")? as usize,
            s_bits: ck_u64(doc, "s_bits")?,
            input_edges: ck_u64(doc, "input_edges")?,
            in_keys: ck_u64s(doc, "in_keys")?,
            in_w_bits: ck_u64s(doc, "in_w_bits")?,
            orig_vertices: ck_u32s(doc, "orig_vertices")?,
            part_kind: ck_str(doc, "part_kind")?,
            part_owners: ck_u32s(doc, "part_owners")?,
            levels,
            level_orig_comms,
            frontier: FrontierStats {
                active_vertices: ck_u64(fr, "active_vertices")?,
                reactivations: ck_u64(fr, "reactivations")?,
                skipped_scans: ck_u64(fr, "skipped_scans")?,
            },
            frontier_occupancy: ck_u64s(doc, "frontier_occupancy")?,
            protocol_log: ck_strs(doc, "protocol_log")?,
        };
        cp.validate()?;
        Ok(cp)
    }

    /// Parses and validates a rendered checkpoint.
    ///
    /// # Errors
    ///
    /// See [`Self::from_json`]; invalid JSON text is
    /// [`CheckpointError::Malformed`].
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let doc = Json::parse(text).map_err(CheckpointError::Malformed)?;
        Self::from_json(&doc)
    }

    /// Global vertices at the resumed level: the last completed level's
    /// community count (0 when no level completed, which validation
    /// refuses).
    #[must_use]
    pub fn n(&self) -> u64 {
        self.levels.last().map_or(0, |l| l.num_communities)
    }

    fn validate(&self) -> Result<(), CheckpointError> {
        // Checkpoints are taken after a level completes, and that level
        // fixes `n`, so every check below may read it.
        if self.levels.is_empty() {
            return Err(CheckpointError::Corrupt("no completed level"));
        }
        let n = self.n();
        if self.rank >= self.ranks {
            return Err(CheckpointError::Corrupt("rank out of range"));
        }
        if self.in_keys.len() != self.in_w_bits.len() {
            return Err(CheckpointError::Corrupt("in_keys/in_w_bits length skew"));
        }
        if self.in_keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CheckpointError::Corrupt("in_keys not strictly sorted"));
        }
        match self.part_kind.as_str() {
            "modulo" => {
                if !self.part_owners.is_empty() {
                    return Err(CheckpointError::Corrupt(
                        "modulo partition carries an owner vector",
                    ));
                }
            }
            "arc_balanced" => {
                if self.part_owners.len() as u64 != n {
                    return Err(CheckpointError::Corrupt(
                        "balanced partition owner vector length skew",
                    ));
                }
            }
            _ => return Err(CheckpointError::Corrupt("unknown partition kind")),
        }
        // Restore sums each arc into its destination's degree by local
        // index, so a key naming an out-of-range or foreign vertex would
        // silently corrupt another vertex's state. Only a balanced
        // checkpoint carries owners; modulo ownership is `v mod ranks`.
        for &key in &self.in_keys {
            let (src, dst) = unpack_key(key);
            if u64::from(src.max(dst)) >= n {
                return Err(CheckpointError::Corrupt(
                    "in_keys name a vertex outside 0..n",
                ));
            }
            let owner = self
                .part_owners
                .get(dst as usize)
                .map_or(dst as usize % self.ranks, |&r| r as usize);
            if owner != self.rank {
                return Err(CheckpointError::Corrupt(
                    "in_keys name a destination another rank owns",
                ));
            }
        }
        if self.levels.len() != self.level_orig_comms.len() {
            return Err(CheckpointError::Corrupt(
                "levels/level_orig_comms length skew",
            ));
        }
        if self
            .level_orig_comms
            .iter()
            .any(|c| c.len() != self.orig_vertices.len())
        {
            return Err(CheckpointError::Corrupt(
                "orig_vertices/level_orig_comms length skew",
            ));
        }
        // Reconstruction reads each original vertex's label at the index
        // of its entry here, so an entry past the level would take
        // another vertex's label instead of failing.
        let last = self.level_orig_comms.last().map_or(&[][..], Vec::as_slice);
        if last.iter().any(|&v| u64::from(v) >= n) {
            return Err(CheckpointError::Corrupt(
                "level_orig_comms names a vertex outside 0..n",
            ));
        }
        Ok(())
    }
}

/// Shared in-memory checkpoint storage: one slot per rank holding the
/// latest *rendered* checkpoint, plus cumulative counters.
///
/// Slots hold JSON text, not structs, so every restore exercises the
/// full serialize→parse→validate path — the same path an on-disk
/// checkpoint would take. Writes happen only inside the post-barrier
/// window of a level boundary (no collective between the barrier and
/// the write), so a scheduled crash — which can only fire at a
/// `sim_sync` — can never leave the store half-updated: either every
/// rank wrote level `L`'s snapshot, or none did.
#[derive(Debug)]
pub struct CheckpointStore {
    slots: Vec<Mutex<Option<String>>>,
    bytes: AtomicU64,
    taken: AtomicU64,
}

impl CheckpointStore {
    /// An empty store for `ranks` ranks.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        Self {
            slots: (0..ranks).map(|_| Mutex::new(None)).collect(),
            bytes: AtomicU64::new(0),
            taken: AtomicU64::new(0),
        }
    }

    /// Renders and stores `cp` into its rank's slot, replacing any
    /// previous snapshot. Returns the rendered size in bytes.
    pub fn save_slot(&self, cp: &Checkpoint) -> u64 {
        let rendered = cp.to_json().render();
        let len = rendered.len() as u64;
        // lint: allow(R3) — monotone local statistic, never read by the protocol
        self.bytes.fetch_add(len, Ordering::Relaxed);
        // lint: allow(R3) — monotone local statistic, never read by the protocol
        self.taken.fetch_add(1, Ordering::Relaxed);
        *lock_slot(&self.slots[cp.rank]) = Some(rendered);
        len
    }

    /// Parses and returns `rank`'s latest snapshot, or `None` if that
    /// rank never checkpointed.
    ///
    /// # Panics
    ///
    /// Panics with the named [`CheckpointError`] if the stored text no
    /// longer validates — restore never silently continues from damage.
    #[must_use]
    pub fn read_slot(&self, rank: usize) -> Option<Checkpoint> {
        let guard = lock_slot(&self.slots[rank]);
        let text = guard.as_ref()?;
        match Checkpoint::parse(text) {
            Ok(cp) => Some(cp),
            Err(e) => panic!("refusing to restore rank {rank}: {e}"),
        }
    }

    /// Total bytes of all checkpoints rendered so far (cumulative, not
    /// just the live slots).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        // lint: allow(R3) — read after all rank threads joined; no live peers
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of per-rank checkpoints taken so far.
    #[must_use]
    pub fn total_taken(&self) -> u64 {
        // lint: allow(R3) — read after all rank threads joined; no live peers
        self.taken.load(Ordering::Relaxed)
    }
}

fn lock_slot<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A rank can only die at a sim_sync, never while holding a slot, so
    // poisoning is unreachable; recover the guard rather than unwrap.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A replayable chaos scenario: everything needed to re-run one CI
/// failure locally (`louvain-bench --fault-plan <file>`). Uploaded as an
/// artifact by the chaos CI job when a recovered run mismatches.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCase {
    /// World size.
    pub ranks: usize,
    /// Schedule-perturbation seed (`None` = unperturbed).
    pub perturb_seed: Option<u64>,
    /// Checkpoint cadence in levels (0 = off).
    pub checkpoint_every_level: usize,
    /// The exact fault plan that produced the failure.
    pub fault_plan: louvain_runtime::FaultPlan,
}

impl ChaosCase {
    /// Serializes the case (crash clocks travel as bit patterns).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::UInt(CHECKPOINT_SCHEMA)),
            ("ranks".into(), Json::UInt(self.ranks as u64)),
            (
                "perturb_seed".into(),
                match self.perturb_seed {
                    Some(s) => Json::UInt(s),
                    None => Json::Bool(false),
                },
            ),
            (
                "checkpoint_every_level".into(),
                Json::UInt(self.checkpoint_every_level as u64),
            ),
            ("fault_seed".into(), Json::UInt(self.fault_plan.seed)),
            (
                "drop_one_in".into(),
                Json::UInt(self.fault_plan.drop_one_in),
            ),
            (
                "duplicate_one_in".into(),
                Json::UInt(self.fault_plan.duplicate_one_in),
            ),
            (
                "delay_one_in".into(),
                Json::UInt(self.fault_plan.delay_one_in),
            ),
            (
                "crashes".into(),
                Json::Arr(
                    self.fault_plan
                        .crashes
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("rank".into(), Json::UInt(c.rank as u64)),
                                ("at_clock_bits".into(), Json::UInt(c.at_clock.to_bits())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a case.
    ///
    /// # Errors
    ///
    /// The same named-error contract as [`Checkpoint::from_json`].
    pub fn from_json(doc: &Json) -> Result<Self, CheckpointError> {
        let schema = ck_u64(doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Schema { found: schema });
        }
        let perturb_seed = match ck_field(doc, "perturb_seed")? {
            Json::Bool(false) => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or(CheckpointError::Missing("perturb_seed"))?,
            ),
        };
        let crashes = ck_arr(doc, "crashes")?
            .iter()
            .map(|c| {
                Ok(louvain_runtime::CrashPoint {
                    rank: ck_u64(c, "rank")? as usize,
                    at_clock: f64::from_bits(ck_u64(c, "at_clock_bits")?),
                })
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        Ok(Self {
            ranks: ck_u64(doc, "ranks")? as usize,
            perturb_seed,
            checkpoint_every_level: ck_u64(doc, "checkpoint_every_level")? as usize,
            fault_plan: louvain_runtime::FaultPlan {
                seed: ck_u64(doc, "fault_seed")?,
                drop_one_in: ck_u64(doc, "drop_one_in")?,
                duplicate_one_in: ck_u64(doc, "duplicate_one_in")?,
                delay_one_in: ck_u64(doc, "delay_one_in")?,
                crashes,
            },
        })
    }

    /// Parses a rendered case.
    ///
    /// # Errors
    ///
    /// See [`Self::from_json`].
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let doc = Json::parse(text).map_err(CheckpointError::Malformed)?;
        Self::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_hash::pack_key;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            rank: 1,
            ranks: 4,
            s_bits: 123.75f64.to_bits(),
            input_edges: 99,
            // Rank 1 of 4 owns destinations 1, 5 and 9.
            in_keys: vec![pack_key(0, 5), pack_key(3, 1), pack_key(9, 9)],
            in_w_bits: vec![
                1.0f64.to_bits(),
                f64::NAN.to_bits(),
                f64::NEG_INFINITY.to_bits(),
            ],
            orig_vertices: vec![1, 5, 9],
            part_kind: "modulo".into(),
            part_owners: vec![],
            levels: vec![
                LevelSnapshot {
                    num_vertices: 16,
                    num_communities: 12,
                    modularity_bits: 0.5f64.to_bits(),
                    inner_iterations: 3,
                    move_fraction_bits: vec![0.9f64.to_bits(), 0.1f64.to_bits()],
                    q_trace_bits: vec![0.3f64.to_bits()],
                },
                // The resumed level has n = 10 vertices.
                LevelSnapshot {
                    num_vertices: 12,
                    num_communities: 10,
                    modularity_bits: 0.6f64.to_bits(),
                    inner_iterations: 1,
                    move_fraction_bits: vec![],
                    q_trace_bits: vec![],
                },
            ],
            level_orig_comms: vec![vec![0, 1, 2], vec![0, 0, 1]],
            frontier: FrontierStats {
                active_vertices: 100,
                reactivations: 7,
                skipped_scans: 42,
            },
            frontier_occupancy: vec![10, 4, 1],
            protocol_log: vec!["Barrier".into(), "SimSync".into()],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let cp = sample_checkpoint();
        let back = Checkpoint::parse(&cp.to_json().render()).expect("restore");
        assert_eq!(back, cp); // Eq on bit patterns — NaN/∞/−0.0 included
    }

    #[test]
    fn level_snapshot_restores_float_values() {
        let info = LevelInfo {
            num_vertices: 8,
            num_communities: 3,
            modularity: 0.123_456_789,
            inner_iterations: 2,
            move_fractions: vec![1.0, 0.0],
            q_trace: vec![0.1, 0.123_456_789],
        };
        assert_eq!(LevelSnapshot::of(&info).restore(), info);
    }

    #[test]
    fn corrupted_checkpoints_are_rejected_with_named_errors() {
        assert!(matches!(
            Checkpoint::parse("{not json"),
            Err(CheckpointError::Malformed(_))
        ));

        let mut doc = sample_checkpoint().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::UInt(CHECKPOINT_SCHEMA + 1);
        }
        assert_eq!(
            Checkpoint::from_json(&doc),
            Err(CheckpointError::Schema {
                found: CHECKPOINT_SCHEMA + 1
            })
        );

        // Checkpoints of earlier layouts are refused, not read.
        for old in [2, 3] {
            let mut doc = sample_checkpoint().to_json();
            if let Json::Obj(fields) = &mut doc {
                fields[0].1 = Json::UInt(old);
            }
            assert_eq!(
                Checkpoint::from_json(&doc),
                Err(CheckpointError::Schema { found: old })
            );
        }

        let mut doc = sample_checkpoint().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "in_w_bits");
        }
        assert_eq!(
            Checkpoint::from_json(&doc),
            Err(CheckpointError::Missing("in_w_bits"))
        );

        // In-Table keys must name vertices of this level (either end)
        // whose destination this rank owns.
        let corrupt = |edit: &dyn Fn(&mut Checkpoint)| {
            let mut cp = sample_checkpoint();
            edit(&mut cp);
            Checkpoint::from_json(&cp.to_json())
        };
        let outside = Err(CheckpointError::Corrupt(
            "in_keys name a vertex outside 0..n",
        ));
        assert_eq!(corrupt(&|cp| cp.in_keys[2] = pack_key(9, 13)), outside);
        assert_eq!(corrupt(&|cp| cp.in_keys[2] = pack_key(10, 9)), outside);
        let foreign = Err(CheckpointError::Corrupt(
            "in_keys name a destination another rank owns",
        ));
        assert_eq!(corrupt(&|cp| cp.in_keys[2] = pack_key(9, 8)), foreign);
        assert_eq!(
            corrupt(&|cp| {
                cp.part_kind = "arc_balanced".into();
                cp.part_owners = vec![0, 1, 2, 3, 0, 0, 2, 3, 0, 1];
            }),
            foreign
        );

        // Every dendrogram entry covers the level-0 vertex domain.
        assert_eq!(
            corrupt(&|cp| {
                cp.level_orig_comms[1].pop();
            }),
            Err(CheckpointError::Corrupt(
                "orig_vertices/level_orig_comms length skew"
            ))
        );

        // The last dendrogram entry maps into the resumed level, whose
        // 10 vertices are the last level's communities.
        assert_eq!(
            corrupt(&|cp| cp.level_orig_comms[1][2] = 10),
            Err(CheckpointError::Corrupt(
                "level_orig_comms names a vertex outside 0..n"
            ))
        );
        assert_eq!(corrupt(&|cp| cp.levels[1].num_communities = 8), outside);

        // Checkpoints are taken after a level completes, and the resumed
        // level's vertex map is the last completed level's.
        assert_eq!(
            corrupt(&|cp| {
                cp.levels.clear();
                cp.level_orig_comms.clear();
            }),
            Err(CheckpointError::Corrupt("no completed level"))
        );

        // Unsorted In-Table keys.
        let mut cp = sample_checkpoint();
        cp.in_keys.swap(0, 2);
        assert_eq!(
            Checkpoint::from_json(&cp.to_json()),
            Err(CheckpointError::Corrupt("in_keys not strictly sorted"))
        );

        // A balanced partition must carry one owner per global vertex.
        let mut cp = sample_checkpoint();
        cp.part_kind = "arc_balanced".into();
        cp.part_owners = vec![0, 1];
        assert_eq!(
            Checkpoint::from_json(&cp.to_json()),
            Err(CheckpointError::Corrupt(
                "balanced partition owner vector length skew"
            ))
        );

        // A partition kind this build doesn't know is refused, not
        // defaulted.
        let mut cp = sample_checkpoint();
        cp.part_kind = "hash".into();
        assert_eq!(
            Checkpoint::from_json(&cp.to_json()),
            Err(CheckpointError::Corrupt("unknown partition kind"))
        );
    }

    #[test]
    fn balanced_partition_checkpoint_round_trips() {
        let mut cp = sample_checkpoint();
        cp.part_kind = "arc_balanced".into();
        cp.part_owners = vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]; // n = 10
        let back = Checkpoint::parse(&cp.to_json().render()).expect("restore");
        assert_eq!(back, cp);
    }

    #[test]
    fn store_keeps_latest_snapshot_and_counts_bytes() {
        let store = CheckpointStore::new(4);
        assert!(store.read_slot(1).is_none());
        let cp = sample_checkpoint();
        let len = store.save_slot(&cp);
        assert_eq!(store.total_bytes(), len);
        assert_eq!(store.total_taken(), 1);
        let mut cp2 = cp.clone();
        cp2.levels.push(cp2.levels[1].clone());
        cp2.level_orig_comms.push(vec![0, 0, 0]);
        store.save_slot(&cp2);
        assert_eq!(store.read_slot(1), Some(cp2));
        assert_eq!(store.total_taken(), 2);
        assert!(store.read_slot(0).is_none());
    }

    #[test]
    fn chaos_case_round_trips() {
        let case = ChaosCase {
            ranks: 4,
            perturb_seed: Some(13),
            checkpoint_every_level: 1,
            fault_plan: louvain_runtime::FaultPlan {
                seed: 7,
                drop_one_in: 0,
                duplicate_one_in: 0,
                delay_one_in: 0,
                crashes: vec![louvain_runtime::CrashPoint {
                    rank: 2,
                    at_clock: 10_000.5,
                }],
            },
        };
        let back = ChaosCase::parse(&case.to_json().render()).expect("parse");
        assert_eq!(back, case);
        let none_seed = ChaosCase {
            perturb_seed: None,
            ..case
        };
        assert_eq!(
            ChaosCase::parse(&none_seed.to_json().render()).expect("parse"),
            none_seed
        );
    }
}
