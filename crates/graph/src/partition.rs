//! Pluggable vertex-ownership maps (DESIGN.md §15).
//!
//! The paper's Section IV-A fixes ownership to the 1D modulo
//! decomposition ([`crate::partition1d::ModuloPartition`]), which
//! balances vertex *counts*. The BSP cost model is max-over-ranks,
//! though, so on heavy-tail degree distributions the per-rank *arc*
//! skew of the modulo map becomes the dominant simulated-time term.
//! This module adds [`BalancedPartition`], a greedy LPT
//! (longest-processing-time) assignment over load-sorted vertices that
//! equalizes per-rank arc load instead, and [`AnyPartition`], the one
//! ownership type the distributed solver holds, which dispatches over
//! both maps.
//!
//! # The contract
//!
//! The contract the solver relies on, upheld by both maps and stated on
//! [`AnyPartition`]: a partition is a bijection between global vertex ids `0..n` and
//! `(rank, local index)` pairs with dense per-rank index spaces:
//!
//! * `owner(v)` < `num_ranks()` for every `v < n`;
//! * `local_index(v)` < `local_count(owner(v))`, and within one rank
//!   the local indices are exactly `0..local_count(rank)`;
//! * `global(owner(v), local_index(v)) == v` (round trip);
//! * `local_vertices(rank)` enumerates the rank's vertices in
//!   **ascending global id order** — solver sweeps iterate local
//!   indices, so this ordering is what keeps sweep order deterministic
//!   and partition-independent proofs simple;
//! * `Σ_rank local_count(rank) == n`.
//!
//! Community ids live in the same id space as vertex ids (a community
//! adopts its seed vertex's id), so one map serves both: the owner of
//! community `c` stores its `Σ_tot`/size entries at
//! `local_index(c)`. Every level starts at the singleton labelling
//! `c = v`, which under *any* partition means community `c` is owned by
//! the same rank as vertex `v` — the level-start `tot = k` shortcut in
//! the solver is therefore partition-independent.
//!
//! # Determinism
//!
//! [`BalancedPartition::from_loads`] is a pure function of the load
//! vector and rank count: vertices are ordered by `(load desc, id asc)`
//! (`total_cmp`, so ties are exact) and greedily placed on the
//! currently-lightest rank (lowest rank index on ties). Every rank
//! builds the partition from the same allreduced load vector, so all
//! ranks derive bit-identical ownership without further communication.

use crate::partition1d::ModuloPartition;
use crate::VertexId;

/// Which ownership map the distributed solver uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// The paper's 1D modulo decomposition (Section IV-A): vertex `v`
    /// is owned by rank `v mod p`. Zero build cost, zero communication,
    /// balanced vertex counts — but arc load rides the degree
    /// distribution.
    #[default]
    Modulo,
    /// Greedy LPT assignment over load-sorted vertices
    /// ([`BalancedPartition`]): per-rank **arc** load is equalized from
    /// a globally allreduced load vector, and the coarsened super-graph
    /// is repartitioned by super-vertex arc weight at every level
    /// boundary (DESIGN.md §15).
    ArcBalanced,
}

impl PartitionStrategy {
    /// Stable serialization tag (checkpoints, snapshots, traces).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::Modulo => "modulo",
            Self::ArcBalanced => "arc_balanced",
        }
    }

    /// Inverse of [`PartitionStrategy::tag`].
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "modulo" => Some(Self::Modulo),
            "arc_balanced" => Some(Self::ArcBalanced),
            _ => None,
        }
    }
}

/// Arc-balanced ownership map: greedy LPT over load-sorted vertices.
///
/// Construction is `O(n log n + n·p)` and embarrassingly deterministic
/// (see the module docs); lookups are `O(1)` array reads. Memory is
/// three dense arrays (`owner`, `local index`, grouped vertex list) —
/// `~12 bytes/vertex`, replicated per rank like the snapshot arrays the
/// solver already gathers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalancedPartition {
    p: usize,
    /// Owning rank per vertex.
    owner_of: Vec<u32>,
    /// Dense local index per vertex (within its owner's ascending list).
    local_of: Vec<u32>,
    /// CSR offsets into [`Self::verts`], one slice per rank.
    offsets: Vec<usize>,
    /// Vertices grouped by owning rank, ascending within each rank.
    verts: Vec<VertexId>,
}

impl BalancedPartition {
    /// Builds the LPT assignment from a per-vertex load vector (arc
    /// counts in the solver; any non-negative weights work). Loads are
    /// compared with `total_cmp`, so the build is a pure function of
    /// the input bits — every rank folding the same allreduced vector
    /// derives the identical partition.
    #[must_use]
    pub fn from_loads(loads: &[f64], p: usize) -> Self {
        assert!(p >= 1, "at least one rank required");
        let n = loads.len();
        assert!(
            u32::try_from(n).is_ok(),
            "partition overflow: {n} vertices exceed the u32 vertex id space"
        );
        // LPT order: heaviest first, id ascending on exact ties.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            loads[b as usize]
                .total_cmp(&loads[a as usize])
                .then(a.cmp(&b))
        });
        let mut rank_load = vec![0.0f64; p];
        let mut owner_of = vec![0u32; n];
        for &v in &order {
            // Lightest rank, lowest index on ties: a strict `<` scan.
            let mut lightest = 0usize;
            for r in 1..p {
                if rank_load[r] < rank_load[lightest] {
                    lightest = r;
                }
            }
            owner_of[v as usize] = lightest as u32;
            rank_load[lightest] += loads[v as usize];
        }
        Self::from_owner_vec(owner_of, p)
    }

    /// Rebuilds a partition from a dense per-vertex owner vector (the
    /// checkpoint restore path — restore may not communicate, so the
    /// assignment itself is persisted). Panics on an owner `>= p`.
    #[must_use]
    pub fn from_owners(owners: &[u32], p: usize) -> Self {
        assert!(p >= 1, "at least one rank required");
        for (v, &r) in owners.iter().enumerate() {
            assert!(
                (r as usize) < p,
                "partition owner out of bounds: vertex {v} assigned to rank {r} of {p}"
            );
        }
        Self::from_owner_vec(owners.to_vec(), p)
    }

    /// Shared constructor: derive the grouped list and local indices
    /// from an owner vector. Iterating vertices in ascending id order
    /// makes each rank's list ascending, which is the local index order
    /// the contract requires.
    fn from_owner_vec(owner_of: Vec<u32>, p: usize) -> Self {
        let n = owner_of.len();
        let mut offsets = vec![0usize; p + 1];
        for &r in &owner_of {
            offsets[r as usize + 1] += 1;
        }
        for r in 0..p {
            offsets[r + 1] += offsets[r];
        }
        let mut verts = vec![0u32; n];
        let mut local_of = vec![0u32; n];
        let mut cursor = offsets.clone();
        for (v, &r) in owner_of.iter().enumerate() {
            let slot = cursor[r as usize];
            verts[slot] = v as u32;
            local_of[v] = (slot - offsets[r as usize]) as u32;
            cursor[r as usize] += 1;
        }
        Self {
            p,
            owner_of,
            local_of,
            offsets,
            verts,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.owner_of.len()
    }

    /// Number of ranks.
    #[must_use]
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    /// Rank owning vertex `v`.
    #[inline(always)]
    #[must_use]
    pub fn owner(&self, v: VertexId) -> usize {
        self.owner_of[v as usize] as usize
    }

    /// Dense local index of `v` on its owner.
    #[inline(always)]
    #[must_use]
    pub fn local_index(&self, v: VertexId) -> usize {
        self.local_of[v as usize] as usize
    }

    /// Global vertex id of local index `i` on `rank`.
    #[inline(always)]
    #[must_use]
    pub fn global(&self, rank: usize, i: usize) -> VertexId {
        let s = self.offsets[rank];
        let e = self.offsets[rank + 1];
        assert!(i < e - s, "local index {i} out of bounds on rank {rank}");
        self.verts[s + i]
    }

    /// Number of vertices owned by `rank`.
    #[must_use]
    pub fn local_count(&self, rank: usize) -> usize {
        assert!(
            rank < self.p,
            "partition rank out of bounds: rank {rank} >= {} ranks",
            self.p
        );
        self.offsets[rank + 1] - self.offsets[rank]
    }

    /// The dense per-vertex owner vector (what a checkpoint persists).
    #[must_use]
    pub fn owners(&self) -> &[u32] {
        &self.owner_of
    }
}

/// Runtime-dispatched partition: the solver stores one of these per
/// level so the hot loops stay monomorphic over a two-way branch
/// instead of genericizing the whole module.
///
/// This is the vertex-ownership contract of the distributed solver
/// (DESIGN.md §15); see the module docs for the invariants both maps
/// uphold.
#[derive(Clone, Debug, PartialEq)]
pub enum AnyPartition {
    /// The paper's 1D modulo decomposition.
    Modulo(ModuloPartition),
    /// Greedy LPT arc-balanced assignment.
    Balanced(BalancedPartition),
}

impl AnyPartition {
    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        match self {
            Self::Modulo(m) => m.num_vertices(),
            Self::Balanced(b) => b.num_vertices(),
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn num_ranks(&self) -> usize {
        match self {
            Self::Modulo(m) => m.num_ranks(),
            Self::Balanced(b) => b.num_ranks(),
        }
    }

    /// Rank owning vertex `v`.
    #[inline(always)]
    #[must_use]
    pub fn owner(&self, v: VertexId) -> usize {
        match self {
            Self::Modulo(m) => m.owner(v),
            Self::Balanced(b) => b.owner(v),
        }
    }

    /// Dense local index of `v` on its owner.
    #[inline(always)]
    #[must_use]
    pub fn local_index(&self, v: VertexId) -> usize {
        match self {
            Self::Modulo(m) => m.local_index(v),
            Self::Balanced(b) => b.local_index(v),
        }
    }

    /// Global vertex id of local index `i` on `rank`.
    #[inline(always)]
    #[must_use]
    pub fn global(&self, rank: usize, i: usize) -> VertexId {
        match self {
            Self::Modulo(m) => m.global(rank, i),
            Self::Balanced(b) => b.global(rank, i),
        }
    }

    /// Number of vertices owned by `rank`.
    #[must_use]
    pub fn local_count(&self, rank: usize) -> usize {
        match self {
            Self::Modulo(m) => m.local_count(rank),
            Self::Balanced(b) => b.local_count(rank),
        }
    }

    /// Iterates the vertices owned by `rank` in ascending global id
    /// order.
    pub fn local_vertices(&self, rank: usize) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.local_count(rank)).map(move |i| self.global(rank, i))
    }

    /// Which strategy built this partition (checkpoint tag).
    #[must_use]
    pub fn strategy(&self) -> PartitionStrategy {
        match self {
            Self::Modulo(_) => PartitionStrategy::Modulo,
            Self::Balanced(_) => PartitionStrategy::ArcBalanced,
        }
    }

    /// Dense owner vector for balanced partitions (what a checkpoint
    /// persists); `None` for the modulo map, which is reconstructible
    /// from `(n, p)` alone.
    #[must_use]
    pub fn owners(&self) -> Option<&[u32]> {
        match self {
            Self::Modulo(_) => None,
            Self::Balanced(b) => Some(b.owners()),
        }
    }
}

/// Max-over-mean skew of a per-rank load vector: `1.0` is perfectly
/// balanced, `p` is everything-on-one-rank. The `imbalance` stat of
/// `ParallelResult` and the bench snapshot's per-rank skew series both
/// report this ratio.
#[must_use]
pub fn load_imbalance(per_rank: &[f64]) -> f64 {
    if per_rank.is_empty() {
        return 1.0;
    }
    let sum: f64 = per_rank.iter().sum();
    if sum <= 0.0 {
        return 1.0;
    }
    let mean = sum / per_rank.len() as f64;
    let max = per_rank.iter().copied().fold(0.0f64, f64::max);
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_contract(part: &AnyPartition, n: usize, p: usize) {
        assert_eq!(part.num_vertices(), n);
        assert_eq!(part.num_ranks(), p);
        let total: usize = (0..p).map(|r| part.local_count(r)).sum();
        assert_eq!(total, n, "ownership must sum to n");
        for v in 0..n as u32 {
            let r = part.owner(v);
            assert!(r < p);
            let i = part.local_index(v);
            assert!(i < part.local_count(r));
            assert_eq!(part.global(r, i), v, "local/global round trip");
        }
        for r in 0..p {
            let vs: Vec<u32> = part.local_vertices(r).collect();
            assert_eq!(vs.len(), part.local_count(r));
            assert!(vs.windows(2).all(|w| w[0] < w[1]), "ascending id order");
            for &v in &vs {
                assert_eq!(part.owner(v), r);
            }
        }
    }

    #[test]
    fn balanced_partition_upholds_the_contract() {
        let loads: Vec<f64> = (0..101).map(|i| ((i * 37) % 19) as f64).collect();
        for p in [1usize, 2, 3, 7, 16] {
            let part = BalancedPartition::from_loads(&loads, p);
            check_contract(&AnyPartition::Balanced(part), loads.len(), p);
        }
    }

    #[test]
    fn modulo_partition_upholds_the_contract() {
        for (n, p) in [(0usize, 3usize), (1, 1), (23, 4), (100, 7)] {
            let part = ModuloPartition::new(n, p);
            check_contract(&AnyPartition::Modulo(part), n, p);
        }
    }

    #[test]
    fn lpt_beats_modulo_on_skewed_loads() {
        // Hubs on the modulo stride: every vertex ≡ 0 (mod 4) is heavy,
        // so the modulo map piles all of them onto rank 0 while LPT
        // deals them around evenly.
        let p = 4;
        let loads: Vec<f64> = (0..64)
            .map(|i| if i % 4 == 0 { 100.0 } else { 1.0 })
            .collect();
        let balanced = BalancedPartition::from_loads(&loads, p);
        let modulo = ModuloPartition::new(loads.len(), p);
        let rank_load = |owner: &dyn Fn(u32) -> usize| -> Vec<f64> {
            let mut acc = vec![0.0f64; p];
            for (v, &l) in loads.iter().enumerate() {
                acc[owner(v as u32)] += l;
            }
            acc
        };
        let bal = load_imbalance(&rank_load(&|v| balanced.owner(v)));
        let moe = load_imbalance(&rank_load(&|v| modulo.owner(v)));
        assert!(
            bal * 1.5 <= moe,
            "balanced {bal} not >= 1.5x better than modulo {moe}"
        );
    }

    #[test]
    fn from_loads_is_deterministic() {
        let loads: Vec<f64> = (0..257)
            .map(|i| match i % 3 {
                0 => 1e16,
                1 => 0.1,
                _ => (i % 11) as f64,
            })
            .collect();
        for p in [2usize, 4, 8] {
            let a = BalancedPartition::from_loads(&loads, p);
            let b = BalancedPartition::from_loads(&loads, p);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn owners_roundtrip_through_from_owners() {
        let loads: Vec<f64> = (0..64).map(|i| (i % 9) as f64).collect();
        let a = BalancedPartition::from_loads(&loads, 4);
        let b = BalancedPartition::from_owners(a.owners(), 4);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "partition owner out of bounds")]
    fn from_owners_rejects_bad_ranks() {
        let _ = BalancedPartition::from_owners(&[0, 1, 9], 2);
    }

    #[test]
    fn strategy_tags_roundtrip() {
        for s in [PartitionStrategy::Modulo, PartitionStrategy::ArcBalanced] {
            assert_eq!(PartitionStrategy::from_tag(s.tag()), Some(s));
        }
        assert_eq!(PartitionStrategy::from_tag("nonsense"), None);
    }

    #[test]
    fn load_imbalance_ratio() {
        assert_eq!(load_imbalance(&[2.0, 2.0, 2.0, 2.0]), 1.0);
        assert_eq!(load_imbalance(&[4.0, 0.0, 0.0, 0.0]), 4.0);
        assert_eq!(load_imbalance(&[]), 1.0);
        assert_eq!(load_imbalance(&[0.0, 0.0]), 1.0);
    }
}
