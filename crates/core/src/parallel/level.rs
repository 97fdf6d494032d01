//! One hierarchy level's per-rank state, and the loading superstep that
//! builds the first one (Algorithm 2, line 1).

use super::{LoopState, Msg, ParallelConfig, RunInput};
use crate::frontier::FrontierStats;
use louvain_graph::edgelist::EdgeList;
use louvain_graph::partition::{AnyPartition, BalancedPartition, PartitionStrategy};
use louvain_graph::partition1d::ModuloPartition;
use louvain_hash::{pack_key, unpack_key};
use louvain_runtime::RankCtx;

/// Per-rank state of one hierarchy level.
pub(crate) struct RankLevel {
    pub(crate) part: AnyPartition,
    /// In-edges of local vertices as `(pack_key(src, dst), weight)`,
    /// strictly ascending by key: nothing probes the table by key, so a
    /// sorted arc array replaces the paper's hashed `In_Table`.
    pub(super) in_table: Vec<(u64, f64)>,
    /// Weighted degree `k_u` per local vertex.
    pub(super) k: Vec<f64>,
    /// Community (global id) per local vertex.
    pub(crate) label: Vec<u32>,
    /// `Σ_tot` per *owned community* (local community index).
    pub(super) tot: Vec<f64>,
    /// Member count per owned community (for the singleton swap guard).
    pub(super) size: Vec<u32>,
}

impl RankLevel {
    /// The level over `in_table` at singleton communities: every local
    /// vertex is its own community (`c = v`, owned by the same rank), so
    /// `Σ_tot` starts at the weighted degree.
    pub(super) fn singletons(part: AnyPartition, in_table: Vec<(u64, f64)>, rank: usize) -> Self {
        debug_assert!(in_table.windows(2).all(|p| p[0].0 < p[1].0));
        let local_n = part.local_count(rank);
        let mut k = vec![0.0f64; local_n];
        for &(key, w) in &in_table {
            let (_, dst) = unpack_key(key);
            k[part.local_index(dst)] += w;
        }
        Self {
            label: part.local_vertices(rank).collect(),
            tot: k.clone(),
            size: vec![1; local_n],
            k,
            part,
            in_table,
        }
    }

    /// Global vertices at this level.
    pub(super) fn n(&self) -> usize {
        self.part.num_vertices()
    }
}

/// The fresh-start half of `rank_main`'s initialization: distribute
/// the input, reduce `2m`, and start the hierarchy at level 0. This is
/// the loading superstep of Algorithm 2, untouched — restore runs skip
/// it wholesale.
pub(super) fn fresh_rank_state(
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
            let max = part.max_weight();
            assert!(
                louvain_graph::band_scale(max).is_none(),
                "rank {}: largest chunk weight {max:e} lies outside [2^-64, 2^64]",
                ctx.rank()
            );
            let m = part.num_edges();
            (
                build_initial_level_distributed(ctx, *num_vertices, &part, cfg),
                m,
            )
        }
    };
    // 2m is invariant across levels (reconstruction preserves weight).
    let s = ctx.allreduce_sum(lvl.k.iter().sum());
    // The level-0 local vertices: the permanent domain the dendrogram
    // and the driver's final labels are indexed by.
    let orig_vertices = lvl.part.local_vertices(ctx.rank()).collect();
    LoopState {
        lvl,
        input_edges,
        s,
        orig_vertices,
        levels: Vec::new(),
        level_orig_comms: Vec::new(),
        frontier_stats: FrontierStats::default(),
        frontier_occupancy: Vec::new(),
    }
}

/// Builds a level's vertex partition (DESIGN.md §15). The modulo arm is
/// pure arithmetic — zero communication, so the default path's protocol
/// is untouched. The arc-balanced arm computes the local per-vertex load
/// counts, allreduces them (its one collective), and derives the LPT
/// assignment — a pure function of the reduced vector, so every rank
/// builds the identical partition.
pub(super) fn build_vertex_partition(
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
pub(crate) fn build_initial_level(
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
pub(super) fn merge_sorted_arcs(mut arcs: Vec<(u64, u64)>) -> Vec<(u64, f64)> {
    // `dedup_by` hands each element with the last one kept before it,
    // so every key's weights are summed left to right, in place.
    arcs.dedup_by(|(key, w), (last, sum)| {
        let same = key == last;
        if same {
            *sum = (f64::from_bits(*sum) + f64::from_bits(*w)).to_bits();
        }
        same
    });
    // Same size and alignment: the map reuses the allocation, and the
    // table, which lives for a level, gives back the merged-away tail.
    let mut in_table: Vec<(u64, f64)> = arcs
        .into_iter()
        .map(|(key, w)| (key, f64::from_bits(w)))
        .collect();
    in_table.shrink_to_fit();
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
    // Chunks come straight from the caller, not from a checked builder:
    // reject an out-of-range id in every build, before it indexes anything.
    for e in chunk.edges() {
        assert!(
            (e.u as usize) < n && (e.v as usize) < n,
            "rank {rank}: chunk edge ({}, {}) names a vertex outside 0..{n}",
            e.u,
            e.v
        );
    }
    // Distributed loading: chunks are disjoint, so the reduced vector is
    // the true per-vertex degree count.
    let part = build_vertex_partition(ctx, cfg, n, || degree_loads(n, chunk));
    let in_table = {
        let mut ex = ctx.exchange();
        for e in chunk.edges() {
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
        merge_sorted_arcs(arcs)
    };
    RankLevel::singletons(part, in_table, rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::planted_graph;
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_hash::EdgeTable;

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
}
