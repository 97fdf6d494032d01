//! GRAPH RECONSTRUCTION (Algorithm 5): the Out-Table becomes the next
//! level's In-Table through one all-to-all.

use super::level::{build_vertex_partition, merge_sorted_arcs, RankLevel};
use super::out_table::OutTable;
use super::{Msg, ParallelConfig};
use louvain_graph::partition::AnyPartition;
use louvain_hash::pack_key;
use louvain_runtime::RankCtx;

/// GRAPH RECONSTRUCTION (Algorithm 5): compact surviving community ids,
/// update `orig_comm`, and rebuild the next level's In-Table through an
/// all-to-all over the Out-Table `rows`. Returns the next level.
pub(super) fn reconstruct(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &RankLevel,
    rows: &OutTable,
    orig_comm: &mut [u32],
    cfg: &ParallelConfig,
) -> RankLevel {
    let part = &lvl.part;

    // 1. Replicate the labels: every rank derives the same dense ids.
    // 2. Project original vertices into new-id space.
    let labels_f64: Vec<f64> = lvl.label.iter().map(|&l| l as f64).collect();
    let gathered = ctx.allgather_f64(&labels_f64);
    let (map, n_next) = dense_ids(part, gathered.iter().map(|&l| l as u32));
    // Rank r's labels, in local-index order, start at offsets[r].
    let mut offsets = vec![0usize; part.num_ranks() + 1];
    for r in 0..part.num_ranks() {
        offsets[r + 1] = offsets[r] + part.local_count(r);
    }
    for oc in orig_comm.iter_mut() {
        let old_label = gathered[offsets[part.owner(*oc)] + part.local_index(*oc)] as u32;
        *oc = map[old_label as usize];
    }
    drop((labels_f64, gathered));
    let new_id = |c: u32| {
        let id = map[c as usize];
        assert_ne!(id, u32::MAX, "community {c} has no new id");
        id
    };

    // 3. Rebuild the In-Table in new-id space: ((u, c), w) becomes
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
        // sums step 4 folds over them in key order) must be a function of
        // the arc multiset, not of the perturbable delivery order.
        let mut arcs: Vec<(u64, u64)> = Vec::new();
        ex.finish(|m| arcs.push((pack_key(m.a, m.b), m.w.to_bits())));
        arcs.sort_unstable();
        merge_sorted_arcs(&arcs)
    };

    // 4. The next level starts at singleton communities.
    RankLevel::singletons(part_next, in_table, ctx.rank())
}

/// The old → new community map and the next level's size: owner `r`'s
/// communities that hold one of `labels` get the ids
/// `[offset_r, offset_r + count_r)` in ascending global id, where
/// `offset_r` sums the counts of the ranks before `r`. `u32::MAX` marks
/// an empty community, which no lookup may hit.
fn dense_ids(part: &AnyPartition, labels: impl Iterator<Item = u32>) -> (Vec<u32>, usize) {
    let p = part.num_ranks();
    // Live communities read 0 until numbered; `next[r + 1]` counts owner
    // r's, then `next[r]` is its next id.
    let mut map = vec![u32::MAX; part.num_vertices()];
    let mut next = vec![0u32; p + 1];
    for c in labels {
        if map[c as usize] == u32::MAX {
            map[c as usize] = 0;
            next[part.owner(c) + 1] += 1;
        }
    }
    for r in 0..p {
        next[r + 1] += next[r];
    }
    for (c, id) in map.iter_mut().enumerate() {
        if *id != u32::MAX {
            let r = part.owner(c as u32);
            *id = next[r];
            next[r] += 1;
        }
    }
    (map, next[p] as usize)
}

#[cfg(test)]
mod tests {
    use super::dense_ids;
    use louvain_graph::partition::{AnyPartition, BalancedPartition};
    use louvain_graph::partition1d::ModuloPartition;

    /// The owner-sourced compaction: every rank sends the distinct
    /// labels of its vertices to their owners, each owner sorts what it
    /// heard, and owner `r`'s communities get ids from the prefix sum of
    /// the owners' counts. `label` is indexed by global vertex id.
    fn owner_sourced_ids(part: &AnyPartition, label: &[u32]) -> (Vec<u32>, usize) {
        let p = part.num_ranks();
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); p];
        for r in 0..p {
            let mut distinct: Vec<u32> =
                part.local_vertices(r).map(|v| label[v as usize]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            for c in distinct {
                owned[part.owner(c)].push(c);
            }
        }
        let mut map = vec![u32::MAX; label.len()];
        let mut offset = 0;
        for list in &mut owned {
            list.sort_unstable();
            list.dedup();
            for (i, &c) in list.iter().enumerate() {
                map[c as usize] = (offset + i) as u32;
            }
            offset += list.len();
        }
        (map, offset)
    }

    fn assert_same_ids(part: &AnyPartition, label: &[u32]) {
        assert_eq!(
            dense_ids(part, label.iter().copied()),
            owner_sourced_ids(part, label),
            "{:?} with labels {label:?}",
            part.strategy()
        );
    }

    /// Both partition kinds of `n` vertices over `p` ranks: modulo, and a
    /// balanced one whose owners do not follow the vertex order.
    fn partitions(n: usize, p: usize) -> [AnyPartition; 2] {
        let loads: Vec<f64> = (0..n).map(|v| ((v * 7) % 5 + 1) as f64).collect();
        [
            AnyPartition::Modulo(ModuloPartition::new(n, p)),
            AnyPartition::Balanced(BalancedPartition::from_loads(&loads, p)),
        ]
    }

    #[test]
    fn label_derived_ids_match_the_owner_sourced_compaction() {
        // Singletons, then merges that empty most communities, then every
        // vertex in one community (so all ranks but one own no survivor),
        // then a survivor set only rank 0 owns under modulo.
        let n = 12;
        let labelings: [Vec<u32>; 4] = [
            (0..n as u32).collect(),
            vec![4, 4, 2, 2, 4, 11, 11, 2, 9, 9, 11, 4],
            vec![7; n],
            vec![0, 0, 3, 3, 3, 6, 6, 9, 9, 0, 3, 6],
        ];
        for p in [1, 2, 3, 5] {
            for part in &partitions(n, p) {
                for label in &labelings {
                    assert_same_ids(part, label);
                }
            }
        }
        // More ranks than vertices: five of the eight ranks own nothing.
        for part in &partitions(3, 8) {
            for label in [[0, 1, 2], [2, 2, 0], [1, 1, 1]] {
                assert_same_ids(part, &label);
            }
        }
        // Pseudo-random merges at every rank count up to 6.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for p in 1..=6 {
            for part in &partitions(40, p) {
                for _ in 0..20 {
                    let label: Vec<u32> = (0..40)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            (x % 40) as u32
                        })
                        .collect();
                    assert_same_ids(part, &label);
                }
            }
        }
    }
}
