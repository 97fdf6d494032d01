//! GRAPH RECONSTRUCTION (Algorithm 5): the Out-Table becomes the next
//! level's In-Table through one all-to-all.

use super::level::{build_vertex_partition, merge_sorted_arcs, RankLevel};
use super::out_table::OutTable;
use super::{Msg, ParallelConfig};
use louvain_graph::partition::AnyPartition;
use louvain_hash::{pack_key, unpack_key};
use louvain_runtime::RankCtx;

/// GRAPH RECONSTRUCTION (Algorithm 5): compact surviving community ids,
/// and rebuild the next level's In-Table through an all-to-all over the
/// Out-Table `rows`. `orig_comm` maps each originally-local vertex to a
/// vertex of this level. Returns the next level and that map projected
/// onto it: each original vertex's community, as a next-level vertex.
pub(super) fn reconstruct(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &RankLevel,
    rows: &OutTable,
    orig_comm: &[u32],
    cfg: &ParallelConfig,
) -> (RankLevel, Vec<u32>) {
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
    let orig_comm = orig_comm
        .iter()
        .map(|&v| map[gathered[offsets[part.owner(v)] + part.local_index(v)] as usize])
        .collect();
    drop((labels_f64, gathered));
    let new_id = |c: u32| {
        let id = map[c as usize];
        assert_ne!(id, u32::MAX, "community {c} has no new id");
        id
    };

    // 3. Rebuild the In-Table in new-id space: each live row
    //    ((u, c), w) becomes a part of super-arc (c'_new, c_new), and
    //    this rank sends each super-arc's combined weight once, to the
    //    owner of c_new. Under the arc-balanced strategy the super-graph
    //    is *repartitioned* here, before the arcs are routed — the
    //    repartition rides the reconstruction all-to-all instead of
    //    adding a migration round (DESIGN.md §15).
    let out_table = rows.all_rows(lvl.n());
    let part_next = build_vertex_partition(ctx, cfg, n_next, || {
        // Arc load of super-vertex `b`: live Out-Table rows landing on
        // it, counted before any duplicate arcs combine — an upper-bound
        // proxy for the next In-Table's row distribution.
        let mut loads = vec![0.0f64; n_next];
        for &(_, c_old, _) in &out_table {
            loads[new_id(c_old) as usize] += 1.0;
        }
        loads
    });
    // Only live rows are walked, and a live row's community has at least
    // one member, so `new_id(c_old)` always hits.
    let out_table = super_arcs(out_table, &lvl.label, new_id);
    let in_table = {
        let mut ex = ctx.exchange();
        for (key, w) in out_table {
            let (a, b) = unpack_key(key);
            ex.send(part_next.owner(b), Msg { a, b, w });
        }
        // Sorted application: the next level's edge weights (and the k
        // sums step 4 folds over them in key order) must be a function of
        // the arc multiset, not of the perturbable delivery order.
        let mut arcs: Vec<(u64, u64)> = Vec::new();
        ex.finish(|m| arcs.push((pack_key(m.a, m.b), m.w.to_bits())));
        arcs.sort_unstable();
        merge_sorted_arcs(arcs)
    };

    // 4. The next level starts at singleton communities.
    (
        RankLevel::singletons(part_next, in_table, ctx.rank()),
        orig_comm,
    )
}

/// This rank's super-arcs: each live Out-Table row `(li, c_old, w)`
/// re-keyed to `(new_id(label[li]), new_id(c_old))`, and each key's
/// weights folded in ascending bit order — the fold the receiver applies
/// to the partials of every rank, so the next level's weights depend on
/// which rows share a rank, never on delivery order. Every key is kept,
/// even one whose weight sums to exact 0.0: the next level's delta
/// protocol needs the In-Table's key set symmetric (DESIGN.md §10). The
/// rows are re-keyed in place, so no second row-sized buffer is made.
fn super_arcs(
    rows: Vec<(u32, u32, f64)>,
    label: &[u32],
    new_id: impl Fn(u32) -> u32,
) -> Vec<(u64, f64)> {
    let mut arcs: Vec<(u64, u64)> = rows
        .into_iter()
        .map(|(li, c_old, w)| {
            (
                pack_key(new_id(label[li as usize]), new_id(c_old)),
                w.to_bits(),
            )
        })
        .collect();
    arcs.sort_unstable();
    merge_sorted_arcs(arcs)
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
    use super::{dense_ids, super_arcs};
    use crate::parallel::level::merge_sorted_arcs;
    use louvain_graph::partition::{AnyPartition, BalancedPartition};
    use louvain_graph::partition1d::ModuloPartition;
    use louvain_hash::{pack_key, unpack_key};

    /// Per rank: live Out-Table rows, labels, and the total arc weight.
    type Level = (Vec<Vec<(u32, u32, f64)>>, Vec<Vec<u32>>, f64);
    /// Per rank: an In-Table as `(key, weight bits)`.
    type Tables = Vec<Vec<(u64, u64)>>;
    /// A level's partition, labels and `(u, v, w)` edges.
    type Case = (AnyPartition, Vec<u32>, Vec<(u32, u32, f64)>);

    /// One xorshift64 step.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

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
                    let label: Vec<u32> = (0..40).map(|_| (xorshift(&mut x) % 40) as u32).collect();
                    assert_same_ids(part, &label);
                }
            }
        }
    }

    /// One level spread over `part`: every rank's live Out-Table rows
    /// `(local vertex, community, weight)` ascending by vertex, then
    /// community, and its vertices' labels in local-index order, for
    /// `edges` symmetric `(u, v, w)` edges under the global `label`.
    /// Returns the ranks' rows and labels and the total arc weight.
    fn level(part: &AnyPartition, label: &[u32], edges: &[(u32, u32, f64)]) -> Level {
        let p = part.num_ranks();
        // (source, destination community) → weight, per arc direction.
        let mut arcs: Vec<((u32, u32), f64)> = Vec::new();
        for &(u, v, w) in edges {
            arcs.push(((u, label[v as usize]), w));
            if u != v {
                arcs.push(((v, label[u as usize]), w));
            }
        }
        let total = arcs.iter().map(|&(_, w)| w).sum();
        arcs.sort_by_key(|&(k, _)| k);
        let mut rows = vec![Vec::new(); p];
        for &((u, c), w) in &arcs {
            let r = part.owner(u);
            let li = part.local_index(u) as u32;
            match rows[r].last_mut() {
                Some((l, lc, sum)) if *l == li && *lc == c => *sum += w,
                _ => rows[r].push((li, c, w)),
            }
        }
        for r in &mut rows {
            r.sort_by_key(|&(li, c, _)| (li, c));
        }
        let labels = (0..p)
            .map(|r| part.local_vertices(r).map(|v| label[v as usize]).collect())
            .collect();
        (rows, labels, total)
    }

    /// The next level's In-Table at each rank of `part_next` when every
    /// rank sends `outbox(rank)`: each receiver sorts what it heard,
    /// delivered in a `shuffle`-seeded order, and folds it.
    fn in_tables(
        part_next: &AnyPartition,
        outbox: impl Fn(usize) -> Vec<(u64, f64)>,
        shuffle: u64,
    ) -> Tables {
        let p = part_next.num_ranks();
        let mut inbox: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
        for r in 0..p {
            for (key, w) in outbox(r) {
                inbox[part_next.owner(unpack_key(key).1)].push((key, w.to_bits()));
            }
        }
        let mut x = shuffle;
        inbox
            .into_iter()
            .map(|mut arcs| {
                for i in (1..arcs.len()).rev() {
                    arcs.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
                }
                arcs.sort_unstable();
                let merged = merge_sorted_arcs(arcs);
                merged.into_iter().map(|(k, w)| (k, w.to_bits())).collect()
            })
            .collect()
    }

    /// Reconstruction's next In-Tables two ways over the same level:
    /// combined per super-arc on every sender (the solver), and the
    /// uncombined exchange that ships one message per live row (the
    /// oracle), each delivered unshuffled and under two shuffles, which
    /// must not move a bit. Returns the combined tables, the oracle's,
    /// and the level's total arc weight.
    fn both_ways(
        part: &AnyPartition,
        next_kind: usize,
        label: &[u32],
        edges: &[(u32, u32, f64)],
    ) -> (Tables, Tables, f64) {
        let p = part.num_ranks();
        let (rows, labels, total) = level(part, label, edges);
        let (map, n_next) = dense_ids(part, label.iter().copied());
        let new_id = |c: u32| map[c as usize];
        let part_next = partitions(n_next, p)[next_kind].clone();
        let run = |combine: bool, shuffle: u64| {
            in_tables(
                &part_next,
                |r| {
                    if combine {
                        return super_arcs(rows[r].clone(), &labels[r], new_id);
                    }
                    let key = |li: u32, c| pack_key(new_id(labels[r][li as usize]), new_id(c));
                    rows[r].iter().map(|&(li, c, w)| (key(li, c), w)).collect()
                },
                shuffle,
            )
        };
        let (combined, oracle) = (run(true, 0), run(false, 0));
        for shuffle in [1, 7] {
            assert_eq!(run(true, shuffle), combined, "delivery order moved a bit");
            assert_eq!(run(false, shuffle), oracle, "delivery order moved a bit");
        }
        (combined, oracle, total)
    }

    /// `m` pseudo-random edges over `n` vertices, half of them inside
    /// blocks of 8, with weights drawn from `weights`, and labels that
    /// merge pseudo-random vertices into at most `n / 3 + 1` communities.
    fn random_level(
        x: &mut u64,
        n: u32,
        m: usize,
        weights: &[f64],
    ) -> (Vec<u32>, Vec<(u32, u32, f64)>) {
        let k = n / 3 + 1;
        let label = (0..n)
            .map(|_| (xorshift(x) % u64::from(k)) as u32)
            .collect();
        let edges = (0..m)
            .map(|i| {
                let u = (xorshift(x) % u64::from(n)) as u32;
                let v = if i % 2 == 0 {
                    (u / 8 * 8 + (xorshift(x) % 8) as u32).min(n - 1)
                } else {
                    (xorshift(x) % u64::from(n)) as u32
                };
                (u, v, weights[(xorshift(x) % weights.len() as u64) as usize])
            })
            .collect();
        (label, edges)
    }

    /// Every rank combining its rows per super-arc before the exchange
    /// gives the next In-Table the uncombined row exchange gives: with
    /// integer weights, bit for bit, at 1–6 ranks under Modulo and
    /// Balanced old and new partitions, and at 8 ranks over 3 vertices;
    /// with mixed-magnitude weights, the same key set and a total weight
    /// within 1e-12 of the arcs'. A key whose weight sums to exact 0.0
    /// still ships, and no delivery order moves a bit.
    #[test]
    fn combined_super_arcs_match_the_uncombined_row_exchange() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut zero_keys = 0;
        let mut cases: Vec<Case> = Vec::new();
        for p in 1..=6 {
            for part in partitions(45, p) {
                for _ in 0..4 {
                    let (label, edges) = random_level(&mut x, 45, 90, &[0.0, 1.0, 2.0, 3.0]);
                    cases.push((part.clone(), label, edges));
                }
            }
        }
        for part in partitions(3, 8) {
            let edges = vec![(0, 1, 2.0), (1, 2, 0.0), (2, 2, 5.0), (0, 0, 1.0)];
            for label in [vec![0, 1, 2], vec![2, 2, 0], vec![1, 1, 1]] {
                cases.push((part.clone(), label, edges.clone()));
            }
        }
        for (part, label, edges) in &cases {
            for next_kind in 0..2 {
                let (combined, oracle, _) = both_ways(part, next_kind, label, edges);
                assert_eq!(combined, oracle, "{:?}, {label:?}", part.strategy());
                zero_keys += combined.iter().flatten().filter(|&&(_, w)| w == 0).count();
            }
        }
        assert!(zero_keys > 0, "no case sums a super-arc to 0.0");

        let mixed = [1e8, 0.1, 0.3, 2.5e-3, 7.77, 1e16, 1.0, 0.0];
        for p in 1..=6 {
            for part in partitions(60, p) {
                for next_kind in 0..2 {
                    let (label, edges) = random_level(&mut x, 60, 150, &mixed);
                    let (combined, oracle, total) = both_ways(&part, next_kind, &label, &edges);
                    let keys = |t: &Tables| -> Vec<Vec<u64>> {
                        t.iter()
                            .map(|r| r.iter().map(|&(k, _)| k).collect())
                            .collect()
                    };
                    assert_eq!(keys(&combined), keys(&oracle), "{p} ranks: key sets");
                    let sum: f64 = combined
                        .iter()
                        .flatten()
                        .map(|&(_, w)| f64::from_bits(w))
                        .sum();
                    assert!(
                        (sum - total).abs() <= 1e-12 * total,
                        "{p} ranks: total weight {sum} vs {total}"
                    );
                }
            }
        }
    }
}
