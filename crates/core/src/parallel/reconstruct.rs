//! GRAPH RECONSTRUCTION (Algorithm 5): the Out-Table becomes the next
//! level's In-Table through one all-to-all.

use super::level::{build_vertex_partition, merge_sorted_arcs, RankLevel};
use super::out_table::OutTable;
use super::{Msg, ParallelConfig};
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
