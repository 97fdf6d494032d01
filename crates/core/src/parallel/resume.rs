//! Checkpoint glue of the level loop (DESIGN.md §14): restoring a rank's
//! loop state from its slot, and writing it at a level boundary.

use super::{level::RankLevel, LoopState, Msg, ParallelConfig};
use crate::checkpoint::{Checkpoint, CheckpointStore, LevelSnapshot};
use louvain_graph::partition::{AnyPartition, BalancedPartition, PartitionStrategy};
use louvain_graph::partition1d::ModuloPartition;
use louvain_runtime::{CollectiveKind, RankCtx};

/// The restart half of `rank_main`'s initialization: if this rank has
/// a checkpoint slot (and checkpointing is on), rebuild the loop state
/// from it — bit-for-bit — and seed the recorded protocol log with the
/// checkpointed prefix so the spliced log reads exactly like an
/// uninterrupted run's. Contains no collectives: a restored world goes
/// straight to the resumed level's first collective, in lockstep.
///
/// Reconstruction hands every level over at singleton communities, so
/// the resumed level is `RankLevel::singletons` over the persisted
/// In-Table — the same call on the same arcs, hence the same degree,
/// label, `Σ_tot` and size bits the uninterrupted run held.
pub(super) fn take_resume_state(
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
    let n = cp.n() as usize;
    // Restore may not communicate, so the partition is rebuilt from the
    // checkpoint alone: modulo from `(n, ranks)`, balanced from its
    // persisted owner vector, whose length validation has checked
    // (DESIGN.md §15).
    let part = match PartitionStrategy::from_tag(&cp.part_kind) {
        Some(PartitionStrategy::Modulo) => AnyPartition::Modulo(ModuloPartition::new(n, cfg.ranks)),
        Some(PartitionStrategy::ArcBalanced) => {
            AnyPartition::Balanced(BalancedPartition::from_owners(&cp.part_owners, cfg.ranks))
        }
        None => panic!("checkpoint names unknown partition kind {:?}", cp.part_kind),
    };
    // The persisted In-Table is already the live form: validation has
    // checked that its keys are strictly ascending and that each names
    // a destination this rank owns.
    let in_table = cp
        .in_keys
        .iter()
        .zip(&cp.in_w_bits)
        .map(|(&key, &w_bits)| (key, f64::from_bits(w_bits)))
        .collect();
    Some(LoopState {
        lvl: RankLevel::singletons(part, in_table, ctx.rank()),
        input_edges: cp.input_edges as usize,
        s: f64::from_bits(cp.s_bits),
        orig_vertices: cp.orig_vertices,
        levels: cp.levels.iter().map(LevelSnapshot::restore).collect(),
        level_orig_comms: cp.level_orig_comms,
        frontier_stats: cp.frontier,
        frontier_occupancy: cp.frontier_occupancy,
    })
}

/// Snapshots this rank's loop state into its [`CheckpointStore`] slot at
/// the boundary into level `st.levels.len()`. Called only inside the
/// post-barrier window of the level loop (see the call site for the
/// atomicity argument) and never inside a traced phase region (lint rule
/// X1). Returns the rendered checkpoint size in bytes.
pub(super) fn write_level_checkpoint(
    store: &CheckpointStore,
    ctx: &RankCtx<'_, Msg>,
    cfg: &ParallelConfig,
    st: &LoopState,
) -> u64 {
    let lvl = &st.lvl;
    let cp = Checkpoint {
        rank: ctx.rank(),
        ranks: cfg.ranks,
        s_bits: st.s.to_bits(),
        input_edges: st.input_edges as u64,
        // The In-Table is persisted as-is: it already is the sorted
        // (key, weight-bits) form the checkpoint stores.
        in_keys: lvl.in_table.iter().map(|&(key, _)| key).collect(),
        in_w_bits: lvl.in_table.iter().map(|&(_, w)| w.to_bits()).collect(),
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
