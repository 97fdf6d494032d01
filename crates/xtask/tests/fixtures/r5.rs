// lint-fixture-path: crates/core/src/fixture_r5.rs
//! R5 fixture: collectives inside loops whose trip count derives from
//! rank-local data — ranks run different numbers of collective rounds.

/// `mine` is tainted by `rank()`, so each rank runs a different number
/// of allreduce rounds.
pub fn rank_dependent_for(ctx: &Ctx) {
    let mine = ctx.rank() + 1;
    for _ in 0..mine {
        let _ = ctx.allreduce_sum_u64(1);
    }
}

/// Same hazard through a `while` condition.
pub fn rank_dependent_while(ctx: &Ctx) {
    let mut left = ctx.rank();
    while left > 0 {
        ctx.barrier();
        left -= 1;
    }
}

/// The collective sits in the `while` condition itself, so it runs on
/// every test of a rank-local condition.
pub fn rank_dependent_while_condition(ctx: &Ctx) {
    let mut left = ctx.rank();
    while left > 0 && ctx.allreduce_sum(1.0) > 0.0 {
        left -= 1;
    }
}
