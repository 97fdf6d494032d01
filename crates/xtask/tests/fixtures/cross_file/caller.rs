// lint-fixture-path: crates/core/src/fixture_cross_caller.rs
//! Cross-file R4 fixture, caller half: the rank-divergent branch calls a
//! function defined in `callee.rs`, so only an analysis that follows
//! calls into sibling files sees the collective behind it.

/// Only rank 0 enters the exchange inside `rebuild_level`.
pub fn leader_rebuilds(ctx: &Ctx) {
    if ctx.rank() == 0 {
        rebuild_level(ctx);
    }
}
