// lint-fixture-path: crates/core/src/fixture_cross_callee.rs
//! Cross-file R4 fixture, callee half: a collective-bearing function
//! with no rank-divergent control flow of its own.

/// Enters one exchange phase.
pub fn rebuild_level(ctx: &Ctx) {
    let mut ex = ctx.exchange();
    ex.finish(|_| {});
}
