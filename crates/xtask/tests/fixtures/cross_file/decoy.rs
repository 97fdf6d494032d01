// lint-fixture-path: crates/bench/src/fixture_cross_decoy.rs
//! Cross-file R4 fixture, decoy: a collective-free function that shares
//! the callee's name but lives in another crate. The caller cannot reach
//! it, so resolution must prefer the same-crate callee over it.

/// Enters no collective.
pub fn rebuild_level(quick: bool) -> usize {
    usize::from(quick)
}
