#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Graph types, partitioning and synthetic-graph generators for the
//! parallel Louvain reproduction.
//!
//! This crate is the data substrate of the system:
//!
//! * [`edgelist`] — weighted undirected edge lists and the builder used by
//!   every generator and loader.
//! * [`csr`] — the compressed-sparse-row adjacency used by the sequential
//!   and shared-memory algorithms, with the adjacency-matrix conventions
//!   (self-loop weight doubled) that make Newman modularity (Equation 3 of
//!   the paper) unambiguous.
//! * [`partition`] — the pluggable vertex-ownership map
//!   ([`partition::AnyPartition`], whose docs state the contract) and the
//!   arc-balanced greedy-LPT map ([`partition::BalancedPartition`]) the
//!   distributed solver can swap in for skewed workloads (DESIGN.md §15).
//! * [`partition1d`] — the 1D modulo decomposition of Section IV-A ("each
//!   node is assigned a set of vertices according to a simple modulo
//!   function"), the default ownership map.
//! * [`gen`] — the synthetic generators used by the evaluation:
//!   Erdős–Rényi, R-MAT (Graph500 parameters), BTER (tunable global
//!   clustering coefficient) and LFR (planted communities with mixing
//!   parameter μ).
//! * [`registry`] — scaled synthetic stand-ins for the real-world graphs of
//!   Table I (Amazon, DBLP, ND-Web, YouTube, LiveJournal, Wikipedia,
//!   UK-2005, Twitter, UK-2007), with the substitution rationale recorded
//!   per entry.
//! * [`stats`] — degree and clustering statistics used to validate the
//!   generators.
//! * [`io`] — plain-text weighted edge-list reading/writing.

pub mod csr;
pub mod edgelist;
pub mod gen;
pub mod io;
pub mod partition;
pub mod partition1d;
pub mod registry;
pub mod stats;
pub mod traversal;

/// Vertex identifier. 32 bits cover every laptop-scale experiment in this
/// reproduction and pack two-per-64-bit-hash-key (Equation 5).
pub type VertexId = u32;

/// Edge weight.
pub type Weight = f64;

/// 2^64: a graph whose largest weight lies in `[1 / WEIGHT_BAND,
/// WEIGHT_BAND]` is solved as given. There the solvers' products of
/// degrees and community totals stay finite and normal.
const WEIGHT_BAND: Weight = 18_446_744_073_709_551_616.0;

/// The exact power of two that rescales a graph whose largest weight is
/// `max_weight` to a largest weight near 1, or `None` when that weight
/// already lies in [2^-64, 2^64] (or is zero). Modularity and every
/// Louvain gain are invariant under a common weight scale, and
/// multiplying by a power of two rounds nothing short of the subnormal
/// range, so a rescaled graph has the same communities.
#[must_use]
pub fn band_scale(max_weight: Weight) -> Option<Weight> {
    if !(max_weight > 0.0 && max_weight.is_finite())
        || (1.0 / WEIGHT_BAND..=WEIGHT_BAND).contains(&max_weight)
    {
        return None;
    }
    // The binary exponent, clamped so that 2^-e is a normal f64.
    let e = (((max_weight.to_bits() >> 52) & 0x7ff) as i64 - 1023).clamp(-1022, 1022);
    Some(f64::from_bits(((1023 - e) as u64) << 52))
}

pub use csr::CsrGraph;
pub use edgelist::{EdgeList, EdgeListBuilder};
pub use partition::{AnyPartition, BalancedPartition, PartitionStrategy};
pub use partition1d::ModuloPartition;
