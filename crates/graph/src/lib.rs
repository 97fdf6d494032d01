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

pub use csr::CsrGraph;
pub use edgelist::{EdgeList, EdgeListBuilder};
pub use partition::{AnyPartition, BalancedPartition, PartitionStrategy};
pub use partition1d::ModuloPartition;
