//! # parallel-louvain
//!
//! A from-scratch Rust reproduction of *"Scalable Community Detection with
//! the Louvain Algorithm"* (Que, Checconi, Petrini, Gunnels — IPDPS 2015).
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`graph`] — graph types, 1D partitioning and the LFR / R-MAT / BTER /
//!   Erdős–Rényi generators plus the Table-I workload registry.
//! * [`hash`] — Fibonacci/LCG/bitwise/concatenated hashing and the
//!   open-addressing edge tables (`In_Table` / `Out_Table`).
//! * [`runtime`] — the simulated distributed-memory runtime (ranks,
//!   coalescing message exchange, collectives) substituting for MPI/BG-Q.
//! * [`metrics`] — modularity, evolution ratio, size distributions and the
//!   partition-similarity metrics (NMI, F-measure, NVD, RI, ARI, JI).
//! * [`core`] — the sequential Louvain baseline (Algorithm 1) and the
//!   distributed parallel Louvain with the exponential-decay convergence
//!   heuristic (Algorithms 2–5), which runs without it as the Figure-4
//!   strawman.
//!
//! ## Quickstart
//!
//! ```
//! use parallel_louvain::prelude::*;
//!
//! // A graph with two obvious communities joined by one bridge edge.
//! let mut b = EdgeListBuilder::new(8);
//! for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)] {
//!     b.add_edge(u, v, 1.0);
//! }
//! for (u, v) in [(4, 5), (4, 6), (5, 6), (6, 7), (5, 7)] {
//!     b.add_edge(u, v, 1.0);
//! }
//! b.add_edge(3, 4, 1.0); // bridge
//! let graph = b.build_csr();
//!
//! let result = SequentialLouvain::new(SeqConfig::default()).run(&graph);
//! assert_eq!(result.final_partition.num_communities(), 2);
//! assert!(result.final_modularity > 0.3);
//! ```

#![warn(missing_docs)]

pub use louvain_core as core;
pub use louvain_graph as graph;
pub use louvain_hash as hash;
pub use louvain_metrics as metrics;
pub use louvain_runtime as runtime;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use louvain_core::dendrogram::Dendrogram;
    pub use louvain_core::heuristic::EpsilonSchedule;
    pub use louvain_core::labelprop::LabelPropagation;
    pub use louvain_core::parallel::{ParallelConfig, ParallelLouvain};
    pub use louvain_core::refine::refine_partition;
    pub use louvain_core::seq::{SeqConfig, SequentialLouvain, VertexOrder};
    pub use louvain_core::smp::SmpLouvain;
    pub use louvain_graph::csr::CsrGraph;
    pub use louvain_graph::edgelist::{EdgeList, EdgeListBuilder};
    pub use louvain_metrics::modularity::modularity;
    pub use louvain_metrics::partition::Partition;
    pub use louvain_metrics::report::PartitionReport;
    pub use louvain_metrics::similarity::SimilarityReport;
}
