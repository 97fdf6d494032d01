#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Hash functions and edge hash tables for the parallel Louvain algorithm.
//!
//! This crate implements the *hash-based data organization* of Que et al.,
//! "Scalable Community Detection with the Louvain Algorithm" (IPDPS 2015),
//! Section IV-A:
//!
//! * **Packed edge keys** (Equation 5): a 64-bit key formed from a tuple of
//!   vertex/community identifiers, see [`key`].
//! * **Hash functions** (Section V-C1): Fibonacci hashing (Equation 6),
//!   linear congruential hashing, bitwise hashing and concatenated hashing,
//!   see [`hashfn`].
//! * **Edge tables**: the open-addressing, linear-probing
//!   insert-or-accumulate table the paper uses for `In_Table` and
//!   `Out_Table` (Algorithms 3 and 5), see [`table::EdgeTable`]. The
//!   distributed solver substitutes sorted arrays for both (DESIGN.md §2).
//! * **Binned tables** used to reproduce the load-balance analysis of
//!   Figure 6 (entries per thread slice, average/maximum bin length),
//!   see [`binned::BinnedTable`].
//!
//! The tables deliberately avoid `std::collections::HashMap`: the paper's
//! central data-structure claim is that a flat, linearly probed table with a
//! cheap multiplicative hash is what makes the dynamic rewriting of the
//! graph (once per outer loop) affordable, and the benchmarks in
//! `louvain-bench` compare exactly that trade-off.

pub mod binned;
pub mod hashfn;
pub mod key;
pub mod stats;
pub mod table;

pub use binned::BinnedTable;
pub use hashfn::{BitwiseHash, ConcatHash, FibonacciHash, HashFn64, HashKind, LcgHash};
pub use key::{pack_key, pack_key16, unpack_key, unpack_key16};
pub use stats::{BinLengthStats, OccupancyStats, ProbeStats};
pub use table::EdgeTable;
