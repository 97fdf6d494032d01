//! Weighted undirected edge lists.
//!
//! The edge list is the interchange format between generators, loaders, the
//! CSR builder and the distributed In-Table loader. Edges are undirected:
//! `(u, v, w)` and `(v, u, w)` denote the same edge, and duplicates are
//! merged by *summing* weights (matching the insert-or-accumulate semantics
//! of the paper's hash tables).

use crate::{VertexId, Weight};
use louvain_hash::pack_key;
use std::borrow::Cow;

/// A single undirected weighted edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint (`u == v` is a self-loop).
    pub v: VertexId,
    /// Weight (must be finite; generators produce `1.0`).
    pub w: Weight,
}

/// An immutable, deduplicated, undirected weighted edge list over vertices
/// `0..n`.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    n: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of distinct undirected edges (self-loops count once).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, each undirected pair appearing exactly once with
    /// `u <= v`, strictly ascending by `(u, v)`. [`EdgeListBuilder::build`]
    /// is the only constructor and establishes this order; consumers such
    /// as the distributed solver's counting-sort loader rely on it.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Sum of edge weights `m` (self-loops counted once).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// The largest edge weight (`0.0` without edges).
    #[must_use]
    pub fn max_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.w).fold(0.0, Weight::max)
    }

    /// These edges with every weight multiplied by
    /// [`crate::band_scale`] of the largest one, or the list itself,
    /// uncopied, when that weight is already in band.
    #[must_use]
    pub fn scaled_to_band(&self) -> Cow<'_, EdgeList> {
        let Some(f) = crate::band_scale(self.max_weight()) else {
            return Cow::Borrowed(self);
        };
        let edges = self.edges.iter().map(|e| Edge { w: e.w * f, ..*e });
        Cow::Owned(EdgeList {
            n: self.n,
            edges: edges.collect(),
        })
    }

    /// Builds the CSR adjacency for this edge list.
    #[must_use]
    pub fn to_csr(&self) -> crate::csr::CsrGraph {
        crate::csr::CsrGraph::from_edge_list(self)
    }
}

/// An edge whose merged weight, or doubled self-loop arc weight, is not
/// finite: [`EdgeListBuilder::try_build`]'s error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightOverflow {
    /// The smaller endpoint.
    pub u: VertexId,
    /// The larger endpoint (`u == v` for a self-loop).
    pub v: VertexId,
}

impl std::fmt::Display for WeightOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (u, v) = (self.u, self.v);
        if u == v {
            write!(f, "self-loop {u}-{v}: its doubled arc weight overflows f64")
        } else {
            write!(f, "edge {u}-{v}: its merged weight overflows f64")
        }
    }
}

/// Accumulating builder for [`EdgeList`].
///
/// `add_edge` may be called with duplicates and either endpoint order;
/// `build` canonicalizes to `u <= v`, merges duplicates by summing weights,
/// and sorts.
#[derive(Clone, Debug)]
pub struct EdgeListBuilder {
    n: usize,
    raw: Vec<Edge>,
}

impl EdgeListBuilder {
    /// Creates a builder for a graph with `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            n <= VertexId::MAX as usize,
            "vertex count {n} exceeds u32 id space"
        );
        Self { n, raw: Vec::new() }
    }

    /// Creates a builder expecting roughly `m` edges.
    #[must_use]
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.raw.reserve(m);
        b
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// On an endpoint `>= num_vertices()`, or a weight that is NaN,
    /// infinite or negative (the weights `read_edge_list` rejects) — in
    /// release builds too.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!((u as usize) < self.n, "endpoint {u} out of range");
        assert!((v as usize) < self.n, "endpoint {v} out of range");
        assert!(w.is_finite(), "edge weight {w} must be finite");
        assert!(w >= 0.0, "edge weight {w} must be non-negative");
        let (u, v) = if u <= v { (u, v) } else { (v, u) };
        self.raw.push(Edge { u, v, w });
    }

    /// Canonicalizes, deduplicates (summing weights) and returns the edge
    /// list.
    ///
    /// # Panics
    ///
    /// When a merged weight, or a self-loop's doubled arc weight, is not
    /// finite (see [`EdgeListBuilder::try_build`]) — in release builds
    /// too.
    #[must_use]
    pub fn build(self) -> EdgeList {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`EdgeListBuilder::build`], or the first edge, ascending by
    /// `(u, v)`, whose merged weight overflows `f64` — or, for a
    /// self-loop, whose doubled arc weight `2w` does (the CSR and the
    /// In-Table store a loop that way). Each added weight is finite, but
    /// their sum need not be.
    pub fn try_build(self) -> Result<EdgeList, WeightOverflow> {
        // Sort by packed key; merge runs in place, left to right.
        let mut edges = self.raw;
        edges.sort_unstable_by_key(|e| pack_key(e.u, e.v));
        edges.dedup_by(|e, last| {
            let dup = (e.u, e.v) == (last.u, last.v);
            if dup {
                last.w += e.w;
            }
            dup
        });
        let arc = |e: &Edge| if e.u == e.v { 2.0 * e.w } else { e.w };
        if let Some(e) = edges.iter().find(|e| !arc(e).is_finite()) {
            return Err(WeightOverflow { u: e.u, v: e.v });
        }
        // Return the merged-away tail: duplicate-heavy inputs (R-MAT,
        // both-orientation edge lists) would otherwise keep it resident
        // for the list's lifetime.
        edges.shrink_to_fit();
        Ok(EdgeList { n: self.n, edges })
    }

    /// Convenience: build the edge list and immediately convert to CSR.
    #[must_use]
    pub fn build_csr(self) -> crate::csr::CsrGraph {
        self.build().to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_merges_weights_across_orientations() {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.0);
        b.add_edge(2, 1, 4.0);
        let el = b.build();
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.edges()[0], Edge { u: 0, v: 1, w: 3.0 });
        assert_eq!(el.edges()[1], Edge { u: 1, v: 2, w: 4.0 });
        assert_eq!(el.total_weight(), 7.0);
    }

    #[test]
    fn self_loops_kept_once() {
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(1, 1, 5.0);
        b.add_edge(1, 1, 1.0);
        let el = b.build();
        assert_eq!(el.num_edges(), 1);
        assert_eq!(el.edges()[0], Edge { u: 1, v: 1, w: 6.0 });
    }

    #[test]
    fn overflowing_merged_and_self_loop_weights_are_rejected() {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 1e308);
        b.add_edge(1, 0, 1e308);
        b.add_edge(1, 2, 1e308);
        assert_eq!(b.try_build().unwrap_err(), WeightOverflow { u: 0, v: 1 });
        // A loop's arc weight is 2w: 1e308 overflows it, half of MAX not.
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(2, 2, 1e308);
        assert_eq!(b.try_build().unwrap_err(), WeightOverflow { u: 2, v: 2 });
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(2, 2, f64::MAX / 2.0);
        b.add_edge(0, 1, 1e308);
        assert_eq!(b.try_build().unwrap().num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "edge 0-1: its merged weight overflows f64")]
    fn build_panics_on_an_overflowing_merge() {
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 1, f64::MAX);
        b.add_edge(0, 1, f64::MAX);
        let _ = b.build();
    }

    #[test]
    fn empty_graph() {
        let el = EdgeListBuilder::new(0).build();
        assert_eq!(el.num_vertices(), 0);
        assert_eq!(el.num_edges(), 0);
        assert_eq!(el.total_weight(), 0.0);
    }

    #[test]
    fn edges_sorted_canonically() {
        let mut b = EdgeListBuilder::new(5);
        b.add_edge(4, 3, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(2, 0, 1.0); // dup of previous
        b.add_edge(1, 4, 1.0);
        let el = b.build();
        let pairs: Vec<(u32, u32)> = el.edges().iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(pairs, vec![(0, 2), (1, 4), (3, 4)]);
        for e in el.edges() {
            assert!(e.u <= e.v);
        }
    }
}
