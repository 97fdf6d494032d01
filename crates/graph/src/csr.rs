//! Compressed-sparse-row adjacency with explicit modularity conventions.
//!
//! The graph is stored as the symmetric adjacency matrix `A`:
//!
//! * an undirected edge `{u, v}` with `u != v` and weight `w` contributes
//!   arcs `u -> v` and `v -> u`, each of weight `w` (`A_uv = A_vu = w`);
//! * a self-loop `{u, u}` of weight `w` contributes a single arc `u -> u`
//!   of weight `2w` (`A_uu = 2w`, the graph-theoretic convention in which a
//!   loop adds two to the degree).
//!
//! With these conventions every modularity quantity in the paper is a plain
//! sum: the weighted degree is `k_u = Σ_v A_uv`, the normalization is
//! `2m = Σ_uv A_uv` ([`CsrGraph::total_arc_weight`]), a community's
//! `Σ_tot^c = Σ_{u∈c} k_u`, and its `Σ_in^c = Σ_{u,v∈c} A_uv` — so Newman's
//! `Q = Σ_c [Σ_in/2m − (Σ_tot/2m)²]` (Equation 3) needs no special cases.

use crate::edgelist::EdgeList;
use crate::{VertexId, Weight};
use std::borrow::Cow;

/// Immutable CSR adjacency (see module docs for conventions).
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    /// Weighted degree `k_u` per vertex (precomputed).
    degree: Vec<f64>,
    /// `2m`: total arc weight.
    total_arc_weight: f64,
    /// The largest arc weight (`0.0` without arcs).
    max_arc_weight: Weight,
    /// Number of undirected input edges (self-loops once) — the count used
    /// for TEPS reporting.
    num_input_edges: usize,
}

impl CsrGraph {
    /// Builds the CSR adjacency from a deduplicated edge list.
    #[must_use]
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let n = el.num_vertices();
        let mut deg_count = vec![0usize; n];
        for e in el.edges() {
            deg_count[e.u as usize] += 1;
            if e.u != e.v {
                deg_count[e.v as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &deg_count {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; acc];
        let mut weights = vec![0.0; acc];
        for e in el.edges() {
            if e.u == e.v {
                // A_uu = 2w: loop stored once with doubled weight.
                targets[cursor[e.u as usize]] = e.u;
                weights[cursor[e.u as usize]] = 2.0 * e.w;
                cursor[e.u as usize] += 1;
            } else {
                targets[cursor[e.u as usize]] = e.v;
                weights[cursor[e.u as usize]] = e.w;
                cursor[e.u as usize] += 1;
                targets[cursor[e.v as usize]] = e.u;
                weights[cursor[e.v as usize]] = e.w;
                cursor[e.v as usize] += 1;
            }
        }
        Self::from_arcs(offsets, targets, weights, el.num_edges())
    }

    /// Assembles the graph from its arc arrays, summing the degrees and
    /// `2m` from `weights` and taking their maximum.
    fn from_arcs(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<Weight>,
        num_input_edges: usize,
    ) -> Self {
        let degree: Vec<f64> = offsets
            .windows(2)
            .map(|r| weights[r[0]..r[1]].iter().sum())
            .collect();
        let total_arc_weight = degree.iter().sum();
        let max_arc_weight = weights.iter().copied().fold(0.0, Weight::max);
        Self {
            offsets,
            targets,
            weights,
            degree,
            total_arc_weight,
            max_arc_weight,
            num_input_edges,
        }
    }

    /// This graph with every weight multiplied by [`crate::band_scale`]
    /// of the largest arc weight, or the graph itself, uncopied, when
    /// that weight is already in band. The degrees and `2m` are summed
    /// again from the scaled weights, so they are finite even where the
    /// raw sums overflowed.
    #[must_use]
    pub fn scaled_to_band(&self) -> Cow<'_, CsrGraph> {
        let Some(f) = crate::band_scale(self.max_arc_weight) else {
            return Cow::Borrowed(self);
        };
        let weights = self.weights.iter().map(|w| w * f).collect();
        Cow::Owned(Self::from_arcs(
            self.offsets.clone(),
            self.targets.clone(),
            weights,
            self.num_input_edges,
        ))
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (ordered adjacency entries).
    #[must_use]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected input edges (self-loops counted once).
    #[must_use]
    pub fn num_input_edges(&self) -> usize {
        self.num_input_edges
    }

    /// `2m = Σ_uv A_uv`.
    #[must_use]
    pub fn total_arc_weight(&self) -> f64 {
        self.total_arc_weight
    }

    /// Weighted degree `k_u`.
    #[inline]
    #[must_use]
    pub fn degree(&self, u: VertexId) -> f64 {
        self.degree[u as usize]
    }

    /// All weighted degrees.
    #[must_use]
    pub fn degrees(&self) -> &[f64] {
        &self.degree
    }

    /// Unweighted neighbor count of `u` (adjacency entries, loop = 1).
    #[inline]
    #[must_use]
    pub fn arc_count(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Iterates `(neighbor, A_uv)` over the adjacency row of `u`.
    /// A self-loop appears as `(u, 2w)`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// `A_uu` (twice the self-loop weight) — 0.0 when `u` has no loop.
    #[must_use]
    pub fn self_loop(&self, u: VertexId) -> f64 {
        self.neighbors(u)
            .filter(|&(v, _)| v == u)
            .map(|(_, w)| w)
            .sum()
    }

    /// Exports the graph back to a canonical edge list (inverse of
    /// [`CsrGraph::from_edge_list`] up to edge ordering).
    #[must_use]
    pub fn to_edge_list(&self) -> EdgeList {
        let n = self.num_vertices();
        let mut b = crate::edgelist::EdgeListBuilder::with_capacity(n, self.num_arcs() / 2 + 1);
        for u in 0..n as VertexId {
            for (v, w) in self.neighbors(u) {
                if v > u {
                    b.add_edge(u, v, w);
                } else if v == u {
                    b.add_edge(u, u, w / 2.0);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeListBuilder;

    fn triangle_with_loop() -> CsrGraph {
        // Triangle 0-1-2 (weight 1 each) plus a self-loop at 2 (weight 3).
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(2, 2, 3.0);
        b.build_csr()
    }

    #[test]
    fn degrees_follow_adjacency_convention() {
        let g = triangle_with_loop();
        assert_eq!(g.degree(0), 2.0);
        assert_eq!(g.degree(1), 2.0);
        // k_2 = 1 + 1 + 2*3 = 8.
        assert_eq!(g.degree(2), 8.0);
        // 2m = 2*(1+1+1) + 2*3 = 12.
        assert_eq!(g.total_arc_weight(), 12.0);
        assert_eq!(g.self_loop(2), 6.0);
        assert_eq!(g.self_loop(0), 0.0);
    }

    #[test]
    fn arc_counts() {
        let g = triangle_with_loop();
        assert_eq!(g.num_vertices(), 3);
        // 3 undirected edges -> 6 arcs, loop -> 1 arc.
        assert_eq!(g.num_arcs(), 7);
        assert_eq!(g.num_input_edges(), 4);
        assert_eq!(g.arc_count(2), 3);
    }

    #[test]
    fn neighbors_symmetric() {
        let g = triangle_with_loop();
        for u in 0..3u32 {
            for (v, w) in g.neighbors(u) {
                if v != u {
                    let back: f64 = g
                        .neighbors(v)
                        .filter(|&(x, _)| x == u)
                        .map(|(_, w)| w)
                        .sum();
                    assert_eq!(back, w, "A_{{{v},{u}}} != A_{{{u},{v}}}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_edge_list() {
        let g = triangle_with_loop();
        let el = g.to_edge_list();
        let g2 = el.to_csr();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_arcs(), g.num_arcs());
        assert_eq!(g2.total_arc_weight(), g.total_arc_weight());
        for u in 0..3u32 {
            assert_eq!(g2.degree(u), g.degree(u));
        }
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let mut b = EdgeListBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        let g = b.build_csr();
        assert_eq!(g.arc_count(2), 0);
        assert_eq!(g.degree(3), 0.0);
        assert_eq!(g.neighbors(4).count(), 0);
    }

    #[test]
    fn sum_of_degrees_equals_total_arc_weight() {
        let g = triangle_with_loop();
        let s: f64 = (0..3u32).map(|u| g.degree(u)).sum();
        assert_eq!(s, g.total_arc_weight());
    }
}
