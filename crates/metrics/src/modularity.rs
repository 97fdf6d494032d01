//! Newman modularity (Equation 3 of the paper).
//!
//! With the adjacency conventions of [`louvain_graph::csr`] (arc weights
//! `A_uv`, self-loop `A_uu` doubled, `2m = Σ A_uv`):
//!
//! `Q = Σ_c [ Σ_in^c / 2m − (Σ_tot^c / 2m)² ]`
//!
//! where `Σ_in^c = Σ_{u,v∈c} A_uv` and `Σ_tot^c = Σ_{u∈c} k_u`.

use crate::partition::Partition;
use louvain_graph::csr::CsrGraph;

/// Per-community `Σ_in` and `Σ_tot` (arc-weight units, i.e. `Σ_in` counts
/// each internal off-diagonal edge twice).
#[derive(Clone, Debug, Default)]
pub struct CommunityAggregates {
    /// `Σ_in^c` per community.
    pub internal: Vec<f64>,
    /// `Σ_tot^c` per community.
    pub total: Vec<f64>,
}

/// Computes `Σ_in` and `Σ_tot` for every community.
#[must_use]
pub fn community_aggregates(g: &CsrGraph, p: &Partition) -> CommunityAggregates {
    assert_eq!(
        g.num_vertices(),
        p.num_vertices(),
        "partition size mismatch"
    );
    let k = p.num_communities();
    let mut internal = vec![0.0f64; k];
    let mut total = vec![0.0f64; k];
    for u in 0..g.num_vertices() as u32 {
        let cu = p.community(u) as usize;
        total[cu] += g.degree(u);
        for (v, w) in g.neighbors(u) {
            if p.community(v) as usize == cu {
                internal[cu] += w;
            }
        }
    }
    CommunityAggregates { internal, total }
}

/// Newman modularity of `p` on `g` (Equation 3).
///
/// Returns 0 for an empty graph.
///
/// ```
/// use louvain_graph::edgelist::EdgeListBuilder;
/// use louvain_metrics::{modularity, Partition};
///
/// // Two triangles joined by a bridge.
/// let mut b = EdgeListBuilder::new(6);
/// for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
///     b.add_edge(u, v, 1.0);
/// }
/// let g = b.build_csr();
/// let two = Partition::from_labels(&[0, 0, 0, 1, 1, 1]);
/// let q = modularity(&g, &two);
/// assert!((q - (2.0 * (6.0 / 14.0 - 0.25))).abs() < 1e-12);
/// ```
#[must_use]
pub fn modularity(g: &CsrGraph, p: &Partition) -> f64 {
    // Q is scale-invariant: the band-scaled graph keeps its sums finite.
    let g: &CsrGraph = &g.scaled_to_band();
    let s = g.total_arc_weight();
    if s <= 0.0 {
        return 0.0;
    }
    let agg = community_aggregates(g, p);
    let mut q = 0.0;
    for c in 0..p.num_communities() {
        let tot = agg.total[c] / s;
        q += agg.internal[c] / s - tot * tot;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::edgelist::EdgeListBuilder;

    fn two_triangles_bridge() -> CsrGraph {
        // Two triangles joined by a single bridge edge — the canonical
        // two-community graph.
        let mut b = EdgeListBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        b.build_csr()
    }

    #[test]
    fn singleton_partition_modularity() {
        // Q(singletons) = -Σ k_u² / (2m)² for a loop-free graph.
        let g = two_triangles_bridge();
        let p = Partition::singletons(6);
        let s = g.total_arc_weight();
        let expect: f64 = -(0..6u32).map(|u| (g.degree(u) / s).powi(2)).sum::<f64>();
        let q = modularity(&g, &p);
        assert!((q - expect).abs() < 1e-12, "{q} vs {expect}");
        assert!(q < 0.0);
    }

    #[test]
    fn two_community_partition_beats_one() {
        let g = two_triangles_bridge();
        let two = Partition::from_labels(&[0, 0, 0, 1, 1, 1]);
        let one = Partition::from_labels(&[0, 0, 0, 0, 0, 0]);
        let q2 = modularity(&g, &two);
        let q1 = modularity(&g, &one);
        assert!(q2 > q1);
        // Whole-graph partition always has Q = 0 exactly.
        assert!(q1.abs() < 1e-12);
        // Hand computation: m=7, per community Σ_in = 6 (2*3 internal
        // edges), Σ_tot = 7. Q = 2*(6/14 - (7/14)^2) = 2*(3/7 - 1/4).
        let expect = 2.0 * (6.0 / 14.0 - 0.25);
        assert!((q2 - expect).abs() < 1e-12);
    }

    #[test]
    fn modularity_bounded() {
        let g = two_triangles_bridge();
        for labels in [
            vec![0u32, 0, 0, 1, 1, 1],
            vec![0, 1, 2, 3, 4, 5],
            vec![0, 0, 1, 1, 2, 2],
            vec![1, 0, 1, 0, 1, 0],
        ] {
            let q = modularity(&g, &Partition::from_labels(&labels));
            assert!((-0.5..=1.0).contains(&q), "Q={q} out of bounds");
        }
    }

    #[test]
    fn self_loops_count_as_internal() {
        // Single vertex with one self-loop: whole graph in one community,
        // Σ_in = Σ_tot = 2m, so Q = 1 - 1 = 0.
        let mut b = EdgeListBuilder::new(1);
        b.add_edge(0, 0, 3.0);
        let g = b.build_csr();
        let p = Partition::from_labels(&[0]);
        assert!(modularity(&g, &p).abs() < 1e-12);
    }

    #[test]
    fn aggregates_sum_rules() {
        let g = two_triangles_bridge();
        let p = Partition::from_labels(&[0, 0, 0, 1, 1, 1]);
        let agg = community_aggregates(&g, &p);
        // Σ_c Σ_tot = 2m.
        let tot: f64 = agg.total.iter().sum();
        assert!((tot - g.total_arc_weight()).abs() < 1e-12);
        // Σ_c Σ_in = 2m - 2 * (cross-community weight) = 14 - 2.
        let int: f64 = agg.internal.iter().sum();
        assert!((int - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_zero() {
        let g = EdgeListBuilder::new(0).build_csr();
        let p = Partition::from_labels(&[]);
        assert_eq!(modularity(&g, &p), 0.0);
    }

    #[test]
    #[should_panic(expected = "partition size mismatch")]
    fn size_mismatch_panics() {
        let g = two_triangles_bridge();
        let p = Partition::from_labels(&[0, 1]);
        let _ = modularity(&g, &p);
    }
}
