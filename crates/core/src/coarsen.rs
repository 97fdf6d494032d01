//! Super-graph construction for the shared-memory solvers (lines 24–26 of
//! Algorithm 1): communities become vertices, edge weights between
//! communities are summed, internal edges become self-loops.
//!
//! (The distributed solver builds its super-graph through the hash-table
//! all-to-all of Algorithm 5 instead; `tests/` cross-checks that both
//! constructions agree.)

use louvain_graph::csr::CsrGraph;
use louvain_graph::edgelist::{EdgeList, EdgeListBuilder};
use louvain_hash::{pack_key, unpack_key};
use louvain_trace::Counter;
use std::collections::BTreeMap;

/// Builds the induced (super) graph of `labels` over `g`.
///
/// `labels` must be dense community ids in `0..num_communities`. The
/// returned edge list preserves total arc weight: the super-graph's `2m`
/// equals `g`'s.
#[must_use]
pub fn induced_edge_list(g: &CsrGraph, labels: &[u32], num_communities: usize) -> EdgeList {
    assert_eq!(labels.len(), g.num_vertices(), "label array size mismatch");
    // Accumulate arc weight between community pairs. Cross-community arcs
    // are visited twice (once per direction) and self-loop arcs once with
    // doubled weight, so dividing by 2 yields edge-list weights under the
    // CSR conventions. A BTreeMap keyed on the packed pair keeps the
    // super-graph's edge order (and hence downstream tie-breaks) identical
    // across runs.
    let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
    let arc_scans = Counter::new();
    for u in 0..g.num_vertices() as u32 {
        let cu = labels[u as usize];
        for (v, w) in g.neighbors(u) {
            let cv = labels[v as usize];
            let (lo, hi) = if cu <= cv { (cu, cv) } else { (cv, cu) };
            *acc.entry(pack_key(lo, hi)).or_insert(0.0) += w;
            arc_scans.incr();
        }
    }
    louvain_trace::count("coarsen.arc_scans", arc_scans.get());
    louvain_trace::count("coarsen.super_edges", acc.len() as u64);
    let mut b = EdgeListBuilder::with_capacity(num_communities, acc.len());
    for (key, w) in acc {
        let (lo, hi) = unpack_key(key);
        b.add_edge(lo, hi, w / 2.0);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_metrics::{modularity, Partition};

    fn two_triangles_bridge() -> CsrGraph {
        let mut b = EdgeListBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        b.build_csr()
    }

    #[test]
    fn induced_graph_preserves_total_weight() {
        let g = two_triangles_bridge();
        let labels = [0u32, 0, 0, 1, 1, 1];
        let sup = induced_edge_list(&g, &labels, 2).to_csr();
        assert_eq!(sup.num_vertices(), 2);
        assert!((sup.total_arc_weight() - g.total_arc_weight()).abs() < 1e-12);
        // Self-loop of community 0: A_00 = 6 (three internal edges).
        assert_eq!(sup.self_loop(0), 6.0);
        assert_eq!(sup.self_loop(1), 6.0);
        // Cross edge weight 1: A_01 = 1.
        let cross: f64 = sup
            .neighbors(0)
            .filter(|&(v, _)| v == 1)
            .map(|(_, w)| w)
            .sum();
        assert_eq!(cross, 1.0);
    }

    #[test]
    fn modularity_invariant_under_coarsening() {
        // Q(super graph, singletons) == Q(graph, partition) — the identity
        // that makes hierarchical Louvain correct (Arenas et al.).
        let g = two_triangles_bridge();
        for labels in [[0u32, 0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]] {
            let k = (*labels.iter().max().unwrap() + 1) as usize;
            let q_fine = modularity(&g, &Partition::from_labels(&labels));
            let sup = induced_edge_list(&g, &labels, k).to_csr();
            let q_coarse = modularity(&sup, &Partition::singletons(k));
            assert!(
                (q_fine - q_coarse).abs() < 1e-12,
                "labels {labels:?}: {q_fine} vs {q_coarse}"
            );
        }
    }

    #[test]
    fn identity_partition_roundtrips() {
        let g = two_triangles_bridge();
        let labels: Vec<u32> = (0..6).collect();
        let sup = induced_edge_list(&g, &labels, 6).to_csr();
        assert_eq!(sup.num_vertices(), g.num_vertices());
        assert_eq!(sup.num_arcs(), g.num_arcs());
        for u in 0..6u32 {
            assert_eq!(sup.degree(u), g.degree(u));
        }
    }
}
