//! Partition refinement: local-move polishing of an existing partition.
//!
//! The Louvain hierarchy sometimes leaves individual vertices stranded in
//! suboptimal communities (especially the parallel variant, whose moves
//! are made on stale state — Section V-B's "additional complexities").
//! This extension runs the sequential solver's Gauss-Seidel sweep
//! ([`crate::seq`]) *starting from* a given partition instead of
//! singletons, so modularity never decreases; from singletons it is
//! `SequentialLouvain`'s first level, bit for bit. It is the standard
//! post-pass used by Louvain deployments and a natural "future work"
//! completion of the paper's pipeline: `parallel solve → sequential
//! polish` gives the distributed solver the sequential algorithm's final
//! quality at a fraction of its cost.

use crate::seq::local_move;
use louvain_graph::csr::CsrGraph;
use louvain_metrics::{modularity, Partition};

/// Outcome of a refinement pass.
#[derive(Clone, Debug)]
pub struct Refinement {
    /// The polished partition.
    pub partition: Partition,
    /// Modularity before refinement.
    pub q_before: f64,
    /// Modularity after refinement.
    pub q_after: f64,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Total vertex moves applied.
    pub moves: usize,
}

/// Runs local-move sweeps in vertex order from `start` until no vertex
/// improves (capped at `max_sweeps`). Modularity never decreases.
#[must_use]
pub fn refine_partition(g: &CsrGraph, start: &Partition, max_sweeps: usize) -> Refinement {
    assert_eq!(
        g.num_vertices(),
        start.num_vertices(),
        "partition size mismatch"
    );
    let g: &CsrGraph = &g.scaled_to_band();
    let order: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let mut labels = start.labels().to_vec();
    let moves = local_move(g, &order, &mut labels, max_sweeps);
    let partition = Partition::from_labels(&labels);
    Refinement {
        q_before: modularity(g, start),
        q_after: modularity(g, &partition),
        partition,
        sweeps: moves.len(),
        moves: moves.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{ParallelConfig, ParallelLouvain};
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_graph::gen::lfr::{generate_lfr, LfrConfig};

    #[test]
    fn fixes_an_obviously_misplaced_vertex() {
        // Two triangles + bridge; vertex 0 deliberately put in the wrong
        // community.
        let mut b = EdgeListBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        let g = b.build_csr();
        let bad = Partition::from_labels(&[1, 0, 0, 1, 1, 1]);
        let r = refine_partition(&g, &bad, 16);
        assert!(r.q_after > r.q_before);
        assert!(r.moves >= 1);
        let p = &r.partition;
        assert_eq!(p.community(0), p.community(1));
        assert_eq!(p.community(0), p.community(2));
    }

    #[test]
    fn never_decreases_modularity() {
        let g = generate_lfr(&LfrConfig::standard(1500, 0.4), 8)
            .edges
            .to_csr();
        for k in [2u32, 5, 20] {
            let start = Partition::from_labels(&(0..1500u32).map(|v| v % k).collect::<Vec<_>>());
            let r = refine_partition(&g, &start, 32);
            assert!(
                r.q_after >= r.q_before - 1e-12,
                "k={k}: {} -> {}",
                r.q_before,
                r.q_after
            );
        }
    }

    #[test]
    fn polishes_the_parallel_result_toward_sequential_quality() {
        let lfr = generate_lfr(&LfrConfig::standard(3000, 0.4), 9);
        let g = lfr.edges.to_csr();
        let par = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&lfr.edges);
        let r = refine_partition(&g, &par.result.final_partition, 32);
        assert!(r.q_after >= par.result.final_modularity - 1e-12);
        // Refinement typically recovers a visible share of the gap.
        assert!(
            r.q_after - r.q_before >= 0.0,
            "{} -> {}",
            r.q_before,
            r.q_after
        );
    }

    #[test]
    fn already_optimal_partition_is_untouched() {
        let mut b = EdgeListBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        let g = b.build_csr();
        let good = Partition::from_labels(&[0, 0, 0, 1, 1, 1]);
        let r = refine_partition(&g, &good, 16);
        assert_eq!(r.moves, 0);
        assert_eq!(r.partition.labels(), good.labels());
        assert!((r.q_after - r.q_before).abs() < 1e-12);
    }

    #[test]
    fn from_singletons_is_the_sequential_first_level() {
        use crate::seq::{SeqConfig, SequentialLouvain};
        for seed in [1, 7, 11] {
            let g = generate_lfr(&LfrConfig::standard(3000, 0.4), seed)
                .edges
                .to_csr();
            let seq = SequentialLouvain::new(SeqConfig::default()).run(&g);
            let r = refine_partition(&g, &Partition::singletons(3000), 128);
            assert_eq!(r.partition.labels(), seq.level_partitions[0].labels());
            assert_eq!(r.q_after.to_bits(), seq.levels[0].modularity.to_bits());
            assert_eq!(r.sweeps, seq.levels[0].inner_iterations);
        }
    }

    #[test]
    fn empty_graph() {
        let g = EdgeListBuilder::new(4).build_csr();
        let p = Partition::singletons(4);
        let r = refine_partition(&g, &p, 4);
        assert_eq!(r.moves, 0);
        assert_eq!(r.partition.num_communities(), 4);
    }
}
