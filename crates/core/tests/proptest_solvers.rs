//! Property-based tests across the sequential, SMP and distributed
//! solvers (with and without the convergence heuristic) on random small
//! graphs.

use louvain_core::parallel::{ParallelConfig, ParallelLouvain};
use louvain_core::refine::refine_partition;
use louvain_core::seq::{SeqConfig, SequentialLouvain};
use louvain_core::smp::SmpLouvain;
use louvain_core::Dendrogram;
use louvain_graph::edgelist::{EdgeList, EdgeListBuilder};
use louvain_metrics::{modularity, Partition};
use proptest::prelude::*;

fn arb_graph(n_max: u32, m_max: usize) -> impl Strategy<Value = EdgeList> {
    (2..n_max).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 1u32..4), 1..m_max).prop_map(move |edges| {
            let mut b = EdgeListBuilder::new(n as usize);
            for (u, v, w) in edges {
                b.add_edge(u, v, f64::from(w));
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every solver emits a valid partition and a truthfully reported Q,
    /// and no solver falls below the singleton baseline.
    #[test]
    fn all_solvers_valid_and_truthful(el in arb_graph(18, 40)) {
        let g = el.to_csr();
        let q0 = modularity(&g, &Partition::singletons(g.num_vertices()));

        let seq = SequentialLouvain::new(SeqConfig::default()).run(&g);
        let smp = SmpLouvain.run(&g);
        let par = ParallelLouvain::new(ParallelConfig::with_ranks(3)).run(&el);
        // The Figure-4 strawman: the distributed solver without the ε
        // throttle, iteration-capped so its oscillation terminates.
        let unthrottled = ParallelLouvain::new(ParallelConfig {
            use_heuristic: false,
            max_inner_iterations: 12,
            max_levels: 6,
            ..ParallelConfig::with_ranks(3)
        })
        .run(&el);

        for (name, p, q) in [
            ("seq", &seq.final_partition, seq.final_modularity),
            ("smp", &smp.final_partition, smp.final_modularity),
            ("par", &par.result.final_partition, par.result.final_modularity),
            (
                "par-no-heuristic",
                &unthrottled.result.final_partition,
                unthrottled.result.final_modularity,
            ),
        ] {
            prop_assert!(p.is_valid(), "{name}");
            prop_assert_eq!(p.num_vertices(), g.num_vertices(), "{}", name);
            let q_check = modularity(&g, p);
            prop_assert!((q - q_check).abs() < 1e-9, "{name}: {q} vs {q_check}");
        }
        // The greedy solvers never lose to doing nothing.
        prop_assert!(seq.final_modularity >= q0 - 1e-12);
        prop_assert!(smp.final_modularity >= q0 - 1e-12);
    }

    /// Refinement is monotone from ANY starting partition.
    #[test]
    fn refinement_monotone(el in arb_graph(16, 30), labels in proptest::collection::vec(0u32..4, 16)) {
        let g = el.to_csr();
        let n = g.num_vertices();
        let start = Partition::from_labels(&labels[..n]);
        let r = refine_partition(&g, &start, 8);
        prop_assert!(r.q_after >= r.q_before - 1e-12);
        prop_assert!(r.partition.is_valid());
        prop_assert!((modularity(&g, &r.partition) - r.q_after).abs() < 1e-9);
    }

    /// Hierarchies of both hierarchical solvers are properly nested.
    #[test]
    fn hierarchies_are_nested(el in arb_graph(18, 50)) {
        let g = el.to_csr();
        let seq = SequentialLouvain::new(SeqConfig::default()).run(&g);
        prop_assert!(Dendrogram::from_result(&seq).is_nested());
        let par = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
        prop_assert!(Dendrogram::from_result(&par.result).is_nested());
    }

    /// The distributed solver is invariant to coalescing capacity.
    #[test]
    fn coalescing_invariance(el in arb_graph(14, 25), cap in 1usize..64) {
        let base = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
        let other = ParallelLouvain::new(ParallelConfig {
            coalesce_capacity: cap,
            ..ParallelConfig::with_ranks(2)
        })
        .run(&el);
        prop_assert_eq!(
            base.result.final_partition.labels(),
            other.result.final_partition.labels()
        );
    }
}
