//! Failure-injection tests: invalid inputs must fail loudly at the
//! boundary (documented panics), never corrupt state silently.

use parallel_louvain::core::parallel::{ParallelConfig, ParallelLouvain};
use parallel_louvain::graph::edgelist::EdgeListBuilder;
use parallel_louvain::graph::gen::lfr::{generate_lfr, LfrConfig};
use parallel_louvain::graph::gen::planted::{generate_planted, PlantedConfig};
use parallel_louvain::graph::gen::ws::{generate_ws, WsConfig};
use parallel_louvain::graph::partition::PartitionStrategy;
use parallel_louvain::metrics::{modularity, Partition};

#[test]
#[should_panic(expected = "exceeds u32 id space")]
fn builder_rejects_oversized_vertex_space() {
    let _ = EdgeListBuilder::new(u32::MAX as usize + 10);
}

// `EdgeListBuilder::add_edge` checks its input in release builds too.

#[test]
#[should_panic(expected = "endpoint 4 out of range")]
fn builder_rejects_out_of_range_source() {
    EdgeListBuilder::new(4).add_edge(4, 0, 1.0);
}

#[test]
#[should_panic(expected = "endpoint 9 out of range")]
fn builder_rejects_out_of_range_target() {
    EdgeListBuilder::new(4).add_edge(0, 9, 1.0);
}

#[test]
#[should_panic(expected = "must be finite")]
fn builder_rejects_nan_weight() {
    EdgeListBuilder::new(4).add_edge(0, 1, f64::NAN);
}

#[test]
#[should_panic(expected = "must be finite")]
fn builder_rejects_infinite_weight() {
    EdgeListBuilder::new(4).add_edge(0, 1, f64::INFINITY);
}

#[test]
#[should_panic(expected = "must be non-negative")]
fn builder_rejects_negative_weight() {
    EdgeListBuilder::new(4).add_edge(0, 1, -0.5);
}

#[test]
#[should_panic(expected = "infeasible")]
fn gnm_rejects_impossible_edge_counts() {
    let _ = parallel_louvain::graph::gen::er::generate_gnm(4, 100, 1);
}

#[test]
#[should_panic(expected = "n too small")]
fn lfr_rejects_degenerate_configs() {
    let _ = generate_lfr(
        &LfrConfig {
            n: 10,
            avg_degree: 4.0,
            max_degree: 5,
            gamma: 2.5,
            beta: 1.5,
            mu: 0.3,
            min_community: 16,
            max_community: 32,
        },
        1,
    );
}

#[test]
#[should_panic(expected = "mu must be")]
fn lfr_rejects_mu_one() {
    let _ = generate_lfr(&LfrConfig::standard(1000, 1.0), 1);
}

#[test]
#[should_panic(expected = "k must be even")]
fn ws_rejects_odd_k() {
    let _ = generate_ws(
        &WsConfig {
            n: 10,
            k: 3,
            beta: 0.1,
        },
        1,
    );
}

#[test]
#[should_panic(expected = "partition size mismatch")]
fn modularity_rejects_mismatched_partition() {
    let mut b = EdgeListBuilder::new(4);
    b.add_edge(0, 1, 1.0);
    let g = b.build_csr();
    let _ = modularity(&g, &Partition::singletons(3));
}

#[test]
#[should_panic(expected = "needs at least one rank")]
fn parallel_rejects_zero_ranks() {
    let _ = ParallelLouvain::new(ParallelConfig {
        ranks: 0,
        ..ParallelConfig::default()
    });
}

// With no level or no sweep run, the solver would report modularity 0.0
// for a singleton partition whose modularity is negative.

#[test]
#[should_panic(expected = "needs max_levels >= 1, got 0")]
fn parallel_rejects_zero_level_cap() {
    let _ = ParallelLouvain::new(ParallelConfig {
        max_levels: 0,
        ..ParallelConfig::with_ranks(2)
    });
}

#[test]
#[should_panic(expected = "needs max_inner_iterations >= 1, got 0")]
fn parallel_rejects_zero_iteration_cap() {
    let _ = ParallelLouvain::new(ParallelConfig {
        max_inner_iterations: 0,
        ..ParallelConfig::with_ranks(2)
    });
}

// `run_from_parts` takes its chunks from the caller unchecked, so the
// loader checks every id against `num_vertices`, in release builds too.

#[test]
#[should_panic(expected = "rank 0: chunk edge (0, 5) names a vertex outside 0..3")]
fn parallel_parts_reject_out_of_range_ids_on_one_rank() {
    let mut b = EdgeListBuilder::new(6);
    b.add_edge(0, 5, 1.0);
    let chunk = b.build();
    let _ =
        ParallelLouvain::new(ParallelConfig::with_ranks(1)).run_from_parts(3, |_| chunk.clone());
}

/// `run_from_parts` never holds the whole input, so it cannot rescale
/// weights the solver's products would overflow on: it rejects them.
#[test]
#[should_panic(expected = "rank 1: largest chunk weight 1e300 lies outside [2^-64, 2^64]")]
fn parallel_parts_reject_out_of_band_weights() {
    let chunk = |w: f64| {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, w);
        b.build()
    };
    let _ = ParallelLouvain::new(ParallelConfig::with_ranks(2))
        .run_from_parts(3, |r| chunk(if r == 1 { 1e300 } else { 1.0 }));
}

/// Under `ArcBalanced` the id check runs before the degree count that
/// builds the partition.
#[test]
#[should_panic(expected = "chunk edge (0, 5) names a vertex outside 0..3")]
fn parallel_parts_reject_out_of_range_ids_on_two_balanced_ranks() {
    let mut b = EdgeListBuilder::new(6);
    b.add_edge(0, 5, 1.0);
    let chunk = b.build();
    let cfg = ParallelConfig {
        partition: PartitionStrategy::ArcBalanced,
        ..ParallelConfig::with_ranks(2)
    };
    let _ = ParallelLouvain::new(cfg).run_from_parts(3, |_| chunk.clone());
}

/// Degenerate but valid inputs must NOT panic.
#[test]
fn degenerate_valid_inputs_are_fine() {
    // Single vertex, no edges.
    let g1 = EdgeListBuilder::new(1).build();
    let r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&g1);
    assert_eq!(r.result.final_partition.num_vertices(), 1);

    // Only self-loops.
    let mut b = EdgeListBuilder::new(3);
    for v in 0..3 {
        b.add_edge(v, v, 1.0);
    }
    let el = b.build();
    let r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&el);
    assert_eq!(r.result.final_partition.num_communities(), 3);

    // Planted graph with a single community (p_out irrelevant).
    let (el, truth) = generate_planted(
        &PlantedConfig {
            communities: 1,
            community_size: 20,
            p_in: 0.3,
            p_out: 0.0,
        },
        1,
    );
    assert!(truth.iter().all(|&c| c == 0));
    let r = ParallelLouvain::new(ParallelConfig::with_ranks(3)).run(&el);
    assert!(r.result.final_partition.is_valid());
}
