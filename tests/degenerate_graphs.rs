//! Degenerate-graph battery: every input the builder accepts must yield
//! a valid partition whose reported modularity matches the textbook
//! recomputation, for every solver, rank count and partition strategy —
//! including rank counts above the vertex count, which leave ranks with
//! no vertices at all.

use parallel_louvain::core::parallel::{ParallelConfig, ParallelLouvain};
use parallel_louvain::core::seq::{SeqConfig, SequentialLouvain};
use parallel_louvain::core::smp::SmpLouvain;
use parallel_louvain::graph::edgelist::{EdgeList, EdgeListBuilder};
use parallel_louvain::graph::partition::PartitionStrategy;
use parallel_louvain::metrics::{modularity, Partition};

fn graph(n: usize, edges: &[(u32, u32, f64)]) -> EdgeList {
    let mut b = EdgeListBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// The battery, by name.
fn battery() -> Vec<(&'static str, EdgeList)> {
    let star: Vec<_> = (1..=40).map(|v| (0, v, 1.0)).collect();
    let mut clique = Vec::new();
    for u in 0..12 {
        for v in (u + 1)..12 {
            clique.push((u, v, 1.0));
        }
    }
    // Two triangles, a three-vertex path and an isolated vertex (9).
    let components = [
        (0, 1, 1.0),
        (1, 2, 1.0),
        (0, 2, 1.0),
        (3, 4, 1.0),
        (4, 5, 1.0),
        (3, 5, 1.0),
        (6, 7, 1.0),
        (7, 8, 1.0),
    ];
    // Every edge given twice more: once repeated, once reversed.
    let mut duplicates = Vec::new();
    for i in 0..10u32 {
        let (u, v) = (i, (i + 1) % 10);
        duplicates.extend([(u, v, 1.0), (u, v, 2.0), (v, u, 0.5)]);
    }
    // A ring with chords whose weights span eight orders of magnitude.
    let mut mixed = Vec::new();
    for i in 0..30u32 {
        let w = [1e8, 0.1, 0.3][i as usize % 3];
        mixed.push((i, (i + 1) % 30, w));
        if i % 4 == 0 {
            mixed.push((i, (i + 7) % 30, 0.3 * w));
        }
    }
    vec![
        ("empty", graph(0, &[])),
        ("edgeless", graph(7, &[])),
        ("self-loop", graph(1, &[(0, 0, 1.0)])),
        ("star", graph(41, &star)),
        ("clique", graph(12, &clique)),
        ("components", graph(10, &components)),
        ("duplicates", graph(10, &duplicates)),
        ("mixed-magnitude", graph(30, &mixed)),
        ("ranks-above-n", graph(3, &[(0, 1, 1.0), (1, 2, 1.0)])),
        // Live arcs, a self-loop among them, that all weigh 0.0: 2m = 0.
        (
            "zero-weight",
            graph(4, &[(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, 3, 0.0)]),
        ),
    ]
}

fn check(name: &str, solver: &str, el: &EdgeList, p: &Partition, reported: f64) {
    assert_eq!(p.num_vertices(), el.num_vertices(), "{name}/{solver}");
    assert!(p.is_valid(), "{name}/{solver}: invalid partition");
    let q = modularity(&el.to_csr(), p);
    assert!(
        (q - reported).abs() <= 1e-9,
        "{name}/{solver}: reported {reported} vs recomputed {q}"
    );
}

#[test]
fn sequential_and_smp_solvers_handle_degenerate_graphs() {
    for (name, el) in battery() {
        let g = el.to_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        check(name, "seq", &el, &r.final_partition, r.final_modularity);
        let r = SmpLouvain.run(&g);
        check(name, "smp", &el, &r.final_partition, r.final_modularity);
    }
}

#[test]
fn parallel_solver_handles_degenerate_graphs_at_every_rank_count() {
    for (name, el) in battery() {
        for ranks in [1, 2, 4, 8] {
            for partition in [PartitionStrategy::Modulo, PartitionStrategy::ArcBalanced] {
                let r = ParallelLouvain::new(ParallelConfig {
                    partition,
                    ..ParallelConfig::with_ranks(ranks)
                })
                .run(&el);
                let solver = format!("parallel ranks={ranks} {partition:?}");
                check(
                    name,
                    &solver,
                    &el,
                    &r.result.final_partition,
                    r.result.final_modularity,
                );
            }
        }
    }
}
