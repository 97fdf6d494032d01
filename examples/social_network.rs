//! Community detection on a realistic social-network workload.
//!
//! Generates an LFR benchmark graph (the paper's tool for graphs with
//! known community structure), runs the sequential solver and the
//! distributed one with and without the convergence heuristic, and scores
//! each against the planted ground truth with the full Table-III metric
//! suite.
//!
//! Run with: `cargo run --release --example social_network [n] [mu]`

use parallel_louvain::core::parallel::{ParallelConfig, ParallelLouvain};
use parallel_louvain::core::seq::{SeqConfig, SequentialLouvain};
use parallel_louvain::graph::gen::lfr::{generate_lfr, LfrConfig};
use parallel_louvain::metrics::similarity::SimilarityReport;
use parallel_louvain::metrics::Partition;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let mu: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.35);

    let lfr = generate_lfr(&LfrConfig::standard(n, mu), 42);
    let truth = Partition::from_labels(&lfr.ground_truth);
    println!(
        "LFR: n={n}, mu={mu} (realized {:.3}), {} edges, {} planted communities",
        lfr.realized_mu,
        lfr.edges.num_edges(),
        lfr.num_communities
    );

    let graph = lfr.edges.to_csr();
    let seq = SequentialLouvain::new(SeqConfig::default()).run(&graph);
    let par = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&lfr.edges);
    // The Figure-4 strawman: the same distributed solver without the ε
    // throttle, iteration-capped so its oscillation terminates.
    let unthrottled = ParallelLouvain::new(ParallelConfig {
        use_heuristic: false,
        max_inner_iterations: 12,
        max_levels: 6,
        ..ParallelConfig::with_ranks(4)
    })
    .run(&lfr.edges);

    println!(
        "\n{:<24} {:>8} {:>12} {:>8}",
        "solver", "Q", "communities", "levels"
    );
    for (name, q, part, levels) in [
        (
            "sequential",
            seq.final_modularity,
            &seq.final_partition,
            seq.num_levels(),
        ),
        (
            "parallel+heuristic",
            par.result.final_modularity,
            &par.result.final_partition,
            par.result.levels.len(),
        ),
        (
            "parallel, no heuristic",
            unthrottled.result.final_modularity,
            &unthrottled.result.final_partition,
            unthrottled.result.levels.len(),
        ),
    ] {
        println!(
            "{name:<24} {q:>8.4} {:>12} {levels:>8}",
            part.num_communities()
        );
    }

    println!("\nagreement with planted ground truth:");
    println!(
        "{:<24} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "solver", "NMI", "F", "NVD", "RI", "ARI", "JI"
    );
    for (name, part) in [
        ("sequential", &seq.final_partition),
        ("parallel+heuristic", &par.result.final_partition),
        (
            "parallel, no heuristic",
            &unthrottled.result.final_partition,
        ),
    ] {
        let r = SimilarityReport::compute(&truth, part);
        println!(
            "{name:<24} {:>7.4} {:>7.4} {:>7.4} {:>7.4} {:>7.4} {:>7.4}",
            r.nmi, r.f_measure, r.nvd, r.rand, r.adjusted_rand, r.jaccard
        );
    }
    println!(
        "\n(the heuristic solver should track the sequential one closely; \
         the one without it should lag — Figure 4 of the paper)"
    );
}
