//! Mixed-magnitude weights can cancel a live Out-Table row to exactly
//! 0.0 (`1e16 + 1.0 - 1e16`). GRAPH RECONSTRUCTION must still ship that
//! row: skipping it leaves arc `(a, b)` out of the next In-Table while
//! `(b, a)` is in it, a label cache goes stale, and a later
//! reconstruction finds a row into a community that no longer exists.
//! Before the fix that surfaced as a rank panic with the other ranks
//! blocked in their next collective, so the solves here run on a
//! spawned thread and a hang fails the test instead of stalling it.

use parallel_louvain::core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use parallel_louvain::graph::edgelist::{EdgeList, EdgeListBuilder};
use parallel_louvain::graph::partition::PartitionStrategy;
use parallel_louvain::metrics::modularity;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Weights spanning 24 orders of magnitude: sums of `1e16` and `1.0`
/// round, so add-then-remove patches need not return to their start.
const WEIGHTS: [f64; 7] = [1e8, 0.1, 0.3, 2.5e-3, 7.77, 1e16, 1.0];

/// `n` vertices, `per_vertex` edges drawn from each, 80% of them inside
/// the vertex's block of 30 consecutive ids, each weight drawn from
/// [`WEIGHTS`].
fn mixed_magnitude_graph(n: u32, per_vertex: usize, seed: u64) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = EdgeListBuilder::new(n as usize);
    for u in 0..n {
        for _ in 0..per_vertex {
            let v = if rng.gen_bool(0.8) {
                let base = u / 30 * 30;
                (base + rng.gen_range(0..30u32)).min(n - 1)
            } else {
                rng.gen_range(0..n)
            };
            b.add_edge(u, v, WEIGHTS[rng.gen_range(0..WEIGHTS.len())]);
        }
    }
    b.build()
}

/// Runs the solver on its own thread and waits at most `limit` for it:
/// `Err` on a panic or a hang, with the reason. A hung solver's thread
/// is left detached (its ranks are blocked in a collective and cannot
/// be joined); the test binary exits past it.
fn solve_bounded(
    el: &EdgeList,
    cfg: ParallelConfig,
    limit: Duration,
) -> Result<ParallelResult, String> {
    let (tx, rx) = mpsc::channel();
    let el = el.clone();
    let solver = std::thread::spawn(move || {
        let _ = tx.send(ParallelLouvain::new(cfg).run(&el));
    });
    match rx.recv_timeout(limit) {
        Ok(r) => {
            solver.join().expect("the solver thread sent its result");
            Ok(r)
        }
        Err(RecvTimeoutError::Disconnected) => Err("solver panicked".into()),
        Err(RecvTimeoutError::Timeout) => Err(format!("solver did not return within {limit:?}")),
    }
}

fn config(ranks: usize, partition: PartitionStrategy) -> ParallelConfig {
    ParallelConfig {
        partition,
        ..ParallelConfig::with_ranks(ranks)
    }
}

/// A valid partition whose reported Q is the textbook recomputation.
fn check_result(el: &EdgeList, r: &ParallelResult) -> Result<(), String> {
    let p = &r.result.final_partition;
    if !p.is_valid() || p.num_vertices() != el.num_vertices() {
        return Err("invalid final partition".into());
    }
    let q = modularity(&el.to_csr(), p);
    if (q - r.result.final_modularity).abs() >= 1e-9 {
        return Err(format!(
            "reported Q {} != recomputed {q}",
            r.result.final_modularity
        ));
    }
    Ok(())
}

#[test]
fn zero_rounded_live_rows_still_reconstruct() {
    // 3,000 vertices, 4 edges each: without the fix, seed 0 panics in
    // reconstruction at 8 ranks and the other ranks hang.
    let el = mixed_magnitude_graph(3000, 4, 0);
    let r = solve_bounded(
        &el,
        config(8, PartitionStrategy::Modulo),
        Duration::from_secs(120),
    )
    .unwrap_or_else(|e| panic!("8 ranks: {e}"));
    check_result(&el, &r).unwrap_or_else(|e| panic!("8 ranks: {e}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed-magnitude graphs at 1/2/3/4/8 ranks under both partition
    /// strategies: no panic, no hang, a valid partition, exact Q.
    #[test]
    fn mixed_magnitude_graphs_solve_at_every_rank_count(
        n in 40u32..400,
        per_vertex in 2usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let el = mixed_magnitude_graph(n, per_vertex, seed);
        for ranks in [1, 2, 3, 4, 8] {
            for partition in [PartitionStrategy::Modulo, PartitionStrategy::ArcBalanced] {
                let r = solve_bounded(&el, config(ranks, partition), Duration::from_secs(60));
                let checked = r.and_then(|r| check_result(&el, &r));
                prop_assert!(checked.is_ok(), "{ranks} ranks {partition:?}: {:?}", checked.err());
            }
        }
    }
}
