//! Integration gates for the pluggable partition strategies
//! (DESIGN.md §15).
//!
//! The arc-balanced strategy changes *where* vertices live, not *what*
//! the solver computes — so it must clear the same bars as the default:
//! schedule-invariance under the perturbation harness, bit-exact crash
//! recovery through the checkpoint layer (which now persists the owner
//! vector), and a valid final clustering. On top of that it must earn
//! its keep: on a skewed workload the per-rank arc imbalance has to drop
//! by at least 1.5× versus modulo — the acceptance bar of the
//! partitioning issue, measured by `ParallelResult::imbalance`.

use louvain_core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
use louvain_graph::gen::rmat::{generate_rmat, RmatConfig};
use louvain_graph::{EdgeList, PartitionStrategy};
use louvain_runtime::FaultPlan;

/// Hub-heavy workload: an unpermuted R-MAT with the quadrant bias turned
/// up from the Graph500 reference, so the hubs concentrate at low vertex
/// ids and the modulo strides pile unequal arc counts onto the ranks.
fn skewed_rmat() -> EdgeList {
    generate_rmat(
        &RmatConfig {
            scale: 9,
            edge_factor: 8,
            a: 0.7,
            b: 0.12,
            c: 0.12,
            permute: false,
            clean: true,
        },
        7,
    )
}

/// Community-structured workload for the quality and determinism gates.
fn planted() -> EdgeList {
    generate_planted(
        &PlantedConfig {
            communities: 6,
            community_size: 20,
            p_in: 0.35,
            p_out: 0.02,
        },
        11,
    )
    .0
}

fn run(
    el: &EdgeList,
    ranks: usize,
    partition: PartitionStrategy,
    perturb_seed: Option<u64>,
) -> ParallelResult {
    ParallelLouvain::new(ParallelConfig {
        partition,
        perturb_seed,
        ..ParallelConfig::with_ranks(ranks)
    })
    .run(el)
}

fn fingerprint(r: &ParallelResult) -> (u64, Vec<u32>, Vec<u64>, f64) {
    (
        r.result.final_modularity.to_bits(),
        r.result.final_partition.labels().to_vec(),
        r.arc_loads.clone(),
        r.imbalance,
    )
}

#[test]
fn balanced_partition_reduces_arc_imbalance_on_skewed_rmat() {
    let el = skewed_rmat();
    let modulo = run(&el, 8, PartitionStrategy::Modulo, None);
    let balanced = run(&el, 8, PartitionStrategy::ArcBalanced, None);
    assert!(balanced.result.final_partition.is_valid());
    assert_eq!(balanced.arc_loads.len(), 8);
    assert!(
        modulo.imbalance >= balanced.imbalance * 1.5,
        "arc-balance reduction below the 1.5x bar: modulo {} vs balanced {}",
        modulo.imbalance,
        balanced.imbalance,
    );
    // The balanced run should sit close to a flat distribution.
    assert!(
        balanced.imbalance < 1.25,
        "balanced imbalance {} not near flat",
        balanced.imbalance
    );
}

#[test]
fn balanced_partition_finds_planted_communities() {
    let el = planted();
    let modulo = run(&el, 4, PartitionStrategy::Modulo, None);
    let balanced = run(&el, 4, PartitionStrategy::ArcBalanced, None);
    assert!(balanced.result.final_partition.is_valid());
    // Both strategies are legitimate sequentializations of the same
    // algorithm; on a graph with real structure both must find it.
    assert!(modulo.result.final_modularity > 0.5);
    assert!(balanced.result.final_modularity > 0.5);
}

#[test]
fn balanced_partition_is_schedule_invariant() {
    let el = planted();
    for ranks in [2, 4] {
        let baseline = fingerprint(&run(&el, ranks, PartitionStrategy::ArcBalanced, None));
        for seed in [1u64, 2, 3, 5] {
            let perturbed =
                fingerprint(&run(&el, ranks, PartitionStrategy::ArcBalanced, Some(seed)));
            assert_eq!(
                perturbed, baseline,
                "balanced run diverged under perturb seed {seed} at {ranks} ranks"
            );
        }
    }
}

#[test]
fn balanced_partition_recovers_from_crashes_bit_exactly() {
    let el = planted();
    let cfg = || ParallelConfig {
        partition: PartitionStrategy::ArcBalanced,
        checkpoint_every_level: 1,
        ..ParallelConfig::with_ranks(4)
    };
    let baseline = ParallelLouvain::new(cfg()).run(&el);
    // Crash past the first level boundary so the restore path rebuilds a
    // *balanced* partition from the checkpoint's owner vector — the
    // restore has no collectives to recompute it with.
    let at_clock = baseline
        .level_boundary_clocks
        .first()
        .map_or(1.0, |c| c + 0.5);
    let recovered = ParallelLouvain::new(ParallelConfig {
        fault_plan: FaultPlan::crash(1, at_clock),
        ..cfg()
    })
    .run(&el);
    assert_eq!(recovered.faults.crashes, 1);
    assert_eq!(recovered.recovery_replays, 1);
    assert_eq!(
        recovered.result.final_modularity.to_bits(),
        baseline.result.final_modularity.to_bits()
    );
    assert_eq!(
        recovered.result.final_partition.labels(),
        baseline.result.final_partition.labels()
    );
}

#[test]
fn per_rank_observability_fields_are_consistent() {
    let el = planted();
    for strategy in [PartitionStrategy::Modulo, PartitionStrategy::ArcBalanced] {
        let r = run(&el, 4, strategy, None);
        assert_eq!(r.per_rank_work_breakdown.len(), 4);
        assert_eq!(r.arc_loads.len(), 4);
        assert!(r.imbalance >= 1.0, "max/mean below 1: {}", r.imbalance);
        assert!(r.arc_loads.iter().sum::<u64>() > 0);
        for b in &r.per_rank_work_breakdown {
            assert!(b.total().is_finite());
            assert!(b.total() > 0.0, "a rank charged no work at all");
        }
        // The per-rank work totals and the arc loads tell one story:
        // max/mean of the f64 work totals is finite and >= 1 too.
        let totals: Vec<f64> = r
            .per_rank_work_breakdown
            .iter()
            .map(|b| b.total())
            .collect();
        let imb = louvain_graph::partition::load_imbalance(&totals);
        assert!(imb >= 1.0 && imb.is_finite());
    }
}
