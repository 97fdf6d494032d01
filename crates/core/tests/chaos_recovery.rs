//! The louvain-chaos harness (DESIGN.md §14): deterministic fault
//! injection against the full distributed solver, with checkpoint/restart
//! recovery asserted **bit-identical** to the fault-free run.
//!
//! Three contracts:
//!
//! * a rank crashed at *any* level boundary recovers — same modularity,
//!   same dendrogram, same protocol log — at every rank count and under
//!   every perturbed delivery schedule;
//! * masked transport faults (drop/duplicate/delay) change nothing at
//!   all, not even without checkpointing;
//! * checkpointing itself is free: cadence on vs off produces
//!   bit-identical results and an identical simulated clock.
//!
//! Graphs use the PR 4 mixed-magnitude weight generator (1e8 / 0.1 / 0.3
//! interleaved), where any serialize→restore round-trip loss or
//! fold-order drift becomes ulp-visible immediately.
//!
//! Rank 2 and 4 and four perturb seeds run in the per-PR gate; 8 ranks
//! joins under `LOUVAIN_RACE_EIGHT_RANKS=1` and the full seed matrix
//! under `LOUVAIN_CHAOS_ALL_SEEDS=1` (the nightly chaos job sets both).
//! On a mismatch the failing [`ChaosCase`] is written under
//! `target/tmp/chaos/` so CI can upload it and anyone can replay it with
//! `cargo run -p louvain-bench -- --fault-plan <file>`.

use louvain_core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use louvain_core::ChaosCase;
use louvain_graph::edgelist::EdgeListBuilder;
use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
use louvain_graph::EdgeList;
use louvain_runtime::FaultPlan;
use std::path::Path;

/// Perturb seeds for the per-PR gate (subset) and the nightly matrix.
const PR_SEEDS: [u64; 4] = [1, 2, 3, 5];
const ALL_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX];

fn perturb_seeds() -> Vec<Option<u64>> {
    let full = louvain_runtime::env_flag("LOUVAIN_CHAOS_ALL_SEEDS");
    let seeds: &[u64] = if full { &ALL_SEEDS } else { &PR_SEEDS };
    std::iter::once(None)
        .chain(seeds.iter().copied().map(Some))
        .collect()
}

fn rank_counts() -> Vec<usize> {
    let mut counts = vec![2, 4];
    if louvain_runtime::env_flag("LOUVAIN_RACE_EIGHT_RANKS") {
        counts.push(8);
    }
    counts
}

/// Mixed-magnitude planted graph: the weights make every FP fold-order
/// or round-trip defect bitwise-visible.
fn chaos_graph() -> EdgeList {
    let (el0, _) = generate_planted(
        &PlantedConfig {
            communities: 6,
            community_size: 20,
            p_in: 0.35,
            p_out: 0.02,
        },
        23,
    );
    let mut b = EdgeListBuilder::new(el0.num_vertices());
    for (i, e) in el0.edges().iter().enumerate() {
        let w = match i % 3 {
            0 => 1e8,
            1 => 0.1,
            _ => 0.3,
        };
        b.add_edge(e.u, e.v, w);
    }
    b.build()
}

fn chaos_config(ranks: usize, perturb_seed: Option<u64>) -> ParallelConfig {
    ParallelConfig {
        perturb_seed,
        record_protocol: true,
        checkpoint_every_level: 1,
        ..ParallelConfig::with_ranks(ranks)
    }
}

/// Everything the recovery contract covers, floats as bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    final_modularity: u64,
    level_traces: Vec<(u64, Vec<u64>)>,
    final_partition: Vec<u32>,
    level_partitions: Vec<Vec<u32>>,
}

fn fingerprint(r: &ParallelResult) -> Fingerprint {
    Fingerprint {
        final_modularity: r.result.final_modularity.to_bits(),
        level_traces: r
            .result
            .levels
            .iter()
            .map(|l| {
                (
                    l.modularity.to_bits(),
                    l.q_trace.iter().map(|q| q.to_bits()).collect(),
                )
            })
            .collect(),
        final_partition: r.result.final_partition.labels().to_vec(),
        level_partitions: r
            .result
            .level_partitions
            .iter()
            .map(|p| p.labels().to_vec())
            .collect(),
    }
}

/// Writes the failing scenario where the chaos CI job picks artifacts
/// up, then fails the test with a one-command replay line.
fn fail_with_artifact(case: &ChaosCase, tag: &str, detail: &str) -> ! {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{tag}.json"));
    let _ = std::fs::write(&path, case.to_json().render());
    panic!(
        "{detail}\nfailing fault plan written to {p}\nreplay with: cargo run -p louvain-bench -- --fault-plan {p}",
        p = path.display()
    );
}

/// The tentpole acceptance test: crash one rank at every level boundary
/// (plus once before the first checkpoint exists), at every rank count,
/// across the perturb-seed matrix — the recovered run must be bitwise
/// the fault-free run.
#[test]
fn recovery_is_bit_identical_at_every_crash_point() {
    let edges = chaos_graph();
    for ranks in rank_counts() {
        for seed in perturb_seeds() {
            let baseline = ParallelLouvain::new(chaos_config(ranks, seed)).run(&edges);
            let base_fp = fingerprint(&baseline);
            assert_eq!(baseline.recovery_replays, 0);
            assert!(
                baseline.checkpoints_taken >= ranks as u64,
                "cadence 1 must checkpoint every rank at least once"
            );
            assert!(
                !baseline.level_boundary_clocks.is_empty(),
                "no boundaries to aim at"
            );

            // Aim points: clock 1.0 fires during loading/level 0 (before
            // any checkpoint — a restart from scratch), and each boundary
            // + 0.5 fires at the first sync inside the following level
            // (after that boundary's checkpoint); the last aim lands on
            // the trailing clock-read sync after the loop.
            let aims: Vec<f64> = std::iter::once(1.0)
                .chain(baseline.level_boundary_clocks.iter().map(|c| c + 0.5))
                .collect();
            for (i, &at_clock) in aims.iter().enumerate() {
                let victim = i % ranks;
                let plan = FaultPlan::crash(victim, at_clock);
                let case = ChaosCase {
                    ranks,
                    perturb_seed: seed,
                    checkpoint_every_level: 1,
                    fault_plan: plan.clone(),
                };
                let tag = format!(
                    "crash-r{ranks}-s{}-aim{i}",
                    seed.map_or("none".to_string(), |s| s.to_string())
                );
                let recovered = ParallelLouvain::new(ParallelConfig {
                    fault_plan: plan,
                    ..chaos_config(ranks, seed)
                })
                .run(&edges);
                if recovered.faults.crashes != 1 || recovered.recovery_replays != 1 {
                    fail_with_artifact(
                        &case,
                        &tag,
                        &format!(
                            "expected exactly one crash and one replay, got {} / {}",
                            recovered.faults.crashes, recovered.recovery_replays
                        ),
                    );
                }
                if fingerprint(&recovered) != base_fp {
                    fail_with_artifact(
                        &case,
                        &tag,
                        "recovered run diverged from the fault-free run",
                    );
                }
                if recovered.protocol_logs != baseline.protocol_logs {
                    fail_with_artifact(
                        &case,
                        &tag,
                        "recovered protocol log diverged from the fault-free log",
                    );
                }
            }
        }
    }
}

/// Masked transport faults must be invisible end-to-end: same results,
/// no recovery, but the injection really fired.
#[test]
fn masked_transport_faults_leave_solver_output_bit_identical() {
    let edges = chaos_graph();
    for ranks in [2usize, 4] {
        let baseline = ParallelLouvain::new(ParallelConfig::with_ranks(ranks)).run(&edges);
        let plan = FaultPlan {
            seed: 0xC0FFEE,
            drop_one_in: 7,
            duplicate_one_in: 9,
            delay_one_in: 5,
            ..FaultPlan::default()
        };
        let case = ChaosCase {
            ranks,
            perturb_seed: None,
            checkpoint_every_level: 0,
            fault_plan: plan.clone(),
        };
        let faulted = ParallelLouvain::new(ParallelConfig {
            fault_plan: plan,
            ..ParallelConfig::with_ranks(ranks)
        })
        .run(&edges);
        assert_eq!(faulted.recovery_replays, 0);
        assert_eq!(faulted.faults.crashes, 0);
        if faulted.faults.packets_dropped == 0
            || faulted.faults.packets_duplicated == 0
            || faulted.faults.packets_delayed == 0
        {
            fail_with_artifact(
                &case,
                &format!("transport-r{ranks}"),
                &format!("fault rates never fired: {:?}", faulted.faults),
            );
        }
        if fingerprint(&faulted) != fingerprint(&baseline) {
            fail_with_artifact(
                &case,
                &format!("transport-r{ranks}"),
                "masked transport faults changed solver output",
            );
        }
        // The logical comm counters live above the faulty wire.
        assert_eq!(faulted.comm, baseline.comm);
        assert_eq!(faulted.syncs, baseline.syncs);
    }
}

/// Satellite: the checkpoint subsystem itself is observation-free.
/// Serializing every rank's state at every boundary (and never reading
/// it back) must leave results, the simulated clock, and the sync count
/// bit-identical to a run with checkpointing off — on the
/// mixed-magnitude weights where any perturbation would show.
#[test]
fn checkpointing_alone_changes_nothing() {
    let edges = chaos_graph();
    for ranks in [2usize, 4] {
        let off = ParallelLouvain::new(ParallelConfig::with_ranks(ranks)).run(&edges);
        let on = ParallelLouvain::new(ParallelConfig {
            checkpoint_every_level: 1,
            ..ParallelConfig::with_ranks(ranks)
        })
        .run(&edges);
        assert_eq!(fingerprint(&on), fingerprint(&off), "ranks={ranks}");
        assert_eq!(
            on.sim_total_units.to_bits(),
            off.sim_total_units.to_bits(),
            "the checkpoint barrier must not advance the simulated clock"
        );
        assert_eq!(on.syncs, off.syncs);
        assert!(on.checkpoints_taken > 0);
        assert!(on.checkpoint_bytes > 0);
        assert_eq!(off.checkpoints_taken, 0);
        assert_eq!(off.checkpoint_bytes, 0);
    }
}
