//! `louvain-bench --fault-plan <file>` — one-command replay of a chaos
//! CI failure (DESIGN.md §14).
//!
//! The chaos gate (`crates/core/tests/chaos_recovery.rs`) writes the
//! failing [`ChaosCase`] JSON under `target/tmp/chaos/` and CI uploads
//! it as an artifact. Feeding that file back here reruns the *exact*
//! scenario — same graph, same rank count, same perturb seed, same
//! seeded fault plan — against a fault-free baseline and reports
//! whether the recovered run is still bit-identical. Everything is
//! deterministic, so a CI failure reproduces locally on the first try
//! or the bug is already gone.

use louvain_core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use louvain_core::ChaosCase;
use louvain_graph::edgelist::EdgeListBuilder;
use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
use louvain_graph::EdgeList;

/// The chaos harness's mixed-magnitude planted graph, reproduced here
/// so a replayed [`ChaosCase`] runs against the same input the CI gate
/// used. Must stay in lockstep with `chaos_graph()` in
/// `crates/core/tests/chaos_recovery.rs`.
#[must_use]
pub fn harness_graph() -> EdgeList {
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

fn config_of(case: &ChaosCase) -> ParallelConfig {
    ParallelConfig {
        perturb_seed: case.perturb_seed,
        record_protocol: true,
        checkpoint_every_level: case.checkpoint_every_level,
        ..ParallelConfig::with_ranks(case.ranks)
    }
}

/// Compare the replayed run against the fault-free baseline and print
/// one verdict line per contract dimension. Returns overall identity.
fn report(baseline: &ParallelResult, replayed: &ParallelResult) -> bool {
    let checks: [(&str, bool); 4] = [
        (
            "final modularity (bitwise)",
            replayed.result.final_modularity.to_bits()
                == baseline.result.final_modularity.to_bits(),
        ),
        (
            "final partition",
            replayed.result.final_partition.labels() == baseline.result.final_partition.labels(),
        ),
        (
            "dendrogram levels",
            replayed.result.level_partitions == baseline.result.level_partitions,
        ),
        (
            "protocol log",
            replayed.protocol_logs == baseline.protocol_logs,
        ),
    ];
    let mut ok = true;
    for (what, same) in checks {
        println!("  {}  {what}", if same { "ok  " } else { "DIFF" });
        ok &= same;
    }
    ok
}

/// Replays the [`ChaosCase`] at `path`. Returns `true` when the
/// recovered run is bit-identical to the fault-free baseline (the CI
/// failure no longer reproduces).
#[must_use]
pub fn replay(path: &str) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read fault plan {path}: {e}");
            return false;
        }
    };
    let case = match ChaosCase::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot parse fault plan {path}: {e}");
            return false;
        }
    };
    println!(
        "replaying {path}: ranks={} perturb_seed={:?} checkpoint_every_level={} crashes={}",
        case.ranks,
        case.perturb_seed,
        case.checkpoint_every_level,
        case.fault_plan.crashes.len()
    );
    let edges = harness_graph();
    let baseline = ParallelLouvain::new(config_of(&case)).run(&edges);
    let replayed = ParallelLouvain::new(ParallelConfig {
        fault_plan: case.fault_plan.clone(),
        ..config_of(&case)
    })
    .run(&edges);
    println!(
        "  faults: {:?}; recovery replays: {}; checkpoints taken: {} ({} bytes)",
        replayed.faults,
        replayed.recovery_replays,
        replayed.checkpoints_taken,
        replayed.checkpoint_bytes
    );
    let ok = report(&baseline, &replayed);
    println!(
        "{}",
        if ok {
            "replay verdict: recovered run is bit-identical to the fault-free run"
        } else {
            "replay verdict: DIVERGENCE reproduced — recovered run differs from the fault-free run"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_runtime::FaultPlan;

    #[test]
    fn replay_of_a_fresh_case_is_bit_identical() {
        let case = ChaosCase {
            ranks: 2,
            perturb_seed: Some(3),
            checkpoint_every_level: 1,
            fault_plan: FaultPlan::crash(1, 1.0),
        };
        let dir = std::env::temp_dir().join("louvain-chaos-replay-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("case.json");
        std::fs::write(&path, case.to_json().render()).expect("write case");
        assert!(replay(path.to_str().expect("utf-8 path")));
    }

    #[test]
    fn replay_rejects_garbage_input() {
        let dir = std::env::temp_dir().join("louvain-chaos-replay-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not a chaos case").expect("write garbage");
        assert!(!replay(path.to_str().expect("utf-8 path")));
        assert!(!replay("/nonexistent/fault/plan.json"));
    }
}
