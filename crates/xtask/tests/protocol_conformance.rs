//! Dynamic conformance: the solver's *observed* collective sequences —
//! recorded by the runtime at every rank — are accepted by an NFA built
//! from the *statically extracted* protocol spec, at 2/4/8 ranks and
//! under every perturbed delivery schedule. This closes the loop between
//! the phase-graph analysis (DESIGN.md §11) and the running system: if
//! the static spec and the real communication skeleton ever disagree,
//! one of these tests fails before the lockfile diff does.

use std::path::{Path, PathBuf};
use std::process::Command;

use louvain_core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use louvain_graph::edgelist::EdgeListBuilder;
use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
use louvain_graph::EdgeList;
use xtask::{extract_protocol_spec, Nfa, ProtocolSpec, SpecNode};

/// Same seed battery as the race harness in
/// `crates/runtime/tests/schedule_perturbation.rs`.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn test_graph() -> EdgeList {
    generate_planted(
        &PlantedConfig {
            communities: 6,
            community_size: 20,
            p_in: 0.35,
            p_out: 0.02,
        },
        42,
    )
    .0
}

fn spec() -> ProtocolSpec {
    extract_protocol_spec(&workspace_root()).expect("spec extraction succeeds on the tree")
}

/// Rank 0's observed sequence as NFA input words, after asserting every
/// rank recorded the identical sequence (lockstep by construction).
fn words(r: &ParallelResult) -> Vec<String> {
    assert!(!r.protocol_logs.is_empty(), "recording produced no logs");
    for (rank, log) in r.protocol_logs.iter().enumerate() {
        assert_eq!(
            log, &r.protocol_logs[0],
            "rank {rank} observed a different collective sequence than rank 0"
        );
        assert!(!log.is_empty(), "rank {rank} recorded no collectives");
    }
    r.protocol_logs[0].iter().map(|k| k.to_string()).collect()
}

/// The committed lockfile and a fresh extraction are byte-identical —
/// the in-repo equivalent of `xtask protocol --check`.
#[test]
fn committed_spec_matches_fresh_extraction() {
    let committed = std::fs::read_to_string(workspace_root().join("results/protocol_spec.json"))
        .expect("results/protocol_spec.json is committed");
    assert_eq!(
        committed,
        spec().to_json(),
        "committed spec is stale; regenerate with `cargo run -p xtask -- protocol`"
    );
}

/// Supersteps on the longest path through `nodes`: the `SimSync`s a
/// single pass can close, taking the longest arm of every branch, one
/// pass of every nested loop, and ignoring early exits (which only
/// shorten a path).
fn longest_sync_path(nodes: &[SpecNode]) -> usize {
    nodes
        .iter()
        .map(|n| match n {
            SpecNode::Op(op) => usize::from(op == "SimSync"),
            SpecNode::Call { body, .. } | SpecNode::Loop(body) => longest_sync_path(body),
            SpecNode::Branch(arms) => arms.iter().map(|a| longest_sync_path(a)).max().unwrap_or(0),
            SpecNode::Break | SpecNode::Continue | SpecNode::Return => 0,
        })
        .sum()
}

/// The body of the first `Call` named `name` on the path the level loop
/// runs.
fn level_call<'a>(spec: &'a ProtocolSpec, name: &str) -> &'a [SpecNode] {
    spec.protocol
        .iter()
        .find_map(|n| match n {
            SpecNode::Loop(body) => body.iter().find_map(|m| match m {
                SpecNode::Call { name: call, body } if call == name => Some(body.as_slice()),
                _ => None,
            }),
            _ => None,
        })
        .unwrap_or_else(|| panic!("spec has a {name} call inside the level loop"))
}

/// One inner iteration of REFINE (Algorithm 4) is four BSP supersteps at
/// most: the ε-threshold gather and the histogram reduction it skips
/// when the budget cannot bind, the UPDATE exchange that also carries
/// the state-propagation deltas, and the (Σ_tot, size) snapshot
/// allgather that also sums the iteration's modularity and move count
/// and feeds the next iteration's FIND BEST. Modularity needs no
/// superstep of its own: each rank sums its own vertices' own rows. Each
/// sync costs a latency on every rank, so a change that adds one fails
/// here by name before it shows as a lockfile diff.
#[test]
fn refine_iteration_closes_four_supersteps() {
    let spec = spec();
    let iteration = level_call(&spec, "refine")
        .iter()
        .find_map(|n| match n {
            SpecNode::Loop(body) => Some(body),
            _ => None,
        })
        .expect("refine has an inner iteration loop");
    assert_eq!(longest_sync_path(iteration), 4);
}

/// GRAPH RECONSTRUCTION (Algorithm 5) is at most three supersteps: the
/// label allgather, the arc-balanced partition's loads reduction, and the
/// row exchange. The new community ids come from REFINE's last replicated
/// size snapshot and cost no superstep.
#[test]
fn reconstruction_closes_three_supersteps() {
    assert_eq!(longest_sync_path(level_call(&spec(), "reconstruct")), 3);
}

/// The acceptance test: at 2/4/8 ranks, under the unperturbed and every
/// perturbed schedule, all ranks observe one identical collective
/// sequence, the static NFA accepts it, and the solver output stays
/// bit-identical across schedules.
#[test]
fn observed_sequences_conform_to_static_spec() {
    let nfa = Nfa::from_spec(&spec());
    let edges = test_graph();
    for ranks in [2usize, 4, 8] {
        let solve = |perturb_seed: Option<u64>| {
            ParallelLouvain::new(ParallelConfig {
                record_protocol: true,
                perturb_seed,
                ..ParallelConfig::with_ranks(ranks)
            })
            .run(&edges)
        };
        let baseline = solve(None);
        let base_words = words(&baseline);
        assert!(
            nfa.accepts(&base_words),
            "{ranks} ranks: observed sequence not accepted by the spec:\n{base_words:?}"
        );
        let base_q = baseline.result.final_modularity.to_bits();
        let base_part = baseline.result.final_partition.labels().to_vec();
        for seed in SEEDS {
            let perturbed = solve(Some(seed));
            assert_eq!(
                words(&perturbed),
                base_words,
                "{ranks} ranks, seed {seed}: perturbation changed the collective sequence"
            );
            assert_eq!(
                perturbed.result.final_modularity.to_bits(),
                base_q,
                "{ranks} ranks, seed {seed}: modularity depends on the schedule"
            );
            assert_eq!(
                perturbed.result.final_partition.labels(),
                &base_part[..],
                "{ranks} ranks, seed {seed}: partition depends on the schedule"
            );
        }
    }
}

/// Distributed loading takes the other arm of the spec's initial branch
/// (`build_initial_level_distributed`); its observed sequence must also
/// be accepted.
#[test]
fn distributed_build_path_conforms_to_static_spec() {
    let nfa = Nfa::from_spec(&spec());
    let el = test_graph();
    let ranks = 2usize;
    let chunks: Vec<EdgeList> = (0..ranks)
        .map(|r| {
            let mut b = EdgeListBuilder::new(el.num_vertices());
            for (i, e) in el.edges().iter().enumerate() {
                if i % ranks == r {
                    b.add_edge(e.u, e.v, e.w);
                }
            }
            b.build()
        })
        .collect();
    let result = ParallelLouvain::new(ParallelConfig {
        record_protocol: true,
        ..ParallelConfig::with_ranks(ranks)
    })
    .run_from_parts(el.num_vertices(), |r| chunks[r].clone());
    let w = words(&result);
    assert!(
        nfa.accepts(&w),
        "distributed-build sequence not accepted by the spec:\n{w:?}"
    );
}

/// Sensitivity control: seeded mutations of the spec (an inserted op, a
/// deleted op, a substituted op) must all *reject* the real observed
/// sequence — the NFA is not vacuously permissive.
#[test]
fn mutated_specs_reject_the_observed_sequence() {
    let base = spec();
    let edges = test_graph();
    let result = ParallelLouvain::new(ParallelConfig {
        record_protocol: true,
        ..ParallelConfig::with_ranks(2)
    })
    .run(&edges);
    let w = words(&result);
    assert!(
        Nfa::from_spec(&base).accepts(&w),
        "control: base spec accepts"
    );

    // Mutate inside the outer loop's `reconstruct` call: its ops are
    // mandatory and run once per level, so every mutation is
    // detectable. The remaining *top-level* ops are not usable probes —
    // the trailing level-boundary `SimSync` is structurally ambiguous
    // with the loop's optional boundary sync, and `Shutdown` is
    // re-appended unconditionally by the NFA builder.
    fn reconstruct_body(spec: &mut ProtocolSpec) -> &mut Vec<SpecNode> {
        spec.protocol
            .iter_mut()
            .find_map(|n| match n {
                SpecNode::Loop(body) => body.iter_mut().find_map(|m| match m {
                    SpecNode::Call { name, body } if name == "reconstruct" => Some(body),
                    _ => None,
                }),
                _ => None,
            })
            .expect("spec has a reconstruct call inside the outer loop")
    }

    let mut inserted = base.clone();
    reconstruct_body(&mut inserted).insert(0, SpecNode::Op("Barrier".into()));
    assert!(
        !Nfa::from_spec(&inserted).accepts(&w),
        "spec with an extra Barrier still accepts the observed sequence"
    );

    let mut removed = base.clone();
    removed.protocol.remove(
        base.protocol
            .iter()
            .position(|n| matches!(n, SpecNode::Loop(_)))
            .expect("spec has the outer level loop"),
    );
    assert!(
        !Nfa::from_spec(&removed).accepts(&w),
        "spec missing the level loop still accepts the observed sequence"
    );

    let mut trimmed = base.clone();
    reconstruct_body(&mut trimmed).remove(0);
    assert!(
        !Nfa::from_spec(&trimmed).accepts(&w),
        "spec missing an op still accepts the observed sequence"
    );

    let mut swapped = base.clone();
    reconstruct_body(&mut swapped)[0] = SpecNode::Op("Barrier".into());
    assert!(
        !Nfa::from_spec(&swapped).accepts(&w),
        "spec with a substituted op still accepts the observed sequence"
    );
}

/// The CLI gate end to end: `--check` passes against the committed
/// lockfile and fails (with the regeneration hint) against a seeded
/// stale copy supplied via `--spec-path`.
#[test]
fn protocol_check_cli_passes_on_tree_and_fails_on_seeded_mutation() {
    let ok = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["protocol", "--check"])
        .output()
        .expect("xtask binary runs");
    assert!(
        ok.status.success(),
        "protocol --check failed on the committed tree: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    let committed = std::fs::read_to_string(workspace_root().join("results/protocol_spec.json"))
        .expect("committed spec readable");
    let mutated = committed.replacen("\"ReduceF64\"", "\"Barrier\"", 1);
    assert_ne!(committed, mutated, "mutation seed found nothing to change");
    let stale_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_protocol_spec.json");
    std::fs::write(&stale_path, mutated).expect("tmp spec written");

    let bad = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args([
            "protocol",
            "--check",
            "--spec-path",
            stale_path.to_str().expect("utf-8 tmp path"),
        ])
        .output()
        .expect("xtask binary runs");
    assert!(
        !bad.status.success(),
        "protocol --check accepted a mutated spec"
    );
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("stale") && stderr.contains("cargo run -p xtask -- protocol"),
        "stale diagnostic must carry the regeneration hint: {stderr}"
    );
}
