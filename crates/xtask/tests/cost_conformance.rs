//! Dynamic cost conformance: the committed symbolic cost spec
//! (`results/cost_spec.json`, DESIGN.md §12) declares a payload bound
//! and invocation multiplicity for every communication site; these tests
//! check the *observed* per-phase message counters against the concrete
//! bounds those classes imply, at 2/4/8 ranks and under every perturbed
//! delivery schedule — and prove the bounds have teeth by inflating a
//! run's state-propagation volume to the per-arc rebuild's order and
//! watching the check reject it.

use std::path::{Path, PathBuf};
use std::process::Command;

use louvain_core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use louvain_graph::edgelist::EdgeListBuilder;
use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
use louvain_graph::EdgeList;
use xtask::{extract_cost_spec, CostSpec};

/// Same seed battery as the race harness in
/// `crates/runtime/tests/schedule_perturbation.rs`.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX];

/// Each message is a 16-byte POD (`Msg { a: u32, b: u32, w: f64 }`) —
/// the spec's `O(1)` payload unit.
const MSG_BYTES: u64 = 16;

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

fn spec() -> CostSpec {
    extract_cost_spec(&workspace_root()).expect("cost extraction succeeds on the tree")
}

/// Hard failure on a pegged counter: a saturated reading no longer
/// measures anything, so any bound comparison against it is meaningless
/// and must not silently pass (`louvain_trace::Counter::is_saturated`).
fn not_pegged(name: &str, v: u64) -> u64 {
    assert_ne!(
        v,
        u64::MAX,
        "trace counter `{name}` is saturated (pegged at u64::MAX); \
         refusing to check bounds against a meaningless reading"
    );
    v
}

/// Total migrations of a run over every level and inner iteration.
fn moves_total(r: &ParallelResult) -> u64 {
    let mut moves = 0u64;
    for lvl in &r.result.levels {
        for &f in &lvl.move_fractions {
            // `f` was computed as moves / n, so this recovers the exact
            // per-iteration global move count.
            moves += (f * lvl.num_vertices as f64).round() as u64;
        }
    }
    moves
}

/// Concrete per-phase message bounds implied by the committed cost
/// classes, evaluated against the observed `CommBreakdown` (summed over
/// ranks). Returns violations instead of asserting so the mutation test
/// can demand a *failure* from the same checker that passes the tree.
fn violations(r: &ParallelResult, ranks: u64, raw_edges: u64, distributed: bool) -> Vec<String> {
    let cb = &r.comm_breakdown;
    for (name, v) in [
        ("comm_breakdown.loading", cb.loading),
        ("comm_breakdown.state_propagation", cb.state_propagation),
        ("comm_breakdown.update", cb.update),
        ("comm_breakdown.reconstruction", cb.reconstruction),
        ("comm.messages", r.comm.messages),
        ("dedup_hits", r.dedup_hits),
        ("bytes_sent", r.bytes_sent),
        ("frontier.active_vertices", r.frontier.active_vertices),
        ("frontier.skipped_scans", r.frontier.skipped_scans),
    ] {
        not_pegged(name, v);
    }

    // Arcs of the input graph: every level's tables only shrink from
    // here, so `arcs` upper-bounds every O(local_arcs) class.
    let arcs = 2 * raw_edges;
    // Recover the solver quantities the symbolic classes are expressed
    // in from the per-level result: total migrations (`deltas`).
    let moves_total = moves_total(r);
    // reconstruct, per level: one O(local_arcs) edge re-key of the
    // coarsened tables, its only send site.
    let recon_terms = arcs * r.result.levels.len() as u64;

    let mut out = Vec::new();
    let mut check = |phase: &str, observed: u64, bound: u64, class: &str| {
        if observed > bound {
            out.push(format!(
                "{phase}: observed {observed} messages exceeds the {class} bound of {bound}"
            ));
        }
    };
    // loading — `build_initial_level_distributed` has three send sites,
    // each at most once per raw chunk edge: O(local_arcs) × per_run. The
    // replicated build path sends nothing.
    if distributed {
        check(
            "loading",
            cb.loading,
            3 * raw_edges,
            "O(local_arcs) per-run",
        );
    } else {
        check("loading", cb.loading, 0, "replicated-build zero-message");
    }
    // state propagation — `announce_migrations` is O(deltas) × per_iteration:
    // each migrated vertex is announced once to each of at most `ranks`
    // distinct owners per iteration, never the per-arc rebuild volume.
    check(
        "state_propagation",
        cb.state_propagation,
        moves_total * ranks,
        "O(deltas) per-iteration",
    );
    // community update — two O(frontier) sites per inner iteration: the
    // sweep walks the frontier's eligible list (the vertices with a
    // positive cached gain), and each mover — a subset of that list —
    // ships exactly two Σ_tot messages (leave + join). `moves_total` is
    // recovered exactly from the move fractions, so this concrete bound
    // is exact, and anything that respects it trivially respects the
    // looser O(frontier) and the old O(n_local) classes it tightened
    // from.
    check(
        "update",
        cb.update,
        2 * moves_total,
        "O(frontier) per-iteration (2 messages per move)",
    );
    // reconstruction — per-level, see `recon_terms`.
    check(
        "reconstruction",
        cb.reconstruction,
        recon_terms,
        "per-level reconstruction",
    );
    // O(1) payload unit: wire bytes scale linearly with messages at the
    // fixed POD size — no hidden payload growth.
    check(
        "bytes_sent",
        r.bytes_sent,
        MSG_BYTES * r.comm.messages,
        "16-byte O(1) message",
    );
    out
}

/// The committed lockfile and a fresh extraction are byte-identical —
/// the in-repo equivalent of `xtask cost --check`.
#[test]
fn committed_spec_matches_fresh_extraction() {
    let committed = std::fs::read_to_string(workspace_root().join("results/cost_spec.json"))
        .expect("results/cost_spec.json is committed");
    assert_eq!(
        committed,
        spec().to_json(),
        "committed cost spec is stale; regenerate with `cargo run -p xtask -- cost`"
    );
}

/// Static invariants the rest of this suite leans on: the delta path is
/// classified as O(deltas) per iteration, and nothing in the tree ships
/// an unbounded payload or sits in a rank-tainted loop.
#[test]
fn spec_classifies_the_delta_path_and_bans_unbounded() {
    let s = spec();
    let delta = s
        .sites
        .iter()
        .find(|c| c.site.ends_with("::announce_migrations#0"))
        .expect("announce_migrations site present");
    assert_eq!(delta.op, "send");
    assert_eq!(delta.payload, "O(deltas)");
    assert_eq!(delta.multiplicity, "per_iteration");
    // The two Σ_tot announcements of the update sweep ride the frontier
    // worklist, not the full vertex range: the scan work class tightened
    // from O(n_local) to O(frontier) (DESIGN.md §13).
    for idx in 0..2 {
        let upd = s
            .sites
            .iter()
            .find(|c| c.site.ends_with(&format!("::refine#{idx}")))
            .expect("refine update site present");
        assert_eq!(upd.op, "send");
        assert_eq!(upd.payload, "O(frontier)");
        assert_eq!(upd.multiplicity, "per_iteration");
    }
    // Modularity sums each rank's own rows (DESIGN.md §10): no Σ_in
    // message is sent.
    assert!(
        s.sites
            .iter()
            .all(|c| !c.site.contains("::compute_modularity#")),
        "compute_modularity sends"
    );
    for c in &s.sites {
        assert_ne!(
            c.payload, "Unbounded",
            "{} ships an unbounded payload",
            c.site
        );
        assert_ne!(
            c.multiplicity, "rank_tainted_loop",
            "{} sits in a rank-tainted loop",
            c.site
        );
    }
}

/// The acceptance test: at 2/4/8 ranks, unperturbed and under every
/// perturbed schedule, the observed per-phase volumes respect the bounds
/// the committed classes imply.
#[test]
fn observed_volumes_respect_declared_bounds() {
    let edges = test_graph();
    let raw = edges.num_edges() as u64;
    for ranks in [2usize, 4, 8] {
        for seed in std::iter::once(None).chain(SEEDS.iter().map(|&s| Some(s))) {
            let r = ParallelLouvain::new(ParallelConfig {
                perturb_seed: seed,
                ..ParallelConfig::with_ranks(ranks)
            })
            .run(&edges);
            let v = violations(&r, ranks as u64, raw, false);
            assert!(
                v.is_empty(),
                "{ranks} ranks, seed {seed:?}: cost conformance violations:\n{}",
                v.join("\n")
            );
        }
    }
}

/// Distributed loading takes the spec's other initial arm
/// (`build_initial_level_distributed`, O(local_arcs) × per_run); its
/// observed volume must respect that bound too.
#[test]
fn distributed_build_volumes_respect_declared_bounds() {
    let el = test_graph();
    let raw = el.num_edges() as u64;
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
    let r = ParallelLouvain::new(ParallelConfig::with_ranks(ranks))
        .run_from_parts(el.num_vertices(), |rk| chunks[rk].clone());
    assert!(
        r.comm_breakdown.loading > 0,
        "distributed build should actually exchange edges"
    );
    let v = violations(&r, ranks as u64, raw, true);
    assert!(
        v.is_empty(),
        "distributed build: cost conformance violations:\n{}",
        v.join("\n")
    );
}

/// The seeded mutation: a run whose state propagation ships more than
/// one announcement per migration and destination rank — the volume of
/// a per-arc rebuild, which leaves the solver output unchanged, so output
/// tests cannot catch it — must blow through the O(deltas) bound: the
/// volume verifier, not bench drift, rejects the regression.
#[test]
fn inflated_state_propagation_is_rejected_by_the_volume_bounds() {
    let edges = test_graph();
    let raw = edges.num_edges() as u64;
    let mut r = ParallelLouvain::new(ParallelConfig::with_ranks(2)).run(&edges);
    assert!(violations(&r, 2, raw, false).is_empty());
    let bound = moves_total(&r) * 2;
    assert!(r.comm_breakdown.state_propagation <= bound);
    r.comm_breakdown.state_propagation = bound + 1;
    let v = violations(&r, 2, raw, false);
    assert!(
        v.iter().any(|m| m.starts_with("state_propagation")),
        "state propagation past the O(deltas) bound must be reported; \
         got violations: {v:?}"
    );
}

/// The CLI gate end to end: `cost --check` passes against the committed
/// lockfile and fails (with the exact regeneration hint) against a
/// seeded stale copy supplied via `--spec-path`.
#[test]
fn cost_check_cli_passes_on_tree_and_fails_on_seeded_mutation() {
    let ok = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["cost", "--check"])
        .output()
        .expect("xtask binary runs");
    assert!(
        ok.status.success(),
        "cost --check failed on the committed tree: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    let committed = std::fs::read_to_string(workspace_root().join("results/cost_spec.json"))
        .expect("committed spec readable");
    let mutated = committed.replacen("\"O(deltas)\"", "\"O(local_arcs)\"", 1);
    assert_ne!(committed, mutated, "mutation seed found nothing to change");
    let stale_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_cost_spec.json");
    std::fs::write(&stale_path, &mutated).expect("tmp spec written");

    let bad = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args([
            "cost",
            "--check",
            "--spec-path",
            stale_path.to_str().expect("utf-8 tmp path"),
        ])
        .output()
        .expect("xtask binary runs");
    assert!(
        !bad.status.success(),
        "cost --check accepted a mutated spec"
    );
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("stale") && stderr.contains("cargo run -p xtask -- cost"),
        "stale diagnostic must carry the regeneration hint: {stderr}"
    );
    // The diagnostic names the first moved line, committed and fresh.
    let (line, (stale_text, fresh_text)) = mutated
        .lines()
        .zip(committed.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .expect("the mutation moved a line");
    assert!(
        stale_text.contains("\"O(local_arcs)\"")
            && stderr.contains(&format!("first difference at line {}:", line + 1))
            && stderr.contains(&format!("committed: {stale_text}"))
            && stderr.contains(&format!("fresh:     {fresh_text}")),
        "stale diagnostic must show the mutated line: {stderr}"
    );
}
