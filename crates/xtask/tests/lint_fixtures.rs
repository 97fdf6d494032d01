//! Integration tests for the lint pass: every seeded fixture under
//! `tests/fixtures/` trips exactly the rule it was built for, the clean
//! fixture trips nothing, the real workspace lints clean, and the CLI
//! exits non-zero on the fixture directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::{lint_source, Finding, Rule};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Lints one fixture file. The `lint-fixture-path:` marker on its first
/// line makes the engine classify it under the masqueraded path.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    lint_source(&format!("crates/xtask/tests/fixtures/{name}"), &src)
}

fn assert_only_rule(name: &str, rule: Rule) {
    let findings = lint_fixture(name);
    assert!(
        !findings.is_empty(),
        "{name}: expected at least one {rule} finding"
    );
    for f in &findings {
        assert_eq!(f.rule, rule, "{name}: unexpected finding {f}");
    }
}

#[test]
fn d1_fixture_fires() {
    assert_only_rule("d1.rs", Rule::D1);
}

#[test]
fn f1_fixture_fires() {
    assert_only_rule("f1.rs", Rule::F1);
}

#[test]
fn f2_fixture_fires() {
    assert_only_rule("f2.rs", Rule::F2);
}

#[test]
fn u1_fixture_fires() {
    assert_only_rule("u1.rs", Rule::U1);
}

#[test]
fn p1_fixture_fires() {
    assert_only_rule("p1.rs", Rule::P1);
}

#[test]
fn c1_fixture_fires() {
    assert_only_rule("c1.rs", Rule::C1);
}

#[test]
fn sup_fixture_fires() {
    assert_only_rule("sup.rs", Rule::Sup);
}

#[test]
fn r1_fixture_fires() {
    assert_only_rule("r1.rs", Rule::R1);
}

#[test]
fn r2_fixture_fires() {
    // The R2 pattern (collective inside a literal-`rank` conditional) is
    // also a rank-divergent branch with asymmetric arms, so the deeper
    // R4 analysis legitimately double-reports it. Require R2 and accept
    // only R4 alongside.
    let findings = lint_fixture("r2.rs");
    assert!(
        findings.iter().any(|f| f.rule == Rule::R2),
        "r2.rs: expected an R2 finding: {findings:?}"
    );
    for f in &findings {
        assert!(
            matches!(f.rule, Rule::R2 | Rule::R4),
            "r2.rs: unexpected finding {f}"
        );
    }
}

#[test]
fn r3_fixture_fires() {
    assert_only_rule("r3.rs", Rule::R3);
}

#[test]
fn t1_fixture_fires() {
    assert_only_rule("t1.rs", Rule::T1);
}

#[test]
fn r4_fixture_fires() {
    assert_only_rule("r4.rs", Rule::R4);
}

#[test]
fn r5_fixture_fires() {
    assert_only_rule("r5.rs", Rule::R5);
    // Each hazard must fire on its own line, including the one whose
    // only collective sits in the `while` condition.
    let src =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r5.rs"))
            .expect("fixture exists");
    let line = 1 + src
        .lines()
        .position(|l| l.contains("while left > 0 && ctx.allreduce_sum"))
        .expect("fixture has the condition case");
    let findings = lint_fixture("r5.rs");
    assert!(
        findings.iter().any(|f| f.line == line),
        "r5.rs: no finding on the `while` condition at line {line}: {findings:?}"
    );
}

#[test]
fn m1_fixture_fires() {
    assert_only_rule("m1.rs", Rule::M1);
}

#[test]
fn a1_fixture_fires() {
    assert_only_rule("a1.rs", Rule::A1);
}

#[test]
fn x1_fixture_fires() {
    assert_only_rule("x1.rs", Rule::X1);
}

/// Parser edge cases — replicated `match` dispatch with per-arm
/// collectives, a labeled `break 'outer` under an open exchange phase,
/// and allocations confined to `emit_with` tracing closures — must not
/// produce false R4/M1/A1 (or any other) findings.
#[test]
fn edge_case_fixture_is_clean() {
    let findings = lint_fixture("edge_cases.rs");
    assert!(findings.is_empty(), "edge cases flagged: {findings:?}");
}

/// R4 must fire on *both* shapes in the fixture: the leader-only branch
/// and the divergent early return.
#[test]
fn r4_fires_on_both_divergence_shapes() {
    let findings = lint_fixture("r4.rs");
    assert_eq!(
        findings.len(),
        2,
        "expected one R4 per fixture function: {findings:?}"
    );
}

/// R4 follows a call into a sibling file: the rank-divergent branch in
/// `cross_file/caller.rs` reaches its exchange only through a function
/// defined in `cross_file/callee.rs`. Linted alone, neither file fires.
/// `cross_file/decoy.rs` defines a collective-free function of the same
/// name in another crate; the same-crate callee must win over it.
#[test]
fn r4_follows_calls_into_sibling_files() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cross_file");
    let findings = xtask::lint_workspace(&dir).expect("fixture walk");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::R4);
    assert_eq!(
        (findings[0].path.as_str(), findings[0].line),
        ("caller.rs", 8)
    );
    assert!(lint_fixture("cross_file/caller.rs").is_empty());
}

/// The whole fixture directory, linted as one set the way
/// `xtask lint crates/xtask/tests/fixtures` does, pinned finding by
/// finding: a rule change that moves, adds or drops a line fails here
/// even when every fixture still trips its own rule.
#[test]
fn fixture_directory_findings_are_pinned_line_for_line() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let got: Vec<(String, Rule, usize)> = xtask::lint_workspace(&dir)
        .expect("fixture walk")
        .into_iter()
        .map(|f| (f.path, f.rule, f.line))
        .collect();
    let want: Vec<(String, Rule, usize)> = [
        ("a1.rs", Rule::A1, 14),
        ("c1.rs", Rule::C1, 1),
        ("c1.rs", Rule::C1, 1),
        ("cross_file/caller.rs", Rule::R4, 8),
        ("d1.rs", Rule::D1, 4),
        ("d1.rs", Rule::D1, 9),
        ("f1.rs", Rule::F1, 6),
        ("f2.rs", Rule::F2, 6),
        ("m1.rs", Rule::M1, 11),
        ("m1.rs", Rule::M1, 19),
        ("midfile_cfg_test.rs", Rule::P1, 25),
        ("p1.rs", Rule::P1, 6),
        ("r1.rs", Rule::R1, 12),
        ("r2.rs", Rule::R4, 10),
        ("r2.rs", Rule::R2, 11),
        ("r3.rs", Rule::R3, 9),
        ("r4.rs", Rule::R4, 10),
        ("r4.rs", Rule::R4, 19),
        ("r5.rs", Rule::R5, 9),
        ("r5.rs", Rule::R5, 17),
        ("r5.rs", Rule::R5, 27),
        ("sup.rs", Rule::Sup, 6),
        ("t1.rs", Rule::T1, 10),
        ("u1.rs", Rule::U1, 6),
        ("x1.rs", Rule::X1, 14),
    ]
    .into_iter()
    .map(|(p, r, l)| (p.to_string(), r, l))
    .collect();
    assert_eq!(got, want);
}

/// Regression for the test-region blind spot: a mid-file `#[cfg(test)]`
/// module is masked, but library code *after* it is linted again. The
/// old file-tail heuristic masked everything to EOF.
#[test]
fn midfile_cfg_test_region_is_masked_but_code_after_is_not() {
    let findings = lint_fixture("midfile_cfg_test.rs");
    assert_eq!(
        findings.len(),
        1,
        "exactly the post-module unwrap should fire: {findings:?}"
    );
    assert_eq!(findings[0].rule, Rule::P1);
    assert_eq!(
        findings[0].line, 25,
        "the finding must sit in `after()`, not the test module"
    );
}

/// Self-check on the fixture corpus: every rule in `Rule::ALL` has a
/// positive fixture (`<id>.rs` trips it) and a negative near-miss block
/// in `clean.rs` (labelled `near-miss(<ID>)`), so adding a rule without
/// both fails here before any tightening ships.
#[test]
fn every_rule_has_positive_and_negative_fixture_coverage() {
    let clean_src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean.rs"),
    )
    .expect("clean fixture exists");
    for rule in Rule::ALL {
        let id = rule.id();
        let fixture = format!("{}.rs", id.to_lowercase());
        let findings = lint_fixture(&fixture);
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "{fixture}: positive fixture for {id} does not trip it: {findings:?}"
        );
        assert!(
            clean_src.contains(&format!("near-miss({id})")),
            "clean.rs misses the near-miss({id}) negative block"
        );
    }
}

#[test]
fn clean_fixture_is_clean() {
    let findings = lint_fixture("clean.rs");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

#[test]
fn fixture_marker_masquerades_classification_not_reporting() {
    // The D1 finding proves the marker path drove classification (the real
    // path is under crates/xtask/, which is not a deterministic solver
    // path), while the reported path stays the real, clickable one.
    let findings = lint_fixture("d1.rs");
    assert!(
        findings
            .iter()
            .all(|f| f.path == "crates/xtask/tests/fixtures/d1.rs"),
        "findings should report the real file path: {findings:?}"
    );
}

/// The acceptance bar for this whole PR: the tree itself carries zero
/// findings (violations are either fixed or suppressed with a reason).
#[test]
fn real_workspace_lints_clean() {
    let findings = xtask::lint_workspace(&workspace_root()).expect("workspace walk");
    assert!(
        findings.is_empty(),
        "workspace must lint clean, found:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn cli_exits_nonzero_on_fixture_directory() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "crates/xtask/tests/fixtures"])
        .output()
        .expect("xtask binary runs");
    assert!(
        !out.status.success(),
        "fixture directory must produce a failing exit"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "D1", "F1", "F2", "U1", "P1", "C1", "SUP", "R1", "R2", "R3", "R4", "R5", "T1", "M1", "A1",
        "X1",
    ] {
        assert!(stdout.contains(rule), "CLI report misses rule {rule}");
    }
}

/// Findings come out sorted by (path, line, rule) no matter the argv
/// order of explicit path arguments.
#[test]
fn cli_report_order_is_deterministic() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args([
            "lint",
            "crates/xtask/tests/fixtures/u1.rs",
            "crates/xtask/tests/fixtures/d1.rs",
        ])
        .output()
        .expect("xtask binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let paths: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split(':').next())
        .filter(|p| p.ends_with(".rs"))
        .collect();
    assert!(!paths.is_empty(), "no findings parsed from: {stdout}");
    let mut sorted = paths.clone();
    sorted.sort_unstable();
    assert_eq!(paths, sorted, "report not sorted by path: {stdout}");
}

#[test]
fn cli_json_report_is_well_formed() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--json", "crates/xtask/tests/fixtures"])
        .output()
        .expect("xtask binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "not JSON: {stdout}");
    assert!(
        stdout.contains(&format!(
            "\"schema_version\": {}",
            xtask::JSON_SCHEMA_VERSION
        )),
        "missing schema_version: {stdout}"
    );
    assert!(stdout.contains("\"total\""), "missing total: {stdout}");
    assert!(
        stdout.contains("\"findings\""),
        "missing findings: {stdout}"
    );
    assert!(stdout.contains("\"rule\":\"D1\""), "missing D1: {stdout}");
    assert!(
        stdout.contains(&format!(
            "\"protocol_spec_schema_version\": {}",
            xtask::PROTOCOL_SPEC_SCHEMA_VERSION
        )),
        "missing protocol_spec_schema_version: {stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "\"bench_snapshot_schema_version\": {}",
            xtask::BENCH_SNAPSHOT_SCHEMA_VERSION
        )),
        "missing bench_snapshot_schema_version: {stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "\"cost_spec_schema_version\": {}",
            xtask::COST_SPEC_SCHEMA_VERSION
        )),
        "missing cost_spec_schema_version: {stdout}"
    );
}

/// `xtask` republishes the bench snapshot's schema version without a
/// dependency on `louvain-bench`, so the two constants can drift. This
/// test reads the bench source and pins them together: bumping one
/// without the other fails here.
#[test]
fn bench_snapshot_schema_version_matches_bench_source() {
    let src = std::fs::read_to_string(workspace_root().join("crates/bench/src/snapshot.rs"))
        .expect("bench snapshot source exists");
    let needle = "pub const SCHEMA_VERSION: u64 = ";
    let pos = src.find(needle).expect("SCHEMA_VERSION declared in bench");
    let rest = &src[pos + needle.len()..];
    let end = rest.find(';').expect("terminated declaration");
    let value: u64 = rest[..end].trim().parse().expect("numeric schema version");
    assert_eq!(
        value,
        xtask::BENCH_SNAPSHOT_SCHEMA_VERSION,
        "louvain_bench::snapshot::SCHEMA_VERSION ({value}) and \
         xtask::BENCH_SNAPSHOT_SCHEMA_VERSION ({}) must move together",
        xtask::BENCH_SNAPSHOT_SCHEMA_VERSION
    );
}
