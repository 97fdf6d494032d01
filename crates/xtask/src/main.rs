//! CLI for the workspace tooling: `cargo run -p xtask -- <command>`.
//!
//! Commands:
//! - `lint [--json] [--update-baseline] [paths..]` — run the
//!   louvain-lint pass (Section V-B determinism hazards and friends; see
//!   crate docs). Exits non-zero when findings exist;
//!   `--update-baseline` instead rewrites `results/lint_baseline.json`
//!   from a fresh workspace run.
//! - `protocol [--check|--update]` — extract the workspace
//!   collective-protocol spec (phase-graph analysis) and write it to
//!   `results/protocol_spec.json`; `--check` byte-diffs against the
//!   committed spec instead and fails on drift.
//! - `cost [--check|--update]` — extract the communication-cost spec
//!   (per-site payload bound + invocation multiplicity) and write it to
//!   `results/cost_spec.json`; `--check` byte-diffs like `protocol`.
//!
//! The full local gate (fmt, clippy, these commands, docs, tests and the
//! race/chaos harnesses) is `scripts/check.sh`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::costgraph::extract_cost_spec;
use xtask::lint::{lint_source, lint_workspace, to_json_report, Finding};
use xtask::phasegraph::extract_protocol_spec;

/// Workspace-relative path of the committed protocol-spec lockfile.
const PROTOCOL_SPEC_PATH: &str = "results/protocol_spec.json";

/// Workspace-relative path of the committed cost-spec lockfile.
const COST_SPEC_PATH: &str = "results/cost_spec.json";

/// Workspace-relative path of the committed lint baseline.
const LINT_BASELINE_PATH: &str = "results/lint_baseline.json";

fn workspace_root() -> PathBuf {
    // crates/xtask -> workspace root is two levels up.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn run_lint(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let update_baseline = args.iter().any(|a| a == "--update-baseline");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let root = workspace_root();
    if update_baseline {
        // One-command lockfile regeneration (the counterpart of
        // `protocol --update` / `cost --update`): rewrite the committed
        // baseline from a fresh workspace run.
        let findings = match lint_workspace(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("xtask lint: I/O error: {e}");
                return ExitCode::from(2);
            }
        };
        let path = root.join(LINT_BASELINE_PATH);
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("xtask lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        let report = to_json_report(&findings);
        if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
            eprintln!("xtask lint: cannot write {LINT_BASELINE_PATH}: {e}");
            return ExitCode::from(2);
        }
        eprintln!(
            "xtask lint: wrote {LINT_BASELINE_PATH} ({} finding(s))",
            findings.len()
        );
        return ExitCode::SUCCESS;
    }
    let mut findings: Vec<Finding> = Vec::new();
    let result: std::io::Result<()> = if paths.is_empty() {
        lint_workspace(&root).map(|f| findings = f)
    } else {
        paths.iter().try_for_each(|p| {
            let target = root.join(p.as_str());
            let target = if target.exists() {
                target
            } else {
                PathBuf::from(p.as_str())
            };
            if target.is_file() {
                let rel = target
                    .strip_prefix(&root)
                    .unwrap_or(&target)
                    .to_string_lossy()
                    .replace('\\', "/");
                let src = std::fs::read_to_string(&target)?;
                findings.extend(lint_source(&rel, &src));
                Ok(())
            } else {
                lint_workspace(&target).map(|f| findings.extend(f))
            }
        })
    };
    if let Err(e) = result {
        eprintln!("xtask lint: I/O error: {e}");
        return ExitCode::from(2);
    }
    // Deterministic report order regardless of how the paths were
    // gathered: explicit path arguments are visited in argv order, so
    // re-sort the union the same way `lint_workspace` sorts its walk.
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    if json {
        println!("{}", to_json_report(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        eprintln!(
            "xtask lint: {} finding(s) across the workspace",
            findings.len()
        );
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The first line where two lockfile texts differ: its 1-based number
/// and both versions of it (`<end of file>` past either end).
fn first_difference<'a>(committed: &'a str, fresh: &'a str) -> (usize, &'a str, &'a str) {
    let (mut a, mut b) = (committed.lines(), fresh.lines());
    let mut line = 1;
    loop {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (x, y) => {
                return (
                    line,
                    x.unwrap_or("<end of file>"),
                    y.unwrap_or("<end of file>"),
                )
            }
        }
    }
}

/// Shared driver for the spec lockfile subcommands (`protocol`,
/// `cost`): `--check` byte-diffs the fresh extraction against the
/// committed file (every mismatch hint names the exact regeneration
/// command and shows the first differing line), `--update` (or no flag)
/// rewrites it. `--spec-path <file>`
/// overrides the lockfile location; the conformance tests use it to
/// prove `--check` rejects a stale spec without touching the committed
/// one.
fn run_lockfile(
    cmd: &str,
    spec_path: &str,
    args: &[String],
    rendered: &str,
    written_note: &str,
    stale_note: &str,
) -> ExitCode {
    let check = args.iter().any(|a| a == "--check");
    let spec_override = args
        .iter()
        .position(|a| a == "--spec-path")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let root = workspace_root();
    let path = spec_override.unwrap_or_else(|| root.join(spec_path));
    let regen = format!("cargo run -p xtask -- {cmd}");
    if check {
        match std::fs::read_to_string(&path) {
            Ok(committed) if committed == rendered => {
                eprintln!("xtask {cmd}: {spec_path} is up to date");
                ExitCode::SUCCESS
            }
            Ok(committed) => {
                eprintln!(
                    "xtask {cmd}: {spec_path} is stale — {stale_note}; regenerate with \
                     `{regen}` and commit the diff"
                );
                let (line, old, new) = first_difference(&committed, rendered);
                eprintln!("  first difference at line {line}:");
                eprintln!("    committed: {old}");
                eprintln!("    fresh:     {new}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!(
                    "xtask {cmd}: cannot read {spec_path} ({e}); generate it with \
                     `{regen}` and commit it"
                );
                ExitCode::FAILURE
            }
        }
    } else {
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("xtask {cmd}: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&path, rendered) {
            eprintln!("xtask {cmd}: cannot write {spec_path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("xtask {cmd}: wrote {spec_path} ({written_note})");
        ExitCode::SUCCESS
    }
}

fn run_protocol(args: &[String]) -> ExitCode {
    let spec = match extract_protocol_spec(&workspace_root()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask protocol: extraction failed: {e}");
            return ExitCode::from(2);
        }
    };
    run_lockfile(
        "protocol",
        PROTOCOL_SPEC_PATH,
        args,
        &spec.to_json(),
        &format!(
            "entry {}, {} top-level node(s)",
            spec.entry,
            spec.protocol.len()
        ),
        "the communication skeleton changed",
    )
}

fn run_cost(args: &[String]) -> ExitCode {
    let spec = match extract_cost_spec(&workspace_root()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask cost: extraction failed: {e}");
            return ExitCode::from(2);
        }
    };
    run_lockfile(
        "cost",
        COST_SPEC_PATH,
        args,
        &spec.to_json(),
        &format!("entry {}, {} site(s)", spec.entry, spec.sites.len()),
        "the per-phase communication volume classes changed",
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("protocol") => run_protocol(&args[1..]),
        Some("cost") => run_cost(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint [--json] [--update-baseline] [paths..] \
                 | protocol [--check|--update] | cost [--check|--update]>"
            );
            ExitCode::from(2)
        }
    }
}
