//! End-to-end tests of the `louvain` CLI binary: file input, generator
//! input, solver selection, refinement, and output format.

use std::io::Write;
use std::process::Command;

fn louvain_bin() -> &'static str {
    env!("CARGO_BIN_EXE_louvain")
}

#[test]
fn generates_and_solves_lfr() {
    let out = Command::new(louvain_bin())
        .args(["--generate", "lfr:2000:0.3", "--solver", "seq", "--levels"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("graph: 2000 vertices"), "{stderr}");
    assert!(stderr.contains("Q = 0."), "{stderr}");
    assert!(stderr.contains("level  communities"), "{stderr}");
    // stdout: one "vertex community" line per vertex.
    let lines: Vec<&str> = out
        .stdout
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| std::str::from_utf8(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 2000);
    let first: Vec<&str> = lines[0].split(' ').collect();
    assert_eq!(first[0], "0");
    let _: u32 = first[1].parse().expect("community id");
}

#[test]
fn reads_edge_list_file_and_writes_output() {
    let dir = std::env::temp_dir();
    let input = dir.join("louvain_cli_test_input.edges");
    let output = dir.join("louvain_cli_test_output.txt");
    {
        let mut f = std::fs::File::create(&input).unwrap();
        // Two triangles + bridge.
        writeln!(f, "# n 6").unwrap();
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            writeln!(f, "{u} {v}").unwrap();
        }
    }
    let out = Command::new(louvain_bin())
        .args([
            input.to_str().unwrap(),
            "--solver",
            "parallel",
            "--ranks",
            "2",
            "--output",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&output).unwrap();
    let labels: Vec<u32> = written
        .lines()
        .map(|l| l.split(' ').nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(labels.len(), 6);
    // The two triangles must be separated.
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[0], labels[2]);
    assert_eq!(labels[3], labels[4]);
    assert_ne!(labels[0], labels[3]);
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
}

#[test]
fn refine_flag_reports_polish() {
    let out = Command::new(louvain_bin())
        .args([
            "--generate",
            "lfr:1500:0.4",
            "--solver",
            "parallel",
            "--refine",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refine: Q"), "{stderr}");
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        vec!["--solver", "nope", "--generate", "gnm:10:5"],
        vec!["--generate", "bogus:1"],
        vec![], // no input at all
        vec!["--ranks", "0", "--generate", "gnm:10:5"],
    ] {
        let out = Command::new(louvain_bin()).args(&args).output().unwrap();
        // Exit 2 is the CLI's own usage error; a panic exits 101.
        assert_eq!(out.status.code(), Some(2), "args {args:?} should fail");
    }
}

/// Weights near `f64::MAX` pass the reader; every solver must still
/// print a finite Q (their sums overflowed to `Q = NaN` before the
/// solvers rescaled out-of-band weights).
#[test]
fn near_max_weights_print_a_finite_q() {
    let input = std::env::temp_dir().join("louvain_cli_test_near_max.edges");
    std::fs::write(&input, "0 1 1e308\n1 2 1e308\n0 2 1e308\n").unwrap();
    for solver in ["seq", "smp", "parallel"] {
        let out = Command::new(louvain_bin())
            .args([input.to_str().unwrap(), "--solver", solver])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{solver}: {stderr}");
        assert!(stderr.contains("Q = "), "{solver}: {stderr}");
        assert!(!stderr.contains("NaN"), "{solver}: {stderr}");
    }
    let _ = std::fs::remove_file(&input);
}

/// Each weight is finite, but the merged duplicate (or a self-loop's
/// doubled arc weight) overflows: the reader rejects the input like any
/// malformed line, naming the line and the edge, instead of solving to
/// `Q = NaN`.
#[test]
fn overflowing_merged_weights_are_rejected() {
    for (name, text, line, pair) in [
        ("merged", "0 1 1e308\n1 0 1e308\n", 2, "0-1"),
        ("loop", "0 1\n1 1 1e308\n", 2, "1-1"),
    ] {
        let input = std::env::temp_dir().join(format!("louvain_cli_test_overflow_{name}.edges"));
        std::fs::write(&input, text).unwrap();
        let out = Command::new(louvain_bin())
            .arg(input.to_str().unwrap())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(&format!("line {line}")), "{name}: {stderr}");
        assert!(stderr.contains(pair), "{name}: {stderr}");
        assert!(!stderr.contains("Q = "), "{name}: {stderr}");
        let _ = std::fs::remove_file(&input);
    }
}
