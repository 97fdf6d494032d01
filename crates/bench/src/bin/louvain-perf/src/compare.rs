//! `louvain-perf compare <a> <b>`: pairs the results of two sets of runs
//! by workload and judges every end-to-end metric against its bound.

use crate::report::Loaded;
use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use louvain_bench::Table;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound.
    Within,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// One side's interquartile spread is wider than the bound, so the
    /// runs cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on `b` against baseline `a`; `None` for metrics without
/// a bound (the per-layer ones).
pub fn verdict(spec: &MetricSpec, a: &Summary, b: &Summary) -> Option<Verdict> {
    let bound = spec.bound?;
    if a.spread().max(b.spread()) > bound {
        return Some(Verdict::Unresolved);
    }
    let worsening = match spec.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let base = a.median.abs();
    let worse = if base > 0.0 {
        worsening / base > bound
    } else {
        worsening > 0.0
    };
    Some(if worse {
        Verdict::Worse
    } else {
        Verdict::Within
    })
}

/// Reads one result file, or every `.json` file in a directory.
pub fn load(path: &Path) -> Result<Vec<Loaded>, String> {
    let files = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut out: Vec<Loaded> = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let r = Loaded::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        if out.iter().any(|o| o.workload == r.workload) {
            return Err(format!(
                "{}: a second result for workload `{}`",
                path.display(),
                r.workload
            ));
        }
        out.push(r);
    }
    Ok(out)
}

fn cell(s: &Summary) -> String {
    format!("{:.6e} [{:.6e}, {:.6e}] n={}", s.median, s.q1, s.q3, s.n)
}

/// Renders the comparison of `b` against baseline `a`, one table per
/// workload present on both sides.
pub fn compare(a: &[Loaded], b: &[Loaded]) -> String {
    let mut out = String::new();
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            out.push_str(&format!(
                "workload {}: no result on the b side\n\n",
                ra.workload
            ));
            continue;
        };
        let mut t = Table::new(&["metric", "a", "b", "change", "verdict"]);
        for spec in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(sa), Some(sb)) = (ra.metric(spec.name), rb.metric(spec.name)) else {
                continue;
            };
            let base = sa.median.abs();
            let change = if base > 0.0 {
                format!("{:+.2}%", (sb.median - sa.median) / base * 100.0)
            } else {
                "-".to_string()
            };
            t.row(&[
                spec.name.to_string(),
                cell(sa),
                cell(sb),
                change,
                verdict(spec, sa, sb)
                    .map_or("-", Verdict::as_str)
                    .to_string(),
            ]);
        }
        let fail = if rb.fail_ratio() > ra.fail_ratio() {
            Verdict::Worse
        } else {
            Verdict::Within
        };
        t.row(&[
            "failed".to_string(),
            format!("{}/{}", ra.failed, ra.attempted),
            format!("{}/{}", rb.failed, rb.attempted),
            "-".to_string(),
            fail.as_str().to_string(),
        ]);
        out.push_str(&format!("workload {}\n{}", ra.workload, t.render()));
        let (traced, plain) = if ra.traced { (ra, rb) } else { (rb, ra) };
        if let (true, false, Some(ts), Some(solve)) = (
            traced.traced,
            plain.traced,
            traced.traced_solve_s,
            plain.metric("solve_s"),
        ) {
            out.push_str(&format!(
                "tracing overhead: {:+.2}% of solve_s (traced solve {ts:.6} s, untraced median {:.6} s)\n",
                (ts - solve.median) / solve.median * 100.0,
                solve.median
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::metric;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            n: 10,
            q1,
            median,
            q3,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let solve = metric("solve_s").unwrap(); // lower is better, bound 24%
        let teps = metric("teps").unwrap(); // higher is better, bound 24%
        let tight = s(0.99, 1.0, 1.01);
        assert_eq!(
            verdict(solve, &tight, &s(1.04, 1.05, 1.06)),
            Some(Verdict::Within)
        );
        assert_eq!(
            verdict(solve, &tight, &s(0.5, 0.5, 0.5)),
            Some(Verdict::Within)
        );
        assert_eq!(
            verdict(solve, &tight, &s(1.29, 1.3, 1.31)),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(teps, &tight, &s(1.29, 1.3, 1.31)),
            Some(Verdict::Within)
        );
        assert_eq!(
            verdict(teps, &tight, &s(0.69, 0.7, 0.71)),
            Some(Verdict::Worse)
        );
        // A 30% interquartile spread cannot resolve a 24% bound.
        let wide = s(0.85, 1.0, 1.15);
        assert_eq!(verdict(solve, &tight, &wide), Some(Verdict::Unresolved));
        assert_eq!(verdict(solve, &wide, &tight), Some(Verdict::Unresolved));
        let layer = metric("core.find_best_s").unwrap();
        assert_eq!(verdict(layer, &tight, &wide), None);
    }

    fn loaded(workload: &str, traced: bool, metrics: Vec<(&str, Summary)>) -> Loaded {
        Loaded {
            workload: workload.to_string(),
            traced,
            attempted: 12,
            failed: 0,
            traced_solve_s: traced.then_some(1.02),
            metrics: metrics
                .into_iter()
                .map(|(n, s)| (n.to_string(), s))
                .collect(),
        }
    }

    #[test]
    fn compare_reports_verdicts_failures_and_tracing_overhead() {
        let a = [loaded(
            "amazon",
            false,
            vec![("solve_s", s(0.99, 1.0, 1.01))],
        )];
        let mut b = loaded("amazon", false, vec![("solve_s", s(1.29, 1.3, 1.31))]);
        b.failed = 1;
        let text = compare(&a, &[b]);
        assert!(text.contains("worse"), "{text}");
        assert!(text.contains("+30.00%"), "{text}");
        assert!(text.contains("1/12"), "{text}");

        let traced = loaded("amazon", true, vec![("core.find_best_s", s(0.1, 0.1, 0.1))]);
        let text = compare(&a, &[traced]);
        assert!(text.contains("tracing overhead: +2.00%"), "{text}");
    }
}
