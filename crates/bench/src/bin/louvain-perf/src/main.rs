//! louvain-perf: the measured wall-clock benchmark of the Louvain
//! solvers. See README.md beside `Cargo.toml` for the workloads, the
//! metrics and their bounds, and the commands.
//!
//! ```text
//! louvain-perf run --workload <name> [--seed <u64>] [--seconds <s>]
//!                  [--trace 0|1] [--trace-out <file>] [--out <file>]
//! louvain-perf compare <a.json|dir> <b.json|dir>
//! ```

mod compare;
mod host;
mod input;
mod probes;
mod report;
mod run;
mod spans;
mod spec;
mod stats;

use host::Host;
use report::RunInfo;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  louvain-perf run --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1] [--trace-out <file>] [--out <file>]
  louvain-perf compare <a.json|dir> <b.json|dir>";

struct RunArgs {
    workload: spec::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = louvain_bench::SEED;
    let mut seconds = spec::DEFAULT_SECONDS;
    let mut trace = false;
    let (mut trace_out, mut out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(spec::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds `{v}` is not a whole number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if trace_out.is_some() && !trace {
        return Err("--trace-out needs --trace 1".to_string());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
        out,
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn cmd_run(args: &RunArgs) -> Result<(), String> {
    let w = &args.workload;
    let host = Host::detect();
    if w.ranks > host.cores {
        // Ranks are threads: with fewer cores than ranks the OS
        // timeshares them and the timings measure the scheduler.
        return Err(format!(
            "insufficient-cores: workload `{}` runs {} ranks but available_parallelism is {}",
            w.name, w.ranks, host.cores
        ));
    }
    println!("workload {}: {}", w.name, w.why);
    println!(
        "host available_parallelism={} cpu_model=\"{}\" llc_mb={}",
        host.cores,
        host.cpu_model,
        host.llc_mb
            .map_or_else(|| "unknown".to_string(), |v| v.to_string())
    );
    let outcome = run::run(w, args.seed, args.seconds as f64, args.trace);
    print!("{}", report::human_lines(&outcome));
    if args.trace {
        for (name, total, own) in outcome.spans.self_times() {
            println!(
                "span {name} total_s={} self_s={}",
                total.as_secs_f64(),
                own.as_secs_f64()
            );
        }
    }
    if let Some(path) = &args.out {
        let info = RunInfo {
            workload: w.name,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace,
            host: &host,
        };
        write(path, &report::result_json(&info, &outcome).render())?;
    }
    if let Some(path) = &args.trace_out {
        write(path, &outcome.spans.chrome_trace().render())?;
    }
    println!("{}", report::summary_line(&outcome));
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("compare takes two result files or directories".to_string());
    };
    let a = compare::load(a.as_ref())?;
    let b = compare::load(b.as_ref())?;
    print!("{}", compare::compare(&a, &b));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| cmd_run(&a)),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{median_of, verify, Checks};
    use crate::spec::{MetricSpec, Workload, END_TO_END, PER_LAYER, WORKLOADS};
    use louvain_core::json::Json;
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
    use louvain_graph::{EdgeList, PartitionStrategy};
    use louvain_metrics::Partition;

    fn planted() -> EdgeList {
        let cfg = PlantedConfig {
            communities: 4,
            community_size: 25,
            p_in: 0.4,
            p_out: 0.01,
        };
        generate_planted(&cfg, 7).0
    }

    const PLANTED: Workload = Workload {
        name: "planted",
        why: "4 planted communities of 25 vertices",
        ranks: 2,
        partition: PartitionStrategy::Modulo,
        graph: planted,
    };

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(j: &'a Json, k: &str) -> &'a str {
        j.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no `{k}` in {j:?}"))
    }

    fn check_metrics(listed: &Json, ours: &[MetricSpec]) {
        let listed = listed.as_arr().expect("metric list");
        assert_eq!(listed.len(), ours.len());
        for (j, m) in listed.iter().zip(ours) {
            assert_eq!(str_field(j, "name"), m.name);
            assert_eq!(str_field(j, "unit"), m.unit);
            assert_eq!(str_field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_lists_this_binary_workloads_and_metrics() {
        let doc = benchmark_json();
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let listed: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| (str_field(w, "name"), str_field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
        check_metrics(doc.get("end_to_end").expect("end_to_end"), &END_TO_END);
        check_metrics(doc.get("per_layer").expect("per_layer"), &PER_LAYER);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(spec::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn traced_smoke_run_checks_and_writes_nested_spans() {
        let outcome = run::run(&PLANTED, 7, 0.0, true);
        assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.failures);
        // The set-ups, the traced solve, then the warm-up and the one
        // sequential solve checked in full.
        assert_eq!(outcome.checks.attempted, 9 + 1 + 2);
        let names: Vec<&str> = outcome.metrics.iter().map(|(m, _)| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert_eq!(median_of(&outcome, "core.levels").fract(), 0.0);
        assert!(median_of(&outcome, "runtime.messages") > 0.0);
        assert!(median_of(&outcome, "metrics.q_abs_err") <= 1e-9);

        let trace = Json::parse(&outcome.spans.chrome_trace().render()).expect("trace parses");
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        let spans: Vec<(&str, f64, f64)> = events
            .iter()
            .map(|e| {
                assert_eq!(str_field(e, "ph"), "X");
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                (str_field(e, "name"), ts, ts + dur)
            })
            .collect();
        let only = |name: &str| {
            let mut found = spans.iter().filter(|s| s.0 == name);
            let one = *found.next().expect("span present");
            assert!(found.next().is_none(), "one `{name}` span");
            one
        };
        let (setup, workload) = (only("setup"), only("workload"));
        let inside = |child: &(&str, f64, f64), parent: &str| {
            let p = if parent == "setup" { setup } else { workload };
            p.1 <= child.1 && child.2 <= p.2 + 1e-6
        };
        for name in [
            "workload",
            "setup",
            "graph.parse",
            "graph.csr",
            "solve",
            "seq",
            "verify",
            "probe.partition",
            "probe.hash",
            "probe.runtime",
        ] {
            assert!(spans.iter().any(|s| s.0 == name), "no `{name}` span");
        }
        for s in &spans {
            match s.0 {
                "workload" => {}
                "graph.parse" | "graph.csr" => assert!(inside(s, "setup"), "{s:?}"),
                _ => assert!(inside(s, "workload"), "{s:?}"),
            }
        }
        let solve = events
            .iter()
            .find(|e| str_field(e, "name") == "solve")
            .expect("solve");
        let args = solve.get("args").expect("args");
        assert!(args
            .get("core.find_best_s")
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn untraced_smoke_run_reports_every_end_to_end_metric() {
        let outcome = run::run(&PLANTED, 7, 0.0, false);
        assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.failures);
        for (m, v) in &outcome.metrics {
            assert!(v.iter().all(|&x| x > 0.0), "{} = {v:?}", m.name);
        }
        let line = report::summary_line(&outcome);
        let doc = Json::parse(&line).expect("summary line is JSON");
        assert!(matches!(doc.get("correct"), Some(Json::Bool(true))));
        let metrics = doc.get("metrics").expect("metrics");
        for m in &END_TO_END {
            assert_eq!(
                metrics.get(m.name).map(|v| str_field(v, "unit")),
                Some(m.unit)
            );
        }
    }

    #[test]
    fn corrupted_partitions_count_as_failures() {
        let csr = planted().to_csr();
        let n = csr.num_vertices();
        let mut checks = Checks::new("planted");
        let good = Partition::from_labels(&vec![0; n]);
        checks.op(verify("parallel", &csr, &good, 0.0).failures);
        assert_eq!(checks.failed, 0, "one community has Q = 0");
        let short = Partition::from_labels(&vec![0; n - 1]);
        checks.op(verify("parallel", &csr, &short, 0.0).failures);
        checks.op(verify("parallel", &csr, &good, 0.25).failures);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert_eq!(
            checks.failures,
            vec!["parallel.partition", "parallel.modularity"]
        );
    }
}
