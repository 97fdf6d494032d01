//! `louvain` — command-line community detection.
//!
//! ```text
//! louvain <input.edges> [options]
//!   --solver seq|smp|parallel    (default: parallel)
//!   --ranks N                    simulated ranks for the parallel solver (default 4)
//!   --output FILE                write "vertex community" lines (default stdout)
//!   --levels                     print the full hierarchy profile
//!   --refine                     polish the final partition with local-move sweeps
//!   --generate KIND:ARGS         generate instead of reading a file:
//!                                  lfr:N:MU | rmat:SCALE | bter:N:GCC | gnm:N:M
//!   --seed S                     generator seed (default 42)
//! ```
//!
//! Input format: whitespace-separated `u v [w]` lines; `#`/`%` comments;
//! optional `# n <count>` header.

use parallel_louvain::core::dendrogram::Dendrogram;
use parallel_louvain::core::parallel::{ParallelConfig, ParallelLouvain};
use parallel_louvain::core::result::LouvainResult;
use parallel_louvain::core::seq::{SeqConfig, SequentialLouvain};
use parallel_louvain::core::smp::SmpLouvain;
use parallel_louvain::graph::edgelist::EdgeList;
use parallel_louvain::graph::gen;
use parallel_louvain::graph::io::read_edge_list_file;
use std::io::Write;
use std::process::exit;

struct Options {
    input: Option<String>,
    solver: String,
    ranks: usize,
    output: Option<String>,
    levels: bool,
    refine: bool,
    generate: Option<String>,
    seed: u64,
}

fn parse_args() -> Options {
    let mut o = Options {
        input: None,
        solver: "parallel".into(),
        ranks: 4,
        output: None,
        levels: false,
        refine: false,
        generate: None,
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2);
            })
        };
        match a.as_str() {
            "--solver" => o.solver = value("--solver"),
            "--ranks" => {
                o.ranks = value("--ranks")
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--ranks must be a positive integer");
                        exit(2);
                    })
            }
            "--output" => o.output = Some(value("--output")),
            "--levels" => o.levels = true,
            "--refine" => o.refine = true,
            "--generate" => o.generate = Some(value("--generate")),
            "--seed" => {
                o.seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be an integer");
                    exit(2);
                })
            }
            "--help" | "-h" => {
                eprintln!("usage: louvain <input.edges> [--solver seq|smp|parallel] [--ranks N] [--refine] [--output FILE] [--levels] [--generate lfr:N:MU|rmat:SCALE|bter:N:GCC|gnm:N:M] [--seed S]");
                exit(0);
            }
            other if !other.starts_with('-') && o.input.is_none() => {
                o.input = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                exit(2);
            }
        }
    }
    o
}

fn load_graph(o: &Options) -> EdgeList {
    if let Some(spec) = &o.generate {
        let parts: Vec<&str> = spec.split(':').collect();
        let bad = || -> ! {
            eprintln!("bad --generate spec {spec:?} (try lfr:10000:0.3)");
            exit(2);
        };
        match parts.as_slice() {
            ["lfr", n, mu] => {
                let (Ok(n), Ok(mu)) = (n.parse(), mu.parse()) else {
                    bad()
                };
                gen::lfr::generate_lfr(&gen::lfr::LfrConfig::standard(n, mu), o.seed).edges
            }
            ["rmat", scale] => {
                let Ok(scale) = scale.parse() else { bad() };
                gen::rmat::generate_rmat(&gen::rmat::RmatConfig::graph500(scale), o.seed)
            }
            ["bter", n, gcc] => {
                let (Ok(n), Ok(gcc)) = (n.parse(), gcc.parse()) else {
                    bad()
                };
                gen::bter::generate_bter(&gen::bter::BterConfig::paper_like(n, gcc), o.seed).0
            }
            ["gnm", n, m] => {
                let (Ok(n), Ok(m)) = (n.parse(), m.parse()) else {
                    bad()
                };
                gen::er::generate_gnm(n, m, o.seed)
            }
            _ => bad(),
        }
    } else if let Some(path) = &o.input {
        read_edge_list_file(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        })
    } else {
        eprintln!("no input file and no --generate (try --help)");
        exit(2);
    }
}

fn main() {
    let o = parse_args();
    let edges = load_graph(&o);
    eprintln!(
        "graph: {} vertices, {} edges",
        edges.num_vertices(),
        edges.num_edges()
    );

    let t0 = std::time::Instant::now();
    let mut result: LouvainResult = match o.solver.as_str() {
        "seq" => SequentialLouvain::new(SeqConfig::default()).run(&edges.to_csr()),
        "smp" => SmpLouvain.run(&edges.to_csr()),
        "parallel" => {
            ParallelLouvain::new(ParallelConfig::with_ranks(o.ranks))
                .run(&edges)
                .result
        }
        other => {
            eprintln!("unknown solver {other:?} (seq|smp|parallel)");
            exit(2);
        }
    };
    if o.refine {
        let polished = parallel_louvain::core::refine::refine_partition(
            &edges.to_csr(),
            &result.final_partition,
            32,
        );
        eprintln!(
            "refine: Q {:.4} -> {:.4} ({} moves, {} sweeps)",
            polished.q_before, polished.q_after, polished.moves, polished.sweeps
        );
        result.final_modularity = polished.q_after;
        result.final_partition = polished.partition;
    }
    eprintln!(
        "Q = {:.4}, {} communities, {} levels, {:.3} s",
        result.final_modularity,
        result.final_partition.num_communities(),
        result.levels.len(),
        t0.elapsed().as_secs_f64()
    );

    if o.levels {
        let d = Dendrogram::from_result(&result);
        eprintln!("level  communities  modularity");
        for l in 0..d.num_levels() {
            eprintln!(
                "{l:>5}  {:>11}  {:.4}",
                d.partition(l).num_communities(),
                d.modularity(l)
            );
        }
    }

    let lines: String = result
        .final_partition
        .labels()
        .iter()
        .enumerate()
        .map(|(v, c)| format!("{v} {c}\n"))
        .collect();
    match &o.output {
        Some(path) => {
            std::fs::write(path, lines).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let _ = lock.write_all(lines.as_bytes());
        }
    }
}
