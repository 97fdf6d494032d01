//! Design-choice ablations called out in DESIGN.md §5.
//!
//! * `ablate-epsilon` — sweep the ε-schedule decay rate `p2` (plus the
//!   unthrottled and paper-reciprocal variants) and measure final
//!   modularity and total inner iterations: how much does the heuristic's
//!   exact shape matter?
//! * `ablate-coalesce` — sweep the messaging layer's coalescing capacity
//!   and measure wall time and packet counts: why fine-grained messages
//!   must be aggregated.

use crate::experiments::workload;
use crate::report::{f, secs, Csv, Table};
use crate::SEED;
use louvain_core::heuristic::{EpsilonSchedule, ScheduleForm};
use louvain_core::parallel::{ParallelConfig, ParallelLouvain};
use louvain_core::refine::refine_partition;
use louvain_core::seq::{SeqConfig, SequentialLouvain, VertexOrder};
use louvain_core::smp::SmpLouvain;

/// ε-schedule sweep.
pub fn epsilon(quick: bool) {
    let name = if quick { "amazon" } else { "livejournal" };
    let g = workload(name, SEED);
    let mut t = Table::new(&["schedule", "Q", "levels", "total_inner_iters", "wall_s"]);
    let mut cases: Vec<(String, ParallelConfig)> = Vec::new();
    for p2 in [0.5, 1.0, 2.0, 4.0] {
        cases.push((
            format!("decay p2={p2}"),
            ParallelConfig {
                schedule: EpsilonSchedule {
                    p1: 0.98,
                    p2,
                    form: ScheduleForm::ExponentialDecay,
                },
                ..ParallelConfig::with_ranks(4)
            },
        ));
    }
    cases.push((
        "paper-reciprocal p1=0.3 p2=1".to_string(),
        ParallelConfig {
            schedule: EpsilonSchedule {
                p1: 0.3,
                p2: 1.0,
                form: ScheduleForm::PaperReciprocal,
            },
            ..ParallelConfig::with_ranks(4)
        },
    ));
    cases.push((
        "unthrottled (no heuristic)".to_string(),
        ParallelConfig {
            use_heuristic: false,
            max_inner_iterations: 12,
            max_levels: 6,
            ..ParallelConfig::with_ranks(4)
        },
    ));
    for (label, cfg) in cases {
        let r = ParallelLouvain::new(cfg).run(&g.edges);
        let iters: usize = r.result.levels.iter().map(|l| l.inner_iterations).sum();
        t.row(&[
            label,
            f(r.result.final_modularity, 4),
            r.result.levels.len().to_string(),
            iters.to_string(),
            secs(r.total_time),
        ]);
    }
    t.print(&format!("Ablation: ε schedule on {name}"));
    Csv::write("ablate_epsilon", &t);
}

/// Coalescing-capacity sweep.
pub fn coalesce(quick: bool) {
    let name = if quick { "amazon" } else { "uk2005" };
    let g = workload(name, SEED);
    let mut t = Table::new(&["coalesce_capacity", "wall_s", "packets", "messages", "Q"]);
    for cap in [1usize, 16, 256, 1024, 8192] {
        let r = ParallelLouvain::new(ParallelConfig {
            coalesce_capacity: cap,
            ..ParallelConfig::with_ranks(8)
        })
        .run(&g.edges);
        t.row(&[
            cap.to_string(),
            secs(r.total_time),
            r.comm.packets.to_string(),
            r.comm.messages.to_string(),
            f(r.result.final_modularity, 4),
        ]);
    }
    t.print(&format!(
        "Ablation: coalescing capacity on {name} (8 ranks)"
    ));
    Csv::write("ablate_coalesce", &t);
    println!("(expected: packets drop ~linearly with capacity; wall time improves until plateau)");
}

/// Vertex-order sweep for the sequential baseline (the Section V-B
/// order-dependence).
pub fn order(quick: bool) {
    let name = if quick { "amazon" } else { "livejournal" };
    let g = workload(name, SEED);
    let csr = g.edges.to_csr();
    let mut t = Table::new(&["order", "Q", "levels", "communities", "wall_s"]);
    let orders: Vec<(&str, VertexOrder)> = vec![
        ("natural", VertexOrder::Natural),
        ("shuffled(1)", VertexOrder::Shuffled(1)),
        ("shuffled(2)", VertexOrder::Shuffled(2)),
        ("degree-desc", VertexOrder::DegreeDescending),
        ("degree-asc", VertexOrder::DegreeAscending),
    ];
    for (label, order) in orders {
        let t0 = std::time::Instant::now();
        let r = SequentialLouvain::new(SeqConfig { order }).run(&csr);
        t.row(&[
            label.to_string(),
            f(r.final_modularity, 4),
            r.num_levels().to_string(),
            r.final_partition.num_communities().to_string(),
            f(t0.elapsed().as_secs_f64(), 3),
        ]);
    }
    t.print(&format!(
        "Ablation: vertex traversal order on {name} (sequential)"
    ));
    Csv::write("ablate_order", &t);
    println!("(expected: small quality spread — order changes details, not quality)");
}

/// Solver-pipeline comparison: sequential vs SMP vs distributed vs
/// distributed + sequential refinement polish (the extension pipeline).
pub fn refine(quick: bool) {
    let graphs: &[&str] = if quick {
        &["amazon"]
    } else {
        &["amazon", "dblp", "ndweb", "youtube"]
    };
    let mut t = Table::new(&[
        "graph",
        "Q_seq",
        "Q_smp",
        "Q_parallel",
        "Q_parallel+refine",
        "refine_moves",
    ]);
    for name in graphs {
        let g = workload(name, SEED);
        let csr = g.edges.to_csr();
        let q_seq = SequentialLouvain::new(SeqConfig::default())
            .run(&csr)
            .final_modularity;
        let q_smp = SmpLouvain.run(&csr).final_modularity;
        let par = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&g.edges);
        let polished = refine_partition(&csr, &par.result.final_partition, 32);
        t.row(&[
            name.to_string(),
            f(q_seq, 4),
            f(q_smp, 4),
            f(par.result.final_modularity, 4),
            f(polished.q_after, 4),
            polished.moves.to_string(),
        ]);
    }
    t.print("Ablation: solver pipelines (refinement closes the parallel-vs-sequential gap)");
    Csv::write("ablate_refine", &t);
}

/// Related-work baseline: distributed label propagation vs the parallel
/// Louvain solver on the same runtime (Section VI — LP-based methods are
/// the main competing family).
pub fn baseline_lp(quick: bool) {
    use louvain_core::labelprop::LabelPropagation;
    use louvain_metrics::{modularity, similarity::nmi};
    let graphs: &[&str] = if quick {
        &["amazon"]
    } else {
        &["amazon", "ndweb", "livejournal", "uk2005"]
    };
    let mut t = Table::new(&[
        "graph",
        "Q_louvain",
        "Q_labelprop",
        "communities_lv",
        "communities_lp",
        "NMI(lv,lp)",
        "lp_iters",
        "wall_lv_s",
        "wall_lp_s",
    ]);
    for name in graphs {
        let g = workload(name, SEED);
        let csr = g.edges.to_csr();
        let lv = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&g.edges);
        let lp = LabelPropagation::new(4).run(&g.edges);
        let q_lp = modularity(&csr, &lp.partition);
        t.row(&[
            name.to_string(),
            f(lv.result.final_modularity, 4),
            f(q_lp, 4),
            lv.result.final_partition.num_communities().to_string(),
            lp.partition.num_communities().to_string(),
            f(nmi(&lv.result.final_partition, &lp.partition), 4),
            lp.iterations.to_string(),
            f(lv.total_time.as_secs_f64(), 3),
            f(lp.total_time.as_secs_f64(), 3),
        ]);
    }
    t.print("Baseline: label propagation vs parallel Louvain (same runtime)");
    Csv::write("baseline_lp", &t);
    println!("(expected: LP cheaper per run but lower modularity, no hierarchy)");
}
