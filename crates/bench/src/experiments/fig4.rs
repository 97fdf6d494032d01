//! Figure 4 — convergence and detection quality on social networks.
//!
//! Compares three solvers per outer-loop iteration: (a) modularity and
//! (b) evolution ratio, for the sequential baseline, the parallel
//! algorithm with the ε heuristic, and the naive parallel algorithm
//! without it. The paper's observations to reproduce: the naive variant
//! converges slowly to low modularity, the heuristic variant matches (or
//! slightly beats) the sequential algorithm, and >94% of vertices merge
//! in the first iteration.

use crate::experiments::{run_par, run_par_naive, run_seq, workload};
use crate::report::{f, Csv, Table};
use crate::SEED;
use louvain_core::smp::SmpLouvain;

const GRAPHS: [&str; 5] = ["amazon", "dblp", "ndweb", "youtube", "livejournal"];
const RANKS: usize = 4;

/// Runs the experiment. `quick` trims the graph list.
pub fn run(quick: bool) {
    let graphs: &[&str] = if quick { &GRAPHS[..2] } else { &GRAPHS };
    let mut curves = Table::new(&[
        "graph",
        "algorithm",
        "outer_iter",
        "modularity",
        "evolution_ratio",
        "inner_iters",
    ]);
    let mut summary = Table::new(&[
        "graph",
        "Q_sequential",
        "Q_smp",
        "Q_parallel_heuristic",
        "Q_parallel_naive",
        "levels_seq",
        "levels_par",
        "first_iter_merged_frac",
    ]);

    for name in graphs {
        let g = workload(name, SEED);
        let seq = run_seq(&g.edges);
        let smp = SmpLouvain.run(&g.edges.to_csr());
        let par = run_par(&g.edges, RANKS);
        let naive = run_par_naive(&g.edges, RANKS);

        for (alg, levels) in [
            ("sequential", &seq.levels),
            ("smp", &smp.levels),
            ("parallel+heuristic", &par.result.levels),
            ("parallel-no-heuristic", &naive.result.levels),
        ] {
            for (i, lvl) in levels.iter().enumerate() {
                curves.row(&[
                    name.to_string(),
                    alg.to_string(),
                    (i + 1).to_string(),
                    f(lvl.modularity, 4),
                    f(lvl.evolution_ratio(), 4),
                    lvl.inner_iterations.to_string(),
                ]);
            }
        }
        // Fraction of vertices merged into non-singleton communities after
        // the first outer iteration ≈ 1 - evolution_ratio of level 0.
        let merged = 1.0 - par.result.levels[0].evolution_ratio();
        summary.row(&[
            name.to_string(),
            f(seq.final_modularity, 4),
            f(smp.final_modularity, 4),
            f(par.result.final_modularity, 4),
            f(naive.result.final_modularity, 4),
            seq.num_levels().to_string(),
            par.result.levels.len().to_string(),
            f(merged, 3),
        ]);
    }

    curves.print("Figure 4: modularity & evolution ratio per outer iteration");
    Csv::write("fig4_curves", &curves);
    summary.print(
        "Figure 4 summary (paper: heuristic ≈ sequential, naive low; >94% merged in iter 1)",
    );
    Csv::write("fig4_summary", &summary);
}
