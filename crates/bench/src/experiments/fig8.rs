//! Figure 8 — execution-time breakdown on UK-2007.
//!
//! (a) per-phase breakdown of the run: REFINE dominates, GRAPH
//! RECONSTRUCTION is negligible, and the first outer loop accounts for
//! over 90% of total time. (b) per-inner-iteration breakdown of the
//! first outer loop: FIND BEST COMMUNITY and UPDATE COMMUNITY
//! INFORMATION shrink as vertices settle, STATE PROPAGATION stays flat.

use crate::experiments::{run_par, workload};
use crate::report::{f, secs, Csv, Table};
use crate::SEED;
use louvain_core::timing::Phase;

/// Runs the experiment.
pub fn run(quick: bool) {
    let name = if quick { "uk2005" } else { "uk2007" };
    let ranks = 8;
    let g = workload(name, SEED);
    println!(
        "{name}: |V|={} |E|={} on {ranks} ranks",
        g.edges.num_vertices(),
        g.edges.num_edges()
    );
    let r = run_par(&g.edges, ranks);

    let mut outer = Table::new(&["phase", "seconds", "share_%"]);
    let total = r.total_time.as_secs_f64();
    for ph in [
        Phase::Refine,
        Phase::Reconstruction,
        Phase::StatePropagation,
        Phase::FindBestCommunity,
        Phase::UpdateCommunity,
        Phase::ComputeModularity,
    ] {
        let d = r.timers.get(ph).as_secs_f64();
        outer.row(&[ph.name().to_string(), f(d, 3), f(100.0 * d / total, 1)]);
    }
    outer.row(&[
        "first_outer_loop".to_string(),
        secs(r.first_level_time),
        f(100.0 * r.first_level_time.as_secs_f64() / total, 1),
    ]);
    outer.row(&["total".to_string(), secs(r.total_time), "100.0".to_string()]);
    outer.print("Figure 8a: outer-loop phase breakdown (state_propagation/find_best/update/modularity are sub-phases of refine)");
    Csv::write("fig8_outer", &outer);

    let mut inner = Table::new(&[
        "inner_iter",
        "find_best_s",
        "update_s",
        "state_propagation_s",
    ]);
    for (i, it) in r.inner_timings.iter().enumerate() {
        inner.row(&[
            (i + 1).to_string(),
            f(it.find_best.as_secs_f64(), 4),
            f(it.update.as_secs_f64(), 4),
            f(it.state_propagation.as_secs_f64(), 4),
        ]);
    }
    inner.print("Figure 8b: inner-loop breakdown of the first outer loop");
    Csv::write("fig8_inner", &inner);

    // Communication-volume companion (messages per phase across ranks).
    let cb = r.comm_breakdown;
    let mut msgs = Table::new(&["phase", "messages", "share_%"]);
    let total_msgs = cb.total().max(1);
    for (name, v) in [
        ("loading", cb.loading),
        ("state_propagation", cb.state_propagation),
        ("update", cb.update),
        ("reconstruction", cb.reconstruction),
    ] {
        msgs.row(&[
            name.to_string(),
            v.to_string(),
            f(100.0 * v as f64 / total_msgs as f64, 1),
        ]);
    }
    msgs.print("Figure 8 companion: remote messages per phase");
    Csv::write("fig8_messages", &msgs);
    println!(
        "(paper: first outer loop >90% of total; reconstruction negligible; \
         find-best/update decay across inner iterations, state propagation flat)"
    );
}
