//! Distributed label propagation — the related-work baseline.
//!
//! Half of the paper's Related Work section contrasts Louvain against
//! label-propagation methods (Raghavan et al. \[46\]; Staudt & Meyerhenke
//! \[10\]; Soman & Narang \[45\]; Ovelgönne \[12\]). Like Staudt &
//! Meyerhenke's PLP beside their PLM, this module runs synchronous
//! weighted label propagation *on the parallel Louvain solver's own
//! code*: the replicated loader (`build_initial_level`), the Out-Table's
//! per-vertex row gather, and the delta state propagation
//! (`announce_migrations`) that announces only changed labels. The two
//! algorithms are therefore compared end-to-end on equal footing
//! (`louvain-bench baseline-lp`): LP is cheaper per iteration (no `Σ_tot`
//! snapshot, no histogram, no modularity pass) but plateaus at lower
//! modularity and offers no hierarchy.
//!
//! Update rule: each vertex adopts the label with the largest incident
//! weight among its neighbors, keeping its current label on ties
//! (stability) and breaking remaining ties toward the smaller label id
//! (symmetry breaking, same role as the Louvain singleton guard).
//! Self-loops cast no vote.

use louvain_graph::edgelist::EdgeList;
use louvain_graph::partition1d::ModuloPartition;
use louvain_metrics::Partition;
use louvain_runtime::{run_with_config, CommStats, RankCtx, RuntimeConfig};
use std::time::Duration;

use crate::parallel::{
    announce_migrations, build_initial_level, Msg, OutTable, ParallelConfig, RowScratch,
};
use crate::timing::Stopwatch;

/// Iteration cap.
const MAX_ITERATIONS: usize = 32;

/// Stop once fewer than this fraction of vertices change labels.
const MIN_CHANGE_FRACTION: f64 = 1e-3;

/// Label-propagation output.
#[derive(Clone, Debug)]
pub struct LabelPropResult {
    /// The detected communities.
    pub partition: Partition,
    /// Iterations executed.
    pub iterations: usize,
    /// Fraction of vertices that changed label, per iteration.
    pub change_fractions: Vec<f64>,
    /// Wall time.
    pub total_time: Duration,
    /// Communication counters.
    pub comm: CommStats,
    /// BSP-simulated time in work units.
    pub sim_units: f64,
}

/// The distributed label-propagation solver.
#[derive(Clone, Copy, Debug)]
pub struct LabelPropagation {
    /// Simulated ranks.
    ranks: usize,
}

impl LabelPropagation {
    /// Creates a solver on `ranks` simulated ranks.
    #[must_use]
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 1);
        Self { ranks }
    }

    /// Runs synchronous label propagation on `edges`.
    #[must_use]
    pub fn run(&self, edges: &EdgeList) -> LabelPropResult {
        let edges: &EdgeList = &edges.scaled_to_band();
        let n = edges.num_vertices();
        let t0 = Stopwatch::start();
        let (rank_outputs, comm) = run_with_config::<Msg, (Vec<u32>, Vec<f64>, f64), _>(
            RuntimeConfig::new(self.ranks),
            |ctx| rank_main(ctx, edges, self.ranks),
        );
        let total_time = t0.elapsed();
        let part = ModuloPartition::new(n, self.ranks);
        let mut raw = vec![0u32; n];
        for (r, (labels, _, _)) in rank_outputs.iter().enumerate() {
            for (i, v) in part.local_vertices(r).enumerate() {
                raw[v as usize] = labels[i];
            }
        }
        LabelPropResult {
            partition: Partition::from_labels(&raw),
            iterations: rank_outputs[0].1.len(),
            change_fractions: rank_outputs[0].1.clone(),
            total_time,
            comm,
            sim_units: rank_outputs[0].2,
        }
    }
}

fn rank_main(
    ctx: &mut RankCtx<'_, Msg>,
    edges: &EdgeList,
    ranks: usize,
) -> (Vec<u32>, Vec<f64>, f64) {
    let n = edges.num_vertices();
    let rank = ctx.rank();
    // The solver's level 0 under the modulo partition: its labels start
    // at singletons, and its Out-Table at the identity labelling, so the
    // first iteration needs no communication.
    let mut lvl = build_initial_level(ctx, edges, &ParallelConfig::with_ranks(ranks));
    let mut table = OutTable::build(&lvl, rank);
    let mut scratch = RowScratch::new(n);
    let mut fractions = Vec::new();

    for iter in 0..MAX_ITERATIONS {
        // Adopt the heaviest incident label. Parity alternation: only
        // half the vertices may change per iteration (alternating), the
        // standard synchronous-LP fix for two-cycles (two adjacent
        // vertices endlessly adopting each other's label). Same role as
        // Louvain's ε throttle. Every vertex reads its neighbors' labels
        // from the Out-Table, which holds the labels of the iteration's
        // start, so the update is synchronous.
        let mut changed: Vec<(u32, u32)> = Vec::new();
        let mut scanned = 0usize;
        for li in 0..lvl.label.len() {
            let u = lvl.part.global(rank, li);
            if !(u as usize + iter).is_multiple_of(2) {
                continue;
            }
            table.gather(li, &mut scratch);
            scanned += scratch.rows.len();
            let own = lvl.label[li];
            // The solver stores a self-loop as `A_uu = 2w` in the own row.
            let own_w = scratch.get(own) - table.self_loop(li);
            let mut best = (0.0, u32::MAX);
            for &(l, w) in &scratch.rows {
                let w = if l == own { own_w } else { w };
                // Exact tie-break on equal accumulated weights: both sides
                // are sums of the same integer-valued inputs, so equality
                // is exact and the minimum-label rule stays deterministic.
                #[allow(clippy::float_cmp)]
                if w > best.0 || (w == best.0 && l < best.1) {
                    best = (w, l);
                }
            }
            // Keep the current label on ties (stability).
            if best.1 != u32::MAX && best.0 > own_w {
                lvl.label[li] = best.1;
                changed.push((u, best.1));
            }
        }
        ctx.charge((scanned + lvl.label.len()) as f64);
        let global_changes = ctx.allreduce_sum_u64(changed.len() as u64);
        let fraction = global_changes as f64 / n.max(1) as f64;
        fractions.push(fraction);
        if fraction < MIN_CHANGE_FRACTION || iter + 1 == MAX_ITERATIONS {
            break;
        }
        // Announce the changed labels to the ranks holding their arcs.
        let mut ex = ctx.exchange();
        announce_migrations(&mut ex, rank, &lvl.part, &table, &changed);
        let mut deltas: Vec<(u32, u32)> = Vec::new();
        ex.finish(|m| deltas.push((m.a, m.b)));
        table.apply_deltas(&deltas, |_, _, _| {});
    }
    (lvl.label, fractions, ctx.sim_time_units())
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
    use louvain_metrics::{modularity, similarity::nmi, Partition as P};

    #[test]
    fn recovers_well_separated_planted_communities() {
        let (el, truth) = generate_planted(
            &PlantedConfig {
                communities: 5,
                community_size: 40,
                p_in: 0.4,
                p_out: 0.005,
            },
            3,
        );
        let r = LabelPropagation::new(4).run(&el);
        let sim = nmi(&P::from_labels(&truth), &r.partition);
        assert!(sim > 0.9, "NMI {sim}");
        assert!(r.partition.is_valid());
    }

    #[test]
    fn converges_quickly_and_reports_fractions() {
        let (el, _) = generate_planted(
            &PlantedConfig {
                communities: 4,
                community_size: 30,
                p_in: 0.4,
                p_out: 0.01,
            },
            5,
        );
        let r = LabelPropagation::new(2).run(&el);
        assert!(r.iterations <= 32);
        assert_eq!(r.change_fractions.len(), r.iterations);
        assert!(*r.change_fractions.last().unwrap() < 1e-3);
        assert!(r.comm.messages > 0);
        assert!(r.sim_units > 0.0);
    }

    #[test]
    fn lags_louvain_on_sparse_graphs() {
        // The related-work claim: LP is fast but plateaus below Louvain's
        // modularity on sparse graphs with fuzzy structure (on clean LFR
        // graphs both recover the planted partition).
        use louvain_graph::gen::lfr::{generate_lfr, LfrConfig};
        let g = generate_lfr(
            &LfrConfig {
                n: 5000,
                avg_degree: 5.0,
                max_degree: 100,
                gamma: 2.5,
                beta: 1.5,
                mu: 0.4,
                min_community: 10,
                max_community: 200,
            },
            7,
        );
        let csr = g.edges.to_csr();
        let lp = LabelPropagation::new(4).run(&g.edges);
        let louvain =
            crate::parallel::ParallelLouvain::new(crate::parallel::ParallelConfig::with_ranks(4))
                .run(&g.edges);
        let q_lp = modularity(&csr, &lp.partition);
        assert!(
            louvain.result.final_modularity > q_lp + 0.02,
            "louvain {} vs lp {q_lp}",
            louvain.result.final_modularity
        );
    }

    #[test]
    fn deterministic() {
        let (el, _) = generate_planted(
            &PlantedConfig {
                communities: 3,
                community_size: 25,
                p_in: 0.3,
                p_out: 0.02,
            },
            9,
        );
        let a = LabelPropagation::new(3).run(&el);
        let b = LabelPropagation::new(3).run(&el);
        assert_eq!(a.partition.labels(), b.partition.labels());
    }

    /// Integer weights 1–3 on a planted graph, plus a self-loop on every
    /// fifth vertex.
    fn weighted_planted(seed: u64) -> EdgeList {
        let (el, _) = generate_planted(
            &PlantedConfig {
                communities: 6,
                community_size: 25,
                p_in: 0.3,
                p_out: 0.02,
            },
            seed,
        );
        let mut b = EdgeListBuilder::new(el.num_vertices());
        for e in el.edges() {
            b.add_edge(e.u, e.v, f64::from(1 + (e.u * 7 + e.v) % 3));
        }
        for v in (0..el.num_vertices() as u32).step_by(5) {
            b.add_edge(v, v, f64::from(1 + v % 2));
        }
        b.build()
    }

    /// Synchronous LP on the CSR with the solver's rules: the labels of
    /// the iteration's start vote, self-loops do not, the parity of
    /// `u + iter` picks who may change, ties keep the current label and
    /// then prefer the smaller one. Returns labels and iterations.
    fn sequential_lp(el: &EdgeList) -> (Vec<u32>, usize) {
        let g = el.to_csr();
        let n = g.num_vertices();
        let mut label: Vec<u32> = (0..n as u32).collect();
        for iter in 0..MAX_ITERATIONS {
            let prev = label.clone();
            let mut changes = 0usize;
            for u in (0..n).filter(|u| (u + iter) % 2 == 0) {
                let mut votes = std::collections::BTreeMap::<u32, f64>::new();
                for (v, w) in g.neighbors(u as u32) {
                    if v as usize != u {
                        *votes.entry(prev[v as usize]).or_default() += w;
                    }
                }
                let own_w = votes.get(&prev[u]).copied().unwrap_or(0.0);
                let (best_w, best_l) = votes
                    .iter()
                    .map(|(&l, &w)| (-w, l))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .map_or((0.0, u32::MAX), |(w, l)| (-w, l));
                if best_l != u32::MAX && best_w > own_w && best_l != prev[u] {
                    label[u] = best_l;
                    changes += 1;
                }
            }
            if (changes as f64 / n.max(1) as f64) < MIN_CHANGE_FRACTION {
                return (label, iter + 1);
            }
        }
        (label, MAX_ITERATIONS)
    }

    #[test]
    fn matches_a_sequential_oracle_at_every_rank_count() {
        for seed in [1, 4, 9] {
            let el = weighted_planted(seed);
            let (labels, iterations) = sequential_lp(&el);
            for ranks in [1, 2, 3, 5] {
                let r = LabelPropagation::new(ranks).run(&el);
                assert_eq!(
                    r.partition.labels(),
                    P::from_labels(&labels).labels(),
                    "seed {seed}, {ranks} ranks"
                );
                assert_eq!(r.iterations, iterations, "seed {seed}, {ranks} ranks");
            }
        }
    }

    #[test]
    fn announces_each_label_change_at_most_once_per_remote_rank() {
        // Keyed deltas: a changed label reaches each other rank at most
        // once, however many of its arcs that rank holds.
        let el = weighted_planted(3);
        let n = el.num_vertices() as f64;
        for ranks in [2u64, 4] {
            let r = LabelPropagation::new(ranks as usize).run(&el);
            let changes: u64 = r
                .change_fractions
                .iter()
                .map(|f| (f * n).round() as u64)
                .sum();
            assert!(
                r.comm.messages <= (ranks - 1) * changes,
                "{ranks} ranks: {} messages for {changes} changes",
                r.comm.messages
            );
            if ranks == 2 {
                assert!(r.comm.messages > 0);
            }
        }
    }

    #[test]
    fn tiny_graphs_terminate() {
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        let el = b.build();
        let r = LabelPropagation::new(2).run(&el);
        // Min-label tie-break merges the pair.
        assert_eq!(r.partition.num_communities(), 1);
    }
}
