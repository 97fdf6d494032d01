//! Distributed label propagation — the related-work baseline.
//!
//! Half of the paper's Related Work section contrasts Louvain against
//! label-propagation methods (Raghavan et al. \[46\]; Staudt & Meyerhenke
//! \[10\]; Soman & Narang \[45\]; Ovelgönne \[12\]). This module implements
//! synchronous weighted label propagation *on the same substrate* as the
//! parallel Louvain solver — the 1D modulo partition, the In-Table scan,
//! and the same state-propagation exchange — so the two algorithms can be
//! compared end-to-end (`louvain-bench baseline-lp`): LP is cheaper per
//! iteration (no `Σ_tot` snapshot, no histogram, no modularity pass) but
//! plateaus at lower modularity and offers no hierarchy.
//!
//! Update rule: each vertex adopts the label with the largest incident
//! weight among its neighbors, keeping its current label on ties
//! (stability) and breaking remaining ties toward the smaller label id
//! (symmetry breaking, same role as the Louvain singleton guard).

use louvain_graph::edgelist::EdgeList;
use louvain_graph::partition1d::ModuloPartition;
use louvain_hash::{pack_key, unpack_key, EdgeTable};
use louvain_metrics::Partition;
use louvain_runtime::{run_with_config, CommStats, RankCtx, RuntimeConfig};
use std::time::Duration;

use crate::parallel::Msg;
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
        let n = edges.num_vertices();
        let t0 = Stopwatch::start();
        let (rank_outputs, comm) = run_with_config::<Msg, (Vec<u32>, usize, Vec<f64>, f64), _>(
            RuntimeConfig::new(self.ranks),
            |ctx| rank_main(ctx, edges, self.ranks),
        );
        let total_time = t0.elapsed();
        let part = ModuloPartition::new(n, self.ranks);
        let mut raw = vec![0u32; n];
        for (r, (labels, _, _, _)) in rank_outputs.iter().enumerate() {
            for (i, v) in part.local_vertices(r).enumerate() {
                raw[v as usize] = labels[i];
            }
        }
        LabelPropResult {
            partition: Partition::from_labels(&raw),
            iterations: rank_outputs[0].1,
            change_fractions: rank_outputs[0].2.clone(),
            total_time,
            comm,
            sim_units: rank_outputs[0].3,
        }
    }
}

fn rank_main(
    ctx: &mut RankCtx<'_, Msg>,
    edges: &EdgeList,
    ranks: usize,
) -> (Vec<u32>, usize, Vec<f64>, f64) {
    let n = edges.num_vertices();
    let rank = ctx.rank();
    let part = ModuloPartition::new(n, ranks);
    let local_n = part.local_count(rank);

    // In-Table: in-edges of local vertices, keyed `(src, dst)` as in the
    // paper's Louvain.
    let mut in_table = EdgeTable::new((2 * edges.num_edges() / ranks).max(8));
    for e in edges.edges() {
        if e.u == e.v {
            continue; // self-loops don't vote
        }
        if part.owner(e.v) == rank {
            in_table.accumulate(pack_key(e.u, e.v), e.w);
        }
        if part.owner(e.u) == rank {
            in_table.accumulate(pack_key(e.v, e.u), e.w);
        }
    }

    let mut label: Vec<u32> = part.local_vertices(rank).collect();
    let mut out_table = EdgeTable::new(in_table.len().max(8));
    let mut best_w = vec![0.0f64; local_n];
    let mut best_l = vec![0u32; local_n];
    let mut own_w = vec![0.0f64; local_n];
    let mut fractions = Vec::new();
    let mut iterations = 0usize;

    for iter in 0..MAX_ITERATIONS {
        iterations += 1;
        // Propagate labels: identical exchange shape to Algorithm 3.
        out_table.reset_for(in_table.len().max(8));
        {
            let mut ex = ctx.exchange();
            for (key, w) in in_table.iter() {
                let (v, u) = unpack_key(key);
                let l = label[part.local_index(u)];
                ex.send(part.owner(v), Msg { a: v, b: l, w });
            }
            ex.finish(|m| {
                out_table.accumulate(pack_key(m.a, m.b), m.w);
            });
        }
        // Adopt the heaviest incident label.
        for li in 0..local_n {
            best_w[li] = 0.0;
            best_l[li] = u32::MAX;
            own_w[li] = 0.0;
        }
        for (key, w) in out_table.iter() {
            let (u, l) = unpack_key(key);
            let li = part.local_index(u);
            if l == label[li] {
                own_w[li] = w;
            }
            // Exact tie-break on equal accumulated weights: both sides are
            // sums of the same integer-valued inputs, so equality is exact
            // and the minimum-label rule stays deterministic.
            #[allow(clippy::float_cmp)]
            if w > best_w[li] || (w == best_w[li] && l < best_l[li]) {
                best_w[li] = w;
                best_l[li] = l;
            }
        }
        ctx.charge((out_table.len() + local_n) as f64);
        let mut changes = 0u64;
        for li in 0..local_n {
            // Parity alternation: only half the vertices may change per
            // iteration (alternating), the standard synchronous-LP fix
            // for two-cycles (two adjacent vertices endlessly adopting
            // each other's label). Same role as Louvain's ε throttle.
            let u = part.global(rank, li) as usize;
            if !(u + iter).is_multiple_of(2) {
                continue;
            }
            // Keep the current label on ties (stability).
            if best_l[li] != u32::MAX && best_w[li] > own_w[li] && best_l[li] != label[li] {
                label[li] = best_l[li];
                changes += 1;
            }
        }
        let global_changes = ctx.allreduce_sum_u64(changes);
        let fraction = global_changes as f64 / n.max(1) as f64;
        fractions.push(fraction);
        if fraction < MIN_CHANGE_FRACTION {
            break;
        }
    }
    let sim = ctx.sim_time_units();
    (label, iterations, fractions, sim)
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
