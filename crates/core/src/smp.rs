//! Shared-memory parallel Louvain with the convergence heuristic.
//!
//! The paper's implementation is two-level: message passing between nodes
//! and Pthreads inside each node. [`crate::parallel`] models the
//! inter-node level; this module is the intra-node level — a rayon-based
//! solver sharing one CSR graph, with the same convergence machinery as
//! the distributed algorithm (ε move budget, exact top-ε selection
//! instead of the distributed histogram, Gauss-Seidel re-vetting of
//! moves, singleton swap guard). The hierarchy around that inner loop is
//! the sequential solver's level loop ([`crate::seq`]).
//!
//! It is the fastest solver in this repository for a single multi-core
//! machine and doubles as an oracle for the distributed implementation in
//! tests: both must land within a small modularity band of the sequential
//! baseline.

use crate::dq::{insert_gain_scaled, move_gain};
use crate::heuristic::{EpsilonSchedule, MIN_MOVE_FRACTION, MIN_Q_IMPROVEMENT};
use crate::result::LouvainResult;
use crate::seq::{run_levels, OneLevel};
use louvain_graph::csr::CsrGraph;
use louvain_metrics::{modularity, Partition};
use rayon::prelude::*;

/// Inner-iteration cap per level.
const MAX_INNER_ITERATIONS: usize = 32;

/// Maximum hierarchy levels.
const MAX_LEVELS: usize = 16;

/// The shared-memory parallel solver. Its move budget follows the
/// default ε schedule (Equation 7).
#[derive(Clone, Copy, Debug, Default)]
pub struct SmpLouvain;

impl SmpLouvain {
    /// Runs hierarchical shared-memory Louvain on `g`.
    #[must_use]
    pub fn run(&self, g: &CsrGraph) -> LouvainResult {
        let mut r = run_levels(g, MAX_LEVELS, |g, _| self.one_level(g));
        // Like the distributed solver, the best level is the answer.
        let best = r
            .levels
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.modularity.total_cmp(&b.1.modularity))
            .map(|(i, _)| i);
        if let Some(i) = best {
            r.final_partition = r.level_partitions[i].clone();
            r.final_modularity = r.levels[i].modularity;
        }
        r
    }

    fn one_level(&self, g: &CsrGraph) -> OneLevel {
        let n = g.num_vertices();
        let s = g.total_arc_weight();
        let mut labels: Vec<u32> = (0..n as u32).collect();
        let mut fractions = Vec::new();
        let mut q_trace = Vec::new();
        let mut total_moves = 0usize;
        if n == 0 || s <= 0.0 {
            return OneLevel {
                labels,
                move_fractions: fractions,
                q_trace,
                total_moves,
            };
        }
        let mut tot: Vec<f64> = g.degrees().to_vec();
        let mut size: Vec<u32> = vec![1; n];
        let mut q_prev = f64::NEG_INFINITY;

        let schedule = EpsilonSchedule::default();
        for iter in 1..=MAX_INNER_ITERATIONS {
            // --- find best moves in parallel against the snapshot ---
            let labels_snap = &labels;
            let tot_snap = &tot;
            let size_snap = &size;
            let proposals: Vec<(f64, u32)> = (0..n as u32)
                .into_par_iter()
                .map(|u| {
                    let k_u = g.degree(u);
                    let c_old = labels_snap[u as usize];
                    let mut comms: Vec<(u32, f64)> = Vec::with_capacity(8);
                    for (v, w) in g.neighbors(u) {
                        if v == u {
                            continue;
                        }
                        let c = labels_snap[v as usize];
                        match comms.iter_mut().find(|e| e.0 == c) {
                            Some(e) => e.1 += w,
                            None => comms.push((c, w)),
                        }
                    }
                    let w_old = comms.iter().find(|e| e.0 == c_old).map_or(0.0, |e| e.1);
                    let stay = insert_gain_scaled(w_old, k_u, tot_snap[c_old as usize] - k_u, s);
                    let mut best_c = c_old;
                    let mut best_gain_scaled = stay;
                    for &(c, w) in &comms {
                        if c == c_old {
                            continue;
                        }
                        // Singleton swap guard (minimum-label rule).
                        if size_snap[c as usize] == 1 && size_snap[c_old as usize] == 1 && c > c_old
                        {
                            continue;
                        }
                        let gain = insert_gain_scaled(w, k_u, tot_snap[c as usize], s);
                        if gain > best_gain_scaled {
                            best_gain_scaled = gain;
                            best_c = c;
                        }
                    }
                    if best_c == c_old {
                        (0.0, c_old)
                    } else {
                        // True ΔQ for threshold comparability.
                        ((best_gain_scaled - stay) * 2.0 / s, best_c)
                    }
                })
                .collect();

            // --- exact top-ε threshold ---
            let eps = schedule.epsilon(iter);
            let keep = ((eps * n as f64).ceil() as usize).max(1);
            let mut gains: Vec<f64> = proposals
                .iter()
                .map(|&(g, _)| g)
                .filter(|&g| g > 0.0)
                .collect();
            let threshold = if gains.len() <= keep {
                0.0
            } else {
                let idx = gains.len() - keep;
                gains.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
                gains[idx]
            };

            // --- apply sequentially with Gauss-Seidel re-vetting ---
            let mut moves = 0usize;
            for u in 0..n as u32 {
                let (gain0, c_new) = proposals[u as usize];
                if gain0 <= 0.0 || gain0 < threshold {
                    continue;
                }
                let c_old = labels[u as usize];
                if c_new == c_old {
                    continue;
                }
                let k_u = g.degree(u);
                let mut w_old = 0.0;
                let mut w_new = 0.0;
                for (v, w) in g.neighbors(u) {
                    if v == u {
                        continue;
                    }
                    let c = labels[v as usize];
                    if c == c_old {
                        w_old += w;
                    } else if c == c_new {
                        w_new += w;
                    }
                }
                let gain = move_gain(
                    w_old,
                    w_new,
                    k_u,
                    tot[c_old as usize],
                    tot[c_new as usize],
                    s,
                );
                if gain <= 0.0 {
                    continue;
                }
                tot[c_old as usize] -= k_u;
                tot[c_new as usize] += k_u;
                size[c_old as usize] -= 1;
                size[c_new as usize] += 1;
                labels[u as usize] = c_new;
                moves += 1;
            }
            fractions.push(moves as f64 / n as f64);
            total_moves += moves;
            if moves == 0 {
                break;
            }
            let q = modularity(g, &Partition::from_labels(&labels));
            q_trace.push(q);
            let fraction = moves as f64 / n as f64;
            if iter > 1 && (q - q_prev < MIN_Q_IMPROVEMENT || fraction < MIN_MOVE_FRACTION) {
                break;
            }
            q_prev = q;
        }

        OneLevel {
            labels,
            move_fractions: fractions,
            q_trace,
            total_moves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{SeqConfig, SequentialLouvain};
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_graph::gen::lfr::{generate_lfr, LfrConfig};
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
    use louvain_metrics::similarity::nmi;

    #[test]
    fn recovers_planted_partition() {
        let (el, truth) = generate_planted(
            &PlantedConfig {
                communities: 6,
                community_size: 40,
                p_in: 0.3,
                p_out: 0.01,
            },
            5,
        );
        let g = el.to_csr();
        let r = SmpLouvain.run(&g);
        let sim = nmi(&Partition::from_labels(&truth), &r.final_partition);
        assert!(sim > 0.95, "NMI {sim}");
    }

    #[test]
    fn tracks_sequential_quality_on_lfr() {
        let g = generate_lfr(&LfrConfig::standard(3000, 0.35), 3)
            .edges
            .to_csr();
        let q_seq = SequentialLouvain::new(SeqConfig::default())
            .run(&g)
            .final_modularity;
        let r = SmpLouvain.run(&g);
        assert!(
            (q_seq - r.final_modularity).abs() < 0.05,
            "smp {} vs seq {q_seq}",
            r.final_modularity
        );
    }

    #[test]
    fn reported_q_matches_recomputation() {
        let g = generate_lfr(&LfrConfig::standard(2000, 0.3), 4)
            .edges
            .to_csr();
        let r = SmpLouvain.run(&g);
        let q = modularity(&g, &r.final_partition);
        assert!((q - r.final_modularity).abs() < 1e-9);
        assert!(r.final_partition.is_valid());
    }

    #[test]
    fn pair_graph_converges() {
        // The symmetric-swap case: resolved by the singleton guard.
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        let g = b.build_csr();
        let r = SmpLouvain.run(&g);
        assert_eq!(r.final_partition.num_communities(), 1);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = EdgeListBuilder::new(3).build_csr();
        let r = SmpLouvain.run(&g);
        assert_eq!(r.num_levels(), 0);
        assert_eq!(r.final_partition.num_communities(), 3);
    }
}
