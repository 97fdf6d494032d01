//! The sequential Louvain algorithm (Algorithm 1 of the paper; Blondel et
//! al. 2008).
//!
//! This is the quality and convergence baseline: Figure 4 compares the
//! parallel solvers against it, Table III measures partition similarity to
//! it, and its per-inner-iteration move fractions are the traces that
//! train the ε heuristic (Figure 2). Its level loop also drives
//! [`crate::smp`], and its local-move sweep is [`crate::refine`]'s.

use crate::coarsen::induced_edge_list;
use crate::dq::insert_gain_scaled;
use crate::heuristic::MIN_Q_IMPROVEMENT;
use crate::result::{LevelInfo, LouvainResult};
use louvain_graph::csr::CsrGraph;
use louvain_metrics::{modularity, Partition};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Vertex traversal order for the inner sweep.
///
/// "The type and quality of the detected communities are in general
/// heavily influenced by the order in which vertices are processed"
/// (Section V-B); this enum makes that influence measurable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VertexOrder {
    /// Ascending vertex id (deterministic default).
    #[default]
    Natural,
    /// Seeded random shuffle, re-drawn per level.
    Shuffled(u64),
    /// Highest-degree vertices first (hubs settle early).
    DegreeDescending,
    /// Lowest-degree vertices first (periphery settles early).
    DegreeAscending,
}

/// Inner sweeps per level are capped here (the algorithm normally stops
/// much earlier when no vertex moves).
const MAX_INNER_ITERATIONS: usize = 128;

/// Maximum hierarchy levels.
const MAX_LEVELS: usize = 32;

/// Sequential solver configuration.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SeqConfig {
    /// Vertex traversal order (Section V-B order dependence).
    pub order: VertexOrder,
}

/// The sequential Louvain solver.
///
/// ```
/// use louvain_core::seq::{SeqConfig, SequentialLouvain};
/// use louvain_graph::edgelist::EdgeListBuilder;
///
/// // Two 4-cliques joined by one edge.
/// let mut b = EdgeListBuilder::new(8);
/// for base in [0u32, 4] {
///     for i in 0..4 {
///         for j in (i + 1)..4 {
///             b.add_edge(base + i, base + j, 1.0);
///         }
///     }
/// }
/// b.add_edge(3, 4, 1.0);
/// let result = SequentialLouvain::new(SeqConfig::default()).run(&b.build_csr());
/// assert_eq!(result.final_partition.num_communities(), 2);
/// assert!(result.final_modularity > 0.3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SequentialLouvain {
    cfg: SeqConfig,
}

/// One level's local-move outcome, as the shared level driver
/// ([`run_levels`]) consumes it.
pub(crate) struct OneLevel {
    /// Community labels over the level's vertices (not necessarily dense).
    pub(crate) labels: Vec<u32>,
    /// Fraction of vertices moved per inner iteration.
    pub(crate) move_fractions: Vec<f64>,
    /// Modularity after each inner iteration, where the solver computes it.
    pub(crate) q_trace: Vec<f64>,
    pub(crate) total_moves: usize,
}

impl SequentialLouvain {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(cfg: SeqConfig) -> Self {
        Self { cfg }
    }

    /// Runs hierarchical Louvain on `g`.
    #[must_use]
    pub fn run(&self, g: &CsrGraph) -> LouvainResult {
        run_levels(g, MAX_LEVELS, |g, level| self.one_level(g, level))
    }

    /// One level of modularity refinement (the inner loop, lines 6–17 of
    /// Algorithm 1) from singletons, in this solver's vertex order.
    fn one_level(&self, g: &CsrGraph, level: u64) -> OneLevel {
        let n = g.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        match self.cfg.order {
            VertexOrder::Natural => {}
            VertexOrder::Shuffled(seed) => {
                let mut rng = StdRng::seed_from_u64(seed ^ level.wrapping_mul(0x9E37_79B9));
                order.shuffle(&mut rng);
            }
            VertexOrder::DegreeDescending => {
                order.sort_by(|&a, &b| g.degree(b).total_cmp(&g.degree(a)));
            }
            VertexOrder::DegreeAscending => {
                order.sort_by(|&a, &b| g.degree(a).total_cmp(&g.degree(b)));
            }
        }
        let mut labels: Vec<u32> = (0..n as u32).collect();
        let moves = local_move(g, &order, &mut labels, MAX_INNER_ITERATIONS);
        OneLevel {
            labels,
            move_fractions: moves.iter().map(|&m| m as f64 / n as f64).collect(),
            q_trace: Vec::new(),
            total_moves: moves.iter().sum(),
        }
    }
}

/// The hierarchy (the outer loop of Algorithm 1), shared by the
/// sequential and shared-memory solvers: run `one_level` on the current
/// graph, project its labels onto the original vertices, and coarsen,
/// until a level moves nothing, stops improving Q, or merges nothing.
/// The final partition is the last level's. It runs on `g` scaled into
/// the weight band, so the answer does not depend on the weight unit.
pub(crate) fn run_levels(
    g: &CsrGraph,
    max_levels: usize,
    mut one_level: impl FnMut(&CsrGraph, u64) -> OneLevel,
) -> LouvainResult {
    let g: &CsrGraph = &g.scaled_to_band();
    let n = g.num_vertices();
    let mut current = g.clone();
    // Community of every *original* vertex, updated after each level.
    let mut orig_labels: Vec<u32> = (0..n as u32).collect();
    let mut levels: Vec<LevelInfo> = Vec::new();
    let mut level_partitions: Vec<Partition> = Vec::new();
    let mut q_prev = modularity(g, &Partition::singletons(n));

    for level in 0..max_levels {
        let lvl = one_level(&current, level as u64);
        if lvl.total_moves == 0 {
            break; // nothing merged: hierarchy is stable
        }
        let partition = Partition::from_labels(&lvl.labels);
        let num_communities = partition.num_communities();
        for l in orig_labels.iter_mut() {
            *l = partition.labels()[*l as usize];
        }
        let q_after = modularity(&current, &partition);
        levels.push(LevelInfo {
            num_vertices: current.num_vertices(),
            num_communities,
            modularity: q_after,
            inner_iterations: lvl.move_fractions.len(),
            move_fractions: lvl.move_fractions,
            q_trace: lvl.q_trace,
        });
        level_partitions.push(Partition::from_labels(&orig_labels));
        let improved = q_after - q_prev > MIN_Q_IMPROVEMENT;
        q_prev = q_after;
        if !improved || num_communities == current.num_vertices() {
            break;
        }
        current = induced_edge_list(&current, partition.labels(), num_communities).to_csr();
    }

    let final_partition = level_partitions
        .last()
        .cloned()
        .unwrap_or_else(|| Partition::singletons(n));
    LouvainResult {
        final_modularity: levels.last().map_or(q_prev, |l| l.modularity),
        levels,
        level_partitions,
        final_partition,
    }
}

/// Gauss-Seidel local-move sweeps over `order`, starting from `labels`
/// (community ids below the vertex count): each vertex in turn leaves
/// its community and joins the neighboring one with the largest gain,
/// its own included. Stops after a sweep that moves nothing or after
/// `max_sweeps`; returns the moves of each sweep. Modularity never
/// decreases.
pub(crate) fn local_move(
    g: &CsrGraph,
    order: &[u32],
    labels: &mut [u32],
    max_sweeps: usize,
) -> Vec<usize> {
    let n = g.num_vertices();
    let s = g.total_arc_weight();
    let mut sweeps = Vec::new();
    if s <= 0.0 {
        return sweeps;
    }
    let mut tot = vec![0.0f64; n];
    for u in 0..n as u32 {
        tot[labels[u as usize] as usize] += g.degree(u);
    }
    // Scratch: neighbor-community weights, reset via touched list.
    let mut neigh_w = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();

    for _ in 0..max_sweeps {
        let mut moves = 0usize;
        for &u in order {
            let k_u = g.degree(u);
            let c_old = labels[u as usize];
            // Gather w_{u→c} for every neighboring community.
            for &c in &touched {
                neigh_w[c as usize] = 0.0;
            }
            touched.clear();
            for (v, w) in g.neighbors(u) {
                if v == u {
                    continue; // self-loop is not a link to a co-member
                }
                let c = labels[v as usize];
                // lint: allow(F1) — exact zero sentinel: slot was reset to 0.0 above
                if neigh_w[c as usize] == 0.0 {
                    touched.push(c);
                }
                neigh_w[c as usize] += w;
            }
            // Remove u from its community, then find the best target
            // (possibly its old community).
            tot[c_old as usize] -= k_u;
            let mut best_c = c_old;
            let mut best_gain =
                insert_gain_scaled(neigh_w[c_old as usize], k_u, tot[c_old as usize], s);
            for &c in &touched {
                if c == c_old {
                    continue;
                }
                let gain = insert_gain_scaled(neigh_w[c as usize], k_u, tot[c as usize], s);
                if gain > best_gain {
                    best_gain = gain;
                    best_c = c;
                }
            }
            tot[best_c as usize] += k_u;
            if best_c != c_old {
                labels[u as usize] = best_c;
                moves += 1;
            }
        }
        sweeps.push(moves);
        if moves == 0 {
            break;
        }
    }
    sweeps
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
    use louvain_metrics::similarity::nmi;

    fn two_cliques(k: usize) -> CsrGraph {
        // Two k-cliques joined by one edge.
        let mut b = EdgeListBuilder::new(2 * k);
        for base in [0, k] {
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_edge((base + i) as u32, (base + j) as u32, 1.0);
                }
            }
        }
        b.add_edge((k - 1) as u32, k as u32, 1.0);
        b.build_csr()
    }

    #[test]
    fn recovers_two_cliques() {
        let g = two_cliques(5);
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        assert_eq!(r.final_partition.num_communities(), 2);
        // Vertices 0..5 together, 5..10 together.
        let p = &r.final_partition;
        for v in 1..5u32 {
            assert_eq!(p.community(v), p.community(0));
        }
        for v in 6..10u32 {
            assert_eq!(p.community(v), p.community(5));
        }
        assert_ne!(p.community(0), p.community(5));
        assert!(r.final_modularity > 0.4);
    }

    #[test]
    fn modularity_never_decreases_across_levels() {
        let (el, _) = generate_planted(
            &PlantedConfig {
                communities: 8,
                community_size: 30,
                p_in: 0.3,
                p_out: 0.01,
            },
            5,
        );
        let g = el.to_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        let mut prev = f64::NEG_INFINITY;
        for lvl in &r.levels {
            assert!(
                lvl.modularity >= prev - 1e-12,
                "level modularity decreased: {} -> {}",
                prev,
                lvl.modularity
            );
            prev = lvl.modularity;
        }
        assert!(r.num_levels() >= 1);
    }

    #[test]
    fn level_modularity_matches_projection_to_original_graph() {
        let (el, _) = generate_planted(
            &PlantedConfig {
                communities: 5,
                community_size: 20,
                p_in: 0.4,
                p_out: 0.02,
            },
            7,
        );
        let g = el.to_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        for (lvl, part) in r.levels.iter().zip(&r.level_partitions) {
            let q_orig = modularity(&g, part);
            assert!(
                (q_orig - lvl.modularity).abs() < 1e-9,
                "projected Q {q_orig} != level Q {}",
                lvl.modularity
            );
        }
    }

    #[test]
    fn recovers_planted_partition() {
        let cfg = PlantedConfig {
            communities: 6,
            community_size: 40,
            p_in: 0.35,
            p_out: 0.005,
        };
        let (el, truth) = generate_planted(&cfg, 3);
        let g = el.to_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        let sim = nmi(&Partition::from_labels(&truth), &r.final_partition);
        assert!(sim > 0.95, "NMI vs planted truth: {sim}");
    }

    #[test]
    fn first_sweep_moves_most_vertices() {
        // The observation behind the heuristic: the first inner iteration
        // does almost all the merging.
        let (el, _) = generate_planted(
            &PlantedConfig {
                communities: 10,
                community_size: 50,
                p_in: 0.3,
                p_out: 0.005,
            },
            9,
        );
        let g = el.to_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        let first = &r.levels[0].move_fractions;
        assert!(first[0] > 0.5, "first sweep fraction {}", first[0]);
        // And the fractions decay.
        assert!(first.last().unwrap() < &0.05);
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = EdgeListBuilder::new(10).build_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        assert_eq!(r.num_levels(), 0);
        assert_eq!(r.final_partition.num_communities(), 10);
    }

    #[test]
    fn handles_single_edge() {
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        let g = b.build_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        assert_eq!(r.final_partition.num_communities(), 1);
    }

    #[test]
    fn every_vertex_order_finds_the_cliques() {
        let g = two_cliques(8);
        let orders = [
            VertexOrder::Natural,
            VertexOrder::Shuffled(1),
            VertexOrder::Shuffled(2),
            VertexOrder::DegreeDescending,
            VertexOrder::DegreeAscending,
        ];
        for order in orders {
            let r = SequentialLouvain::new(SeqConfig { order }).run(&g);
            assert_eq!(r.final_partition.num_communities(), 2, "{order:?}");
        }
    }

    #[test]
    fn order_affects_details_not_quality() {
        // Section V-B: order changes the exact communities but not the
        // overall quality by much.
        let (el, _) = generate_planted(
            &PlantedConfig {
                communities: 10,
                community_size: 30,
                p_in: 0.3,
                p_out: 0.02,
            },
            17,
        );
        let g = el.to_csr();
        let qs: Vec<f64> = [
            VertexOrder::Natural,
            VertexOrder::Shuffled(7),
            VertexOrder::DegreeDescending,
            VertexOrder::DegreeAscending,
        ]
        .into_iter()
        .map(|order| {
            SequentialLouvain::new(SeqConfig { order })
                .run(&g)
                .final_modularity
        })
        .collect();
        let max = qs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = qs.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max - min < 0.03, "order spread too large: {qs:?}");
    }

    #[test]
    fn weighted_edges_respected() {
        // Path 0-1-2 where 0-1 is heavy: 0,1 must pair up.
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 10.0);
        b.add_edge(1, 2, 0.1);
        let g = b.build_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        let p = &r.final_partition;
        assert_eq!(p.community(0), p.community(1));
    }
}
