//! Graph statistics used to validate generators and report workloads.

use crate::csr::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary degree statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum unweighted adjacency count.
    pub min: usize,
    /// Maximum unweighted adjacency count.
    pub max: usize,
    /// Mean unweighted adjacency count.
    pub mean: f64,
    /// Number of isolated vertices.
    pub isolated: usize,
}

/// Computes unweighted degree statistics.
#[must_use]
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            isolated: 0,
        };
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    let mut isolated = 0usize;
    for u in 0..n as u32 {
        let d = g.arc_count(u);
        min = min.min(d);
        max = max.max(d);
        sum += d;
        if d == 0 {
            isolated += 1;
        }
    }
    DegreeStats {
        min,
        max,
        mean: sum as f64 / n as f64,
        isolated,
    }
}

/// Estimates the global clustering coefficient by uniform wedge sampling:
/// pick a center vertex with probability proportional to `C(deg, 2)`, pick
/// two distinct neighbors, and test whether they are adjacent. The
/// estimate converges to `3·triangles / wedges`.
#[must_use]
pub fn sampled_gcc(g: &CsrGraph, samples: usize, seed: u64) -> f64 {
    let n = g.num_vertices();
    if n == 0 || samples == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Cumulative wedge counts.
    let mut cdf: Vec<f64> = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for u in 0..n as u32 {
        let d = g.arc_count(u) as f64;
        acc += d * (d - 1.0) / 2.0;
        cdf.push(acc);
    }
    if acc <= 0.0 {
        return 0.0;
    }
    let mut closed = 0usize;
    for _ in 0..samples {
        let x: f64 = rng.gen::<f64>() * acc;
        let u = match cdf.binary_search_by(|p| p.total_cmp(&x)) {
            Ok(i) | Err(i) => i.min(n - 1),
        } as u32;
        let deg = g.arc_count(u);
        if deg < 2 {
            continue;
        }
        let i = rng.gen_range(0..deg);
        let mut j = rng.gen_range(0..deg - 1);
        if j >= i {
            j += 1;
        }
        let (Some((a, _)), Some((b, _))) = (g.neighbors(u).nth(i), g.neighbors(u).nth(j)) else {
            continue; // unreachable: i, j < deg by construction
        };
        if a == b || a == u || b == u {
            continue; // multi-edge / loop artifacts don't close wedges
        }
        // Scan the smaller adjacency row.
        let (s, t) = if g.arc_count(a) <= g.arc_count(b) {
            (a, b)
        } else {
            (b, a)
        };
        if g.neighbors(s).any(|(x, _)| x == t) {
            closed += 1;
        }
    }
    closed as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeListBuilder;
    use crate::gen::er::generate_gnp;

    #[test]
    fn degree_stats_on_star() {
        // Star: center 0 connected to 1..5; vertex 6 isolated.
        let mut b = EdgeListBuilder::new(7);
        for v in 1..=5 {
            b.add_edge(0, v, 1.0);
        }
        let g = b.build_csr();
        let s = degree_stats(&g);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 5);
        assert_eq!(s.isolated, 1);
        assert!((s.mean - 10.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn gcc_of_triangle_is_one() {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 1.0);
        let g = b.build_csr();
        assert_eq!(sampled_gcc(&g, 1000, 1), 1.0);
    }

    #[test]
    fn gcc_of_star_is_zero() {
        let mut b = EdgeListBuilder::new(6);
        for v in 1..=5 {
            b.add_edge(0, v, 1.0);
        }
        let g = b.build_csr();
        assert_eq!(sampled_gcc(&g, 1000, 1), 0.0);
    }

    #[test]
    fn gcc_of_er_graph_near_p() {
        // GCC of G(n, p) converges to p.
        let g = generate_gnp(400, 0.1, 3).to_csr();
        let c = sampled_gcc(&g, 50_000, 4);
        assert!((c - 0.1).abs() < 0.03, "GCC {c} vs p=0.1");
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = EdgeListBuilder::new(0).build_csr();
        assert_eq!(sampled_gcc(&g, 100, 1), 0.0);
        let s = degree_stats(&g);
        assert_eq!(s.mean, 0.0);
    }
}
