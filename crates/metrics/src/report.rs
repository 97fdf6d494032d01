//! Per-community structural report: the "describe" view downstream users
//! want after detection (sizes, volumes, internal density, conductance).

use crate::modularity::community_aggregates;
use crate::partition::Partition;
use crate::quality::conductance;
use louvain_graph::csr::CsrGraph;

/// Structural summary of one community.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommunitySummary {
    /// Dense community id.
    pub id: u32,
    /// Member count.
    pub size: usize,
    /// Volume `Σ_tot` (sum of member degrees).
    pub volume: f64,
    /// Internal arc weight `Σ_in`.
    pub internal: f64,
    /// Cut weight (volume − internal).
    pub cut: f64,
    /// Conductance (cut / min(vol, 2m − vol)).
    pub conductance: f64,
    /// Internal edge density relative to a clique: `Σ_in / (size·(size−1))`
    /// for size > 1 (unit-weight interpretation), else 0.
    pub density: f64,
}

/// Full per-community report, sorted by descending size.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// One row per community.
    pub communities: Vec<CommunitySummary>,
    /// Newman modularity of the partition.
    pub modularity: f64,
}

impl PartitionReport {
    /// Builds the report for `p` over `g`.
    #[must_use]
    pub fn new(g: &CsrGraph, p: &Partition) -> Self {
        let agg = community_aggregates(g, p);
        let cond = conductance(g, p);
        let sizes = p.sizes();
        let mut communities: Vec<CommunitySummary> = (0..p.num_communities())
            .map(|c| {
                let size = sizes[c];
                let internal = agg.internal[c];
                let volume = agg.total[c];
                CommunitySummary {
                    id: c as u32,
                    size,
                    volume,
                    internal,
                    cut: volume - internal,
                    conductance: cond[c],
                    density: if size > 1 {
                        internal / (size as f64 * (size as f64 - 1.0))
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        communities.sort_by(|a, b| b.size.cmp(&a.size).then(a.id.cmp(&b.id)));
        Self {
            communities,
            modularity: crate::modularity::modularity(g, p),
        }
    }

    /// The largest community.
    #[must_use]
    pub fn largest(&self) -> Option<&CommunitySummary> {
        self.communities.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::edgelist::EdgeListBuilder;

    fn two_triangles_bridge() -> CsrGraph {
        let mut b = EdgeListBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        b.build_csr()
    }

    #[test]
    fn report_rows_are_consistent() {
        let g = two_triangles_bridge();
        let p = Partition::from_labels(&[0, 0, 0, 1, 1, 1]);
        let r = PartitionReport::new(&g, &p);
        assert_eq!(r.communities.len(), 2);
        for c in &r.communities {
            assert_eq!(c.size, 3);
            assert_eq!(c.volume, 7.0);
            assert_eq!(c.internal, 6.0);
            assert_eq!(c.cut, 1.0);
            assert!((c.conductance - 1.0 / 7.0).abs() < 1e-12);
            assert!((c.density - 1.0).abs() < 1e-12); // triangles are cliques
        }
        assert!((r.modularity - 2.0 * (6.0 / 14.0 - 0.25)).abs() < 1e-12);
    }

    #[test]
    fn sorted_by_size_descending() {
        let g = two_triangles_bridge();
        let p = Partition::from_labels(&[0, 0, 0, 0, 0, 1]);
        let r = PartitionReport::new(&g, &p);
        assert_eq!(r.largest().unwrap().size, 5);
        assert!(r.communities[0].size >= r.communities[1].size);
    }

    #[test]
    fn singleton_community_fields() {
        let g = two_triangles_bridge();
        let p = Partition::from_labels(&[0, 0, 0, 1, 1, 2]);
        let r = PartitionReport::new(&g, &p);
        let singleton = r.communities.iter().find(|c| c.size == 1).unwrap();
        assert_eq!(singleton.internal, 0.0);
        assert_eq!(singleton.density, 0.0);
        assert!(singleton.cut > 0.0);
    }
}
