//! Hierarchical community structure navigation.
//!
//! "All those algorithms fail to unfold the hierarchical organization,
//! which is an important feature displayed by most networked systems in
//! the real world" (Section VI) — the Louvain hierarchy is a first-class
//! output of this reproduction. A [`Dendrogram`] wraps the per-level
//! partitions of a [`LouvainResult`] and supports navigation: the
//! community of any vertex at any level, level-wise community counts, and
//! extraction of the sub-hierarchy beneath one community.

use crate::result::LouvainResult;
use louvain_metrics::Partition;

/// The community hierarchy produced by a Louvain run: level 0 is the
/// finest partition, the last level the coarsest.
#[derive(Clone, Debug)]
pub struct Dendrogram {
    levels: Vec<Partition>,
    modularity: Vec<f64>,
}

impl Dendrogram {
    /// Builds the dendrogram from a solver result.
    #[must_use]
    pub fn from_result(result: &LouvainResult) -> Self {
        Self {
            levels: result.level_partitions.clone(),
            modularity: result.levels.iter().map(|l| l.modularity).collect(),
        }
    }

    /// Number of hierarchy levels.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of original vertices (0 for an empty hierarchy).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.levels.first().map_or(0, Partition::num_vertices)
    }

    /// The partition at `level` (0 = finest).
    #[must_use]
    pub fn partition(&self, level: usize) -> &Partition {
        &self.levels[level]
    }

    /// Modularity at `level`.
    #[must_use]
    pub fn modularity(&self, level: usize) -> f64 {
        self.modularity[level]
    }

    /// The level with the highest modularity.
    #[must_use]
    pub fn best_level(&self) -> Option<usize> {
        self.modularity
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
    }

    /// The children of community `c` at `level`: the level-`level - 1`
    /// communities it is composed of. For `level == 0` every community is
    /// its own leaf, so the result is `[c]`.
    #[must_use]
    pub fn children(&self, c: u32, level: usize) -> Vec<u32> {
        if level == 0 {
            return vec![c];
        }
        let coarse = &self.levels[level];
        let fine = &self.levels[level - 1];
        let mut kids: Vec<u32> = (0..coarse.num_vertices() as u32)
            .filter(|&v| coarse.community(v) == c)
            .map(|v| fine.community(v))
            .collect();
        kids.sort_unstable();
        kids.dedup();
        kids
    }

    /// Checks the nesting property: each level's communities refine the
    /// next level's (every finer community maps into exactly one coarser
    /// community).
    #[must_use]
    pub fn is_nested(&self) -> bool {
        for w in self.levels.windows(2) {
            let (fine, coarse) = (&w[0], &w[1]);
            if fine.num_vertices() != coarse.num_vertices() {
                return false;
            }
            // For each fine community, all members must share a coarse
            // community.
            let mut rep = vec![u32::MAX; fine.num_communities()];
            for v in 0..fine.num_vertices() as u32 {
                let f = fine.community(v) as usize;
                let c = coarse.community(v);
                if rep[f] == u32::MAX {
                    rep[f] = c;
                } else if rep[f] != c {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{ParallelConfig, ParallelLouvain};
    use crate::seq::{SeqConfig, SequentialLouvain};
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};

    fn hierarchy_graph() -> louvain_graph::edgelist::EdgeList {
        // 8 tight 10-cliques weakly chained in pairs: two natural levels.
        let (el, _) = generate_planted(
            &PlantedConfig {
                communities: 8,
                community_size: 16,
                p_in: 0.6,
                p_out: 0.02,
            },
            3,
        );
        el
    }

    #[test]
    fn sequential_hierarchy_is_nested_and_monotone() {
        let g = hierarchy_graph().to_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        let d = Dendrogram::from_result(&r);
        assert!(d.num_levels() >= 1);
        assert!(d.is_nested());
        let counts: Vec<usize> = d.levels.iter().map(Partition::num_communities).collect();
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "coarsening must not split: {counts:?}");
        }
    }

    #[test]
    fn parallel_hierarchy_is_nested() {
        let el = hierarchy_graph();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&el);
        let d = Dendrogram::from_result(&r.result);
        assert!(d.is_nested());
        assert_eq!(d.num_vertices(), el.num_vertices());
        let best = d.best_level().unwrap();
        assert!((d.modularity(best) - r.result.final_modularity).abs() < 1e-12);
    }

    #[test]
    fn members_and_children_consistent() {
        let g = hierarchy_graph().to_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        let d = Dendrogram::from_result(&r);
        let last = d.num_levels() - 1;
        if last == 0 {
            return;
        }
        // Every top community's members equal the union of its children's
        // members at the finer level.
        let fine = d.partition(last - 1).members();
        for (c, members) in d.partition(last).members().iter().enumerate() {
            let mut from_children: Vec<u32> = d
                .children(c as u32, last)
                .into_iter()
                .flat_map(|k| fine[k as usize].iter().copied())
                .collect();
            from_children.sort_unstable();
            assert_eq!(*members, from_children, "community {c}");
        }
    }

    #[test]
    fn empty_hierarchy() {
        let r = LouvainResult {
            levels: vec![],
            level_partitions: vec![],
            final_partition: Partition::singletons(0),
            final_modularity: 0.0,
        };
        let d = Dendrogram::from_result(&r);
        assert_eq!(d.num_levels(), 0);
        assert_eq!(d.num_vertices(), 0);
        assert!(d.is_nested());
        assert!(d.best_level().is_none());
    }
}
