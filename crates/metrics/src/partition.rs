//! Dense community partitions (Equations 1–2 of the paper: communities are
//! disjoint and cover V).

/// A partition of vertices `0..n` into communities `0..k`, stored as one
/// dense label per vertex.
///
/// ```
/// use louvain_metrics::Partition;
///
/// // Arbitrary labels are densified in first-appearance order.
/// let p = Partition::from_labels(&[7, 7, 42, 7, 3]);
/// assert_eq!(p.labels(), &[0, 0, 1, 0, 2]);
/// assert_eq!(p.num_communities(), 3);
/// assert_eq!(p.sizes(), vec![3, 1, 1]);
/// assert!(p.is_valid());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    labels: Vec<u32>,
    num_communities: usize,
}

impl Partition {
    /// Builds a partition from arbitrary (possibly sparse) labels,
    /// relabeling communities densely to `0..k` in order of first
    /// appearance.
    #[must_use]
    pub fn from_labels(raw: &[u32]) -> Self {
        // BTreeMap keeps this path free of hash-seed-dependent state; the
        // densification itself is first-appearance order either way.
        let mut map = std::collections::BTreeMap::new();
        let mut labels = Vec::with_capacity(raw.len());
        for &r in raw {
            let next = map.len() as u32;
            let l = *map.entry(r).or_insert(next);
            labels.push(l);
        }
        Self {
            num_communities: map.len(),
            labels,
        }
    }

    /// The singleton partition: every vertex its own community.
    #[must_use]
    pub fn singletons(n: usize) -> Self {
        Self {
            labels: (0..n as u32).collect(),
            num_communities: n,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of (non-empty) communities.
    #[must_use]
    pub fn num_communities(&self) -> usize {
        self.num_communities
    }

    /// Community of vertex `v`.
    #[inline]
    #[must_use]
    pub fn community(&self, v: u32) -> u32 {
        self.labels[v as usize]
    }

    /// The dense label array.
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Size of each community.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.num_communities];
        for &l in &self.labels {
            s[l as usize] += 1;
        }
        s
    }

    /// Members of each community.
    #[must_use]
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut m = vec![Vec::new(); self.num_communities];
        for (v, &l) in self.labels.iter().enumerate() {
            m[l as usize].push(v as u32);
        }
        m
    }

    /// Checks the partition axioms (Equations 1–2): every vertex has a
    /// label below `num_communities` and every community is non-empty.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let mut seen = vec![false; self.num_communities];
        for &l in &self.labels {
            if (l as usize) >= self.num_communities {
                return false;
            }
            seen[l as usize] = true;
        }
        seen.iter().all(|&b| b) || self.labels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_relabel_in_first_appearance_order() {
        let p = Partition::from_labels(&[7, 3, 7, 9, 3]);
        assert_eq!(p.labels(), &[0, 1, 0, 2, 1]);
        assert_eq!(p.num_communities(), 3);
        assert!(p.is_valid());
    }

    #[test]
    fn singletons() {
        let p = Partition::singletons(4);
        assert_eq!(p.num_communities(), 4);
        assert_eq!(p.sizes(), vec![1, 1, 1, 1]);
        assert!(p.is_valid());
    }

    #[test]
    fn sizes_and_members_consistent() {
        let p = Partition::from_labels(&[0, 0, 1, 1, 1, 2]);
        assert_eq!(p.sizes(), vec![2, 3, 1]);
        let m = p.members();
        assert_eq!(m[0], vec![0, 1]);
        assert_eq!(m[1], vec![2, 3, 4]);
        assert_eq!(m[2], vec![5]);
        assert_eq!(m.iter().map(Vec::len).sum::<usize>(), 6);
    }

    #[test]
    fn empty_partition() {
        let p = Partition::from_labels(&[]);
        assert_eq!(p.num_vertices(), 0);
        assert_eq!(p.num_communities(), 0);
        assert!(p.is_valid());
    }
}
