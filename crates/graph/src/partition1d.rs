//! The 1D modulo vertex decomposition of Section IV-A.
//!
//! "We linearly split the vertices and their edge lists among the compute
//! nodes using a 1D decomposition. Each node is assigned a set of vertices
//! according to a simple modulo function."
//!
//! Vertex `v` is owned by rank `v mod p`; the owning rank stores all
//! information (edges, community state) for its vertices.

use crate::VertexId;

/// Modulo-`p` ownership map over vertices `0..n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModuloPartition {
    n: usize,
    p: usize,
}

impl ModuloPartition {
    /// Creates a partition of `n` vertices over `p >= 1` ranks.
    ///
    /// Panics if `n` exceeds the [`VertexId`] id space: ids past
    /// `u32::MAX` would silently alias under the `usize → u32` casts in
    /// [`ModuloPartition::global`], so the overflow is rejected here, at
    /// graph-build time.
    #[must_use]
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p >= 1, "at least one rank required");
        assert!(
            u32::try_from(n).is_ok(),
            "partition overflow: {n} vertices exceed the u32 vertex id space"
        );
        Self { n, p }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of ranks.
    #[must_use]
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    /// Rank owning vertex `v`.
    #[inline(always)]
    #[must_use]
    pub fn owner(&self, v: VertexId) -> usize {
        widen(v) % self.p
    }

    /// Number of vertices owned by `rank`.
    #[must_use]
    pub fn local_count(&self, rank: usize) -> usize {
        assert!(
            rank < self.p,
            "partition rank out of bounds: rank {rank} >= {} ranks",
            self.p
        );
        if self.n == 0 {
            return 0;
        }
        // Vertices rank, rank+p, rank+2p, ... below n.
        if rank < self.n % self.p {
            self.n / self.p + 1
        } else {
            self.n / self.p
        }
    }

    /// Iterates the vertices owned by `rank` in increasing order.
    pub fn local_vertices(&self, rank: usize) -> impl Iterator<Item = VertexId> + '_ {
        assert!(
            rank < self.p,
            "partition rank out of bounds: rank {rank} >= {} ranks",
            self.p
        );
        (rank..self.n).step_by(self.p).map(|v| v as VertexId)
    }

    /// Dense local index of `v` on its owner (inverse of
    /// [`ModuloPartition::global`]).
    #[inline(always)]
    #[must_use]
    pub fn local_index(&self, v: VertexId) -> usize {
        widen(v) / self.p
    }

    /// Global vertex id of local index `i` on `rank`.
    #[inline(always)]
    #[must_use]
    pub fn global(&self, rank: usize, i: usize) -> VertexId {
        let g = i * self.p + rank;
        VertexId::try_from(g)
            .unwrap_or_else(|_| panic!("partition overflow: global id {g} exceeds u32"))
    }
}

/// Checked `VertexId → usize` widening. Infallible on every platform with
/// ≥ 32-bit pointers, but spelled as a conversion (not a bare `as` cast)
/// so a 16-bit target fails loudly instead of silently aliasing vertices.
#[inline(always)]
fn widen(v: VertexId) -> usize {
    usize::try_from(v).unwrap_or_else(|_| panic!("partition overflow: vertex id {v} exceeds usize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_modulo() {
        let p = ModuloPartition::new(10, 3);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(1), 1);
        assert_eq!(p.owner(5), 2);
        assert_eq!(p.owner(9), 0);
    }

    #[test]
    fn local_counts_sum_to_n() {
        for n in [0usize, 1, 7, 10, 100, 101] {
            for p in [1usize, 2, 3, 7, 16] {
                let part = ModuloPartition::new(n, p);
                let total: usize = (0..p).map(|r| part.local_count(r)).sum();
                assert_eq!(total, n, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn local_vertices_match_counts_and_ownership() {
        let part = ModuloPartition::new(23, 4);
        for r in 0..4 {
            let vs: Vec<u32> = part.local_vertices(r).collect();
            assert_eq!(vs.len(), part.local_count(r));
            for &v in &vs {
                assert_eq!(part.owner(v), r);
            }
        }
    }

    #[test]
    fn local_global_roundtrip() {
        let part = ModuloPartition::new(100, 7);
        for v in 0..100u32 {
            let r = part.owner(v);
            let i = part.local_index(v);
            assert_eq!(part.global(r, i), v);
        }
    }

    #[test]
    fn single_rank_owns_everything() {
        let part = ModuloPartition::new(5, 1);
        assert_eq!(part.local_count(0), 5);
        let vs: Vec<u32> = part.local_vertices(0).collect();
        assert_eq!(vs, vec![0, 1, 2, 3, 4]);
    }

    /// Regression (ISSUE 10): rank bounds used to be `debug_assert!`
    /// only, so a release-build caller with `rank >= p` silently got
    /// another rank's vertex set. Both entry points must panic in every
    /// build profile.
    #[test]
    #[should_panic(expected = "partition rank out of bounds")]
    fn local_count_rejects_out_of_range_rank() {
        let part = ModuloPartition::new(10, 3);
        let _ = part.local_count(3);
    }

    #[test]
    #[should_panic(expected = "partition rank out of bounds")]
    fn local_vertices_rejects_out_of_range_rank() {
        let part = ModuloPartition::new(10, 3);
        let _ = part.local_vertices(7);
    }

    /// Regression (ISSUE 10): `new` used to accept any `n` and `global`
    /// truncated `usize → u32` silently, aliasing vertices past
    /// `u32::MAX`. The overflow must be rejected at build time.
    #[test]
    #[should_panic(expected = "partition overflow")]
    fn new_rejects_vertex_counts_past_u32() {
        let _ = ModuloPartition::new(u32::MAX as usize + 2, 4);
    }
}
