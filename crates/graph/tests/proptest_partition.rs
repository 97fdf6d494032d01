//! Property tests for both ownership maps behind [`AnyPartition`]
//! (DESIGN.md §15).
//!
//! The ownership contract, exercised over arbitrary `(n, p)` geometries and
//! mixed-magnitude load vectors:
//!
//! * ownership partitions the vertex set: per-rank `local_count` sums to
//!   `n`, and every vertex's owner is in range;
//! * `local_index`/`global` are inverse bijections on each rank's slice;
//! * `local_vertices` enumerates exactly the vertices `owner` assigns to
//!   that rank, in ascending order;
//! * the balanced builder is a pure function of the load vector —
//!   bit-identical across repeated builds, invariant under the uniform
//!   scaling replicated loading produces, and round-trippable through
//!   its dense owner vector.

use louvain_graph::partition::load_imbalance;
use louvain_graph::{AnyPartition, BalancedPartition, ModuloPartition};
use proptest::prelude::*;

/// Mixed-magnitude load palette (the PR 4 weight set): LPT tie-breaks
/// and running sums see the f64 patterns where fold-order bugs surface.
const WEIGHTS: [f64; 6] = [1e8, 0.1, 0.3, 1e-9, 7.25, 0.333_333_333_333_333_3];

fn arb_loads() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0usize..WEIGHTS.len(), 1..200)
        .prop_map(|picks| picks.into_iter().map(|i| WEIGHTS[i]).collect())
}

/// Checks the full ownership contract for one map.
fn check_contract(part: &AnyPartition) {
    let n = part.num_vertices();
    let p = part.num_ranks();
    let mut counted = 0usize;
    for rank in 0..p {
        let local_n = part.local_count(rank);
        counted += local_n;
        let mut seen: Vec<u32> = Vec::with_capacity(local_n);
        for li in 0..local_n {
            let v = part.global(rank, li);
            assert!((v as usize) < n, "global id {v} out of range");
            assert_eq!(part.owner(v), rank, "owner disagrees with global");
            assert_eq!(part.local_index(v), li, "local_index not inverse");
            seen.push(v);
        }
        let listed: Vec<u32> = part.local_vertices(rank).collect();
        assert_eq!(listed, seen, "local_vertices disagrees with global");
        assert!(
            listed.windows(2).all(|w| w[0] < w[1]),
            "local_vertices not ascending"
        );
    }
    assert_eq!(counted, n, "local counts do not partition the vertex set");
    for v in 0..n as u32 {
        assert!(part.owner(v) < p, "owner out of range for vertex {v}");
    }
}

proptest! {
    #[test]
    fn modulo_partition_satisfies_the_trait_contract(
        n in 0usize..300,
        p in 1usize..9,
    ) {
        check_contract(&AnyPartition::Modulo(ModuloPartition::new(n, p)));
    }

    #[test]
    fn balanced_partition_satisfies_the_trait_contract(
        loads in arb_loads(),
        p in 1usize..9,
    ) {
        check_contract(&AnyPartition::Balanced(BalancedPartition::from_loads(&loads, p)));
    }

    /// The LPT builder is a pure function of the load vector: repeated
    /// builds are identical, and replicated loading's uniform `p`×
    /// scaling of every entry cannot change the assignment.
    #[test]
    fn balanced_builder_is_deterministic_and_scale_invariant(
        loads in arb_loads(),
        p in 1usize..9,
        scale_idx in 0usize..3,
    ) {
        let a = BalancedPartition::from_loads(&loads, p);
        let b = BalancedPartition::from_loads(&loads, p);
        prop_assert_eq!(a.owners(), b.owners(), "repeated builds differ");
        let factor = [2.0, 4.0, 8.0][scale_idx];
        let scaled: Vec<f64> = loads.iter().map(|&x| x * factor).collect();
        let c = BalancedPartition::from_loads(&scaled, p);
        prop_assert_eq!(a.owners(), c.owners(), "uniform scaling moved vertices");
    }

    /// The checkpoint path rebuilds a balanced partition from its dense
    /// owner vector alone; the round trip must be lossless.
    #[test]
    fn balanced_partition_round_trips_through_owners(
        loads in arb_loads(),
        p in 1usize..9,
    ) {
        let built = BalancedPartition::from_loads(&loads, p);
        let restored = BalancedPartition::from_owners(built.owners(), p);
        prop_assert_eq!(built.owners(), restored.owners());
        check_contract(&AnyPartition::Balanced(restored));
    }

    /// LPT never loses to modulo on its own objective: the max/mean
    /// imbalance of the per-rank load sums under the balanced assignment
    /// is no worse than under the modulo assignment (up to fp noise).
    #[test]
    fn balanced_assignment_is_no_worse_than_modulo(
        loads in arb_loads(),
        p in 1usize..9,
    ) {
        let n = loads.len();
        let balanced = BalancedPartition::from_loads(&loads, p);
        let modulo = ModuloPartition::new(n, p);
        let rank_loads = |owner_of: &dyn Fn(u32) -> usize| -> Vec<f64> {
            let mut sums = vec![0.0f64; p];
            for (v, &w) in loads.iter().enumerate() {
                sums[owner_of(v as u32)] += w;
            }
            sums
        };
        let bal = load_imbalance(&rank_loads(&|v| balanced.owner(v)));
        let modulo = load_imbalance(&rank_loads(&|v| modulo.owner(v)));
        prop_assert!(
            bal <= modulo * (1.0 + 1e-9),
            "LPT imbalance {bal} worse than modulo {modulo}"
        );
    }

    /// The enum wrapper dispatches to the same answers as the wrapped
    /// implementor (the solver only ever sees `AnyPartition`).
    #[test]
    fn any_partition_dispatch_matches_inner(
        loads in arb_loads(),
        p in 1usize..9,
    ) {
        let inner = BalancedPartition::from_loads(&loads, p);
        let wrapped = AnyPartition::Balanced(inner.clone());
        for rank in 0..p {
            prop_assert_eq!(wrapped.local_count(rank), inner.local_count(rank));
            let a: Vec<u32> = wrapped.local_vertices(rank).collect();
            let b: Vec<u32> = (0..inner.local_count(rank))
                .map(|i| inner.global(rank, i))
                .collect();
            prop_assert_eq!(a, b);
        }
        for v in 0..loads.len() as u32 {
            prop_assert_eq!(wrapped.owner(v), inner.owner(v));
            prop_assert_eq!(wrapped.local_index(v), inner.local_index(v));
        }
    }
}
