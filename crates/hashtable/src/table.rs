//! The open-addressing, linear-probing edge table (`In_Table` / `Out_Table`).
//!
//! Both tables of the parallel Louvain algorithm have the same shape: keys
//! are packed edge tuples ([`crate::key::pack_key`]) and the value is an
//! accumulated weight.  Insertion follows Algorithms 3 and 5 of the paper:
//!
//! > *if ∃ ((u,c), w') ∈ Table then w' ← w' + w; else place the triple with
//! > linear probing.*
//!
//! The table supports O(1) amortized insert-or-accumulate, lookup, a
//! sequential scan over occupied slots, and a bulk `reset` that reuses the
//! allocation — the operation that makes "rewriting the whole graph from
//! scratch each outer loop" cheap.

use crate::hashfn::{FibonacciHash, HashFn64};
use crate::stats::{OccupancyStats, ProbeStats};

/// Sentinel marking an empty slot. Real keys never use this value because
/// vertex/community identifiers are `u32`s strictly below `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Default maximum load factor before the table grows.
///
/// The paper selects 1/4 as "a good compromise between speed and memory
/// requirements" (Section V-C2, Figure 6d).
pub const DEFAULT_MAX_LOAD: f64 = 0.25;

/// An open-addressing hash table from packed 64-bit edge keys to
/// accumulated `f64` weights, with linear probing.
///
/// ```
/// use louvain_hash::{EdgeTable, pack_key};
///
/// let mut out_table = EdgeTable::new(64);
/// // Two edges from vertex 3 into community 9 accumulate into w_{3->9}.
/// out_table.accumulate(pack_key(3, 9), 1.0);
/// out_table.accumulate(pack_key(3, 9), 2.5);
/// assert_eq!(out_table.get(pack_key(3, 9)), Some(3.5));
/// assert_eq!(out_table.len(), 1);
/// out_table.reset(); // the cheap outer-loop rewrite
/// assert!(out_table.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct EdgeTable<H: HashFn64 = FibonacciHash> {
    keys: Vec<u64>,
    weights: Vec<f64>,
    len: usize,
    hash: H,
    max_load: f64,
    // Lifetime probe counters for benchmark reporting.
    probes: u64,
    operations: u64,
    max_probe: u64,
}

impl EdgeTable<FibonacciHash> {
    /// Creates a table with Fibonacci hashing sized for `expected` entries
    /// at the default 1/4 load factor.
    #[must_use]
    pub fn new(expected: usize) -> Self {
        Self::with_hash_and_load(expected, FibonacciHash, DEFAULT_MAX_LOAD)
    }
}

impl<H: HashFn64> EdgeTable<H> {
    /// Creates a table sized for `expected` entries at load factor
    /// `max_load` (clamped to `(0, 0.9]`), using hash function `hash`.
    #[must_use]
    pub fn with_hash_and_load(expected: usize, hash: H, max_load: f64) -> Self {
        let max_load = max_load.clamp(0.05, 0.9);
        let cap = (((expected.max(1) as f64) / max_load).ceil() as usize).max(8);
        Self {
            keys: vec![EMPTY; cap],
            weights: vec![0.0; cap],
            len: 0,
            hash,
            max_load,
            probes: 0,
            operations: 0,
            max_probe: 0,
        }
    }

    /// Number of occupied slots (distinct keys).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no keys are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Current load factor `len / capacity`.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.keys.len() as f64
    }

    /// Mean number of slots inspected per operation over the table's
    /// lifetime (1.0 = every operation hit its home slot).
    #[must_use]
    pub fn mean_probe_length(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.probes as f64 / self.operations as f64
        }
    }

    /// Extra slots inspected beyond each operation's home slot over the
    /// table's lifetime: `probes - operations`. Zero means every
    /// operation resolved at its hashed slot.
    #[must_use]
    pub fn collisions(&self) -> u64 {
        self.probes - self.operations
    }

    /// Longest probe sequence any single operation has walked (0 for an
    /// untouched table; 1 means no operation ever left its home slot).
    #[must_use]
    pub fn max_probe_length(&self) -> u64 {
        self.max_probe
    }

    /// Snapshot of the lifetime probe counters plus the current load
    /// factor, for the Section V-C1 hash-behavior report.
    #[must_use]
    pub fn probe_stats(&self) -> ProbeStats {
        ProbeStats {
            operations: self.operations,
            probes: self.probes,
            collisions: self.collisions(),
            max_probe_length: self.max_probe,
            mean_probe_length: self.mean_probe_length(),
            load_factor: self.load_factor(),
        }
    }

    /// Inserts `key` with weight `w`, or adds `w` to the existing weight.
    /// Returns `true` if the key was newly inserted.
    ///
    /// # Panics
    ///
    /// If `key` is `u64::MAX`, the value reserved for empty slots.
    pub fn accumulate(&mut self, key: u64, w: f64) -> bool {
        assert_ne!(key, EMPTY, "key value reserved for empty slots");
        if (self.len + 1) as f64 > self.max_load * self.keys.len() as f64 {
            self.grow();
        }
        let cap = self.keys.len();
        let mut slot = self.hash.bin(key, cap);
        self.operations += 1;
        let mut walked = 0u64;
        let inserted = loop {
            walked += 1;
            let k = self.keys[slot];
            if k == key {
                self.weights[slot] += w;
                break false;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.weights[slot] = w;
                self.len += 1;
                break true;
            }
            slot += 1;
            if slot == cap {
                slot = 0;
            }
        };
        self.probes += walked;
        self.max_probe = self.max_probe.max(walked);
        inserted
    }

    /// Looks up the accumulated weight for `key`; `None` for the
    /// reserved key `u64::MAX`, which no entry can hold.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<f64> {
        let cap = self.keys.len();
        let mut slot = self.hash.bin(key, cap);
        loop {
            let k = self.keys[slot];
            // Empty first: the reserved key matches every empty slot.
            if k == EMPTY {
                return None;
            }
            if k == key {
                return Some(self.weights[slot]);
            }
            slot += 1;
            if slot == cap {
                slot = 0;
            }
        }
    }

    /// Sequential scan over the occupied slots as `(key, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.keys
            .iter()
            .zip(self.weights.iter())
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &w)| (k, w))
    }

    /// Empties the table while keeping the allocation — the cheap "delete
    /// the content of the input table" step of the outer loop.
    pub fn reset(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    /// Empties the table and resizes it for `expected` entries if the
    /// current capacity is more than 4x too large or too small.
    pub fn reset_for(&mut self, expected: usize) {
        let want = (((expected.max(1) as f64) / self.max_load).ceil() as usize).max(8);
        let cap = self.keys.len();
        if want > cap || want * 4 < cap {
            self.keys.clear();
            self.keys.resize(want, EMPTY);
            self.weights.clear();
            self.weights.resize(want, 0.0);
            self.len = 0;
        } else {
            self.reset();
        }
    }

    /// Occupancy statistics (entries per slice, probe-cluster lengths) for
    /// the hash-behavior analysis of Figure 6. `slices` models the number
    /// of threads a node's table is partitioned across.
    #[must_use]
    pub fn occupancy_stats(&self, slices: usize) -> OccupancyStats {
        OccupancyStats::from_slots(&self.keys, EMPTY, slices)
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_weights = std::mem::replace(&mut self.weights, vec![0.0; new_cap]);
        self.len = 0;
        for (k, w) in old_keys.into_iter().zip(old_weights) {
            if k != EMPTY {
                // Re-insert without triggering another grow: load halved.
                let cap = self.keys.len();
                let mut slot = self.hash.bin(k, cap);
                loop {
                    if self.keys[slot] == EMPTY {
                        self.keys[slot] = k;
                        self.weights[slot] = w;
                        self.len += 1;
                        break;
                    }
                    slot += 1;
                    if slot == cap {
                        slot = 0;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashfn::{ConcatHash, LcgHash};
    use crate::key::pack_key;

    #[test]
    fn insert_then_get() {
        let mut t = EdgeTable::new(16);
        assert!(t.accumulate(pack_key(1, 2), 1.5));
        assert_eq!(t.get(pack_key(1, 2)), Some(1.5));
        assert_eq!(t.get(pack_key(2, 1)), None);
    }

    #[test]
    fn the_reserved_key_is_never_found() {
        let mut t = EdgeTable::new(16);
        assert_eq!(t.get(u64::MAX), None);
        t.accumulate(pack_key(1, 2), 1.0);
        assert_eq!(t.get(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "reserved for empty slots")]
    fn accumulate_rejects_the_reserved_key() {
        EdgeTable::new(16).accumulate(u64::MAX, 7.0);
    }

    #[test]
    fn accumulate_sums_weights() {
        let mut t = EdgeTable::new(16);
        assert!(t.accumulate(pack_key(3, 4), 1.0));
        assert!(!t.accumulate(pack_key(3, 4), 2.5));
        assert_eq!(t.get(pack_key(3, 4)), Some(3.5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = EdgeTable::new(4);
        for i in 0..10_000u32 {
            t.accumulate(pack_key(i, i.wrapping_mul(7)), 1.0);
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(t.get(pack_key(i, i.wrapping_mul(7))), Some(1.0));
        }
        assert!(t.load_factor() <= DEFAULT_MAX_LOAD * 1.01);
    }

    #[test]
    fn reset_empties_but_keeps_capacity() {
        let mut t = EdgeTable::new(100);
        let cap = t.capacity();
        for i in 0..100u32 {
            t.accumulate(pack_key(i, 0), 1.0);
        }
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap);
        assert_eq!(t.get(pack_key(5, 0)), None);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn reset_for_shrinks_oversized_tables() {
        let mut t = EdgeTable::new(100_000);
        let big = t.capacity();
        t.reset_for(10);
        assert!(t.capacity() < big / 4);
        assert!(t.is_empty());
        // Still works after resize.
        t.accumulate(pack_key(1, 1), 2.0);
        assert_eq!(t.get(pack_key(1, 1)), Some(2.0));
    }

    #[test]
    fn iter_yields_all_entries_once() {
        let mut t = EdgeTable::new(64);
        for i in 0..50u32 {
            t.accumulate(pack_key(i, i + 1), f64::from(i));
        }
        let mut seen: Vec<(u64, f64)> = t.iter().collect();
        seen.sort_by_key(|&(k, _)| k);
        assert_eq!(seen.len(), 50);
        for (i, &(k, w)) in seen.iter().enumerate() {
            let i = i as u32;
            assert_eq!(k, pack_key(i, i + 1));
            assert_eq!(w, f64::from(i));
        }
    }

    #[test]
    fn works_with_every_hash_function() {
        fn exercise<H: HashFn64>(hash: H) {
            let mut t = EdgeTable::with_hash_and_load(8, hash, 0.5);
            for i in 0..1000u32 {
                t.accumulate(pack_key(i % 100, i / 100), 1.0);
            }
            assert_eq!(t.len(), 1000);
            assert_eq!(t.get(pack_key(42, 3)), Some(1.0));
        }
        exercise(FibonacciHash);
        exercise(LcgHash::default());
        exercise(ConcatHash);
    }

    #[test]
    fn probe_length_reported() {
        let mut t = EdgeTable::new(1000);
        for i in 0..500u32 {
            t.accumulate(pack_key(i, 0), 1.0);
        }
        assert!(t.mean_probe_length() >= 1.0);
        // At load factor 1/4 clustering is mild.
        assert!(t.mean_probe_length() < 2.0, "{}", t.mean_probe_length());
    }

    #[test]
    fn probe_stats_snapshot_is_consistent() {
        let mut t = EdgeTable::new(8);
        assert_eq!(t.probe_stats(), crate::stats::ProbeStats::default());
        for i in 0..200u32 {
            t.accumulate(pack_key(i, 1), 1.0);
            t.accumulate(pack_key(i, 1), 1.0); // accumulate path probes too
        }
        let s = t.probe_stats();
        assert_eq!(s.operations, 400);
        assert!(s.probes >= s.operations);
        assert_eq!(s.collisions, s.probes - s.operations);
        assert!(s.max_probe_length >= 1);
        assert!(s.mean_probe_length >= 1.0);
        assert!((s.load_factor - t.load_factor()).abs() < 1e-15);
        // Every operation's walk is bounded by the recorded maximum.
        assert!(s.max_probe_length <= s.probes);
    }

    #[test]
    fn collisions_zero_when_every_key_hits_home_slot() {
        // A single key accumulated repeatedly always lands on its home
        // slot, so probes == operations.
        let mut t = EdgeTable::new(64);
        for _ in 0..10 {
            t.accumulate(pack_key(7, 7), 1.0);
        }
        assert_eq!(t.collisions(), 0);
        assert_eq!(t.max_probe_length(), 1);
    }

    #[test]
    fn probe_counters_survive_reset() {
        // Lifetime counters cover every outer loop: reset() clears the
        // slots, not the counters.
        let mut t = EdgeTable::new(32);
        for i in 0..20u32 {
            t.accumulate(pack_key(i, 0), 1.0);
        }
        let before = t.probe_stats();
        t.reset();
        let after = t.probe_stats();
        assert_eq!(after.operations, before.operations);
        assert_eq!(after.probes, before.probes);
        assert_eq!(after.load_factor, 0.0);
    }

    #[test]
    fn probe_stats_merge_combines_totals() {
        use crate::stats::ProbeStats;
        let a = ProbeStats {
            operations: 10,
            probes: 15,
            collisions: 5,
            max_probe_length: 3,
            mean_probe_length: 1.5,
            load_factor: 0.2,
        };
        let b = ProbeStats {
            operations: 30,
            probes: 33,
            collisions: 3,
            max_probe_length: 2,
            mean_probe_length: 1.1,
            load_factor: 0.1,
        };
        let m = a.merge(&b);
        assert_eq!(m.operations, 40);
        assert_eq!(m.probes, 48);
        assert_eq!(m.collisions, 8);
        assert_eq!(m.max_probe_length, 3);
        assert!((m.mean_probe_length - 1.2).abs() < 1e-12);
        assert!((m.load_factor - 0.15).abs() < 1e-12);
        // Merge with the identity leaves counters unchanged.
        let id = ProbeStats::default();
        assert_eq!(a.merge(&id).operations, a.operations);
        assert_eq!(a.merge(&id).max_probe_length, a.max_probe_length);
    }

    #[test]
    fn matches_hashmap_model() {
        use std::collections::HashMap;
        let mut model: HashMap<u64, f64> = HashMap::new();
        let mut t = EdgeTable::new(8);
        // Deterministic pseudo-random op sequence.
        let mut x: u64 = 0x1234_5678;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let key = pack_key(((x >> 40) % 512) as u32, ((x >> 20) % 512) as u32);
            let w = ((x % 1000) as f64) / 100.0;
            t.accumulate(key, w);
            *model.entry(key).or_insert(0.0) += w;
        }
        assert_eq!(t.len(), model.len());
        for (&k, &w) in &model {
            let got = t.get(k).expect("missing key");
            assert!((got - w).abs() < 1e-9 * (1.0 + w.abs()));
        }
    }
}
