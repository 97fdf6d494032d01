//! A chained-bucket table used for the hash load-balance analysis of
//! Figure 6.
//!
//! The open-addressing [`crate::table::EdgeTable`] is what the algorithm
//! runs on; this *binned* table makes the paper's "bin length" metric
//! directly observable: every key hashes to one of `m` bins and collisions
//! chain inside the bin, so average/maximum bin length measure exactly how
//! well a hash function load-balances — independent of probing policy.

use crate::hashfn::HashFn64;
use crate::stats::BinLengthStats;

/// A hash table with `m` bins, each an in-place chain of `(key, weight)`
/// entries.
#[derive(Clone, Debug)]
pub struct BinnedTable<H: HashFn64> {
    bins: Vec<Vec<(u64, f64)>>,
    len: usize,
    hash: H,
}

impl<H: HashFn64> BinnedTable<H> {
    /// Creates a table with exactly `m` bins (`m ≥ 1`).
    #[must_use]
    pub fn new(m: usize, hash: H) -> Self {
        Self {
            bins: vec![Vec::new(); m.max(1)],
            len: 0,
            hash,
        }
    }

    /// Number of distinct keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no keys are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key` with weight `w`, or accumulates into the existing
    /// entry. Returns `true` if newly inserted.
    pub fn accumulate(&mut self, key: u64, w: f64) -> bool {
        let bin = self.hash.bin(key, self.bins.len());
        let chain = &mut self.bins[bin];
        for entry in chain.iter_mut() {
            if entry.0 == key {
                entry.1 += w;
                return false;
            }
        }
        chain.push((key, w));
        self.len += 1;
        true
    }

    /// Looks up the accumulated weight for `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<f64> {
        let bin = self.hash.bin(key, self.bins.len());
        self.bins[bin]
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, w)| w)
    }

    /// Bin-length statistics (Figure 6 b/c/d). Average is over non-empty
    /// bins only, matching footnote 3 of the paper.
    #[must_use]
    pub fn bin_stats(&self) -> BinLengthStats {
        let mut nonempty = 0usize;
        let mut max_len = 0usize;
        let mut total = 0usize;
        for b in &self.bins {
            if !b.is_empty() {
                nonempty += 1;
                total += b.len();
                max_len = max_len.max(b.len());
            }
        }
        BinLengthStats {
            entries: total,
            nonempty_bins: nonempty,
            avg_bin_length: if nonempty == 0 {
                0.0
            } else {
                total as f64 / nonempty as f64
            },
            max_bin_length: max_len,
        }
    }

    /// Entries landing in each of `slices` contiguous bin ranges — the
    /// per-thread entry counts of Figure 6a (bins are partitioned uniformly
    /// across the threads of a node).
    #[must_use]
    pub fn entries_per_slice(&self, slices: usize) -> Vec<usize> {
        let slices = slices.max(1);
        let m = self.bins.len();
        let mut out = vec![0usize; slices];
        for (i, b) in self.bins.iter().enumerate() {
            let s = i * slices / m;
            out[s.min(slices - 1)] += b.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashfn::{ConcatHash, FibonacciHash};
    use crate::key::pack_key;

    #[test]
    fn insert_get_accumulate() {
        let mut t = BinnedTable::new(64, FibonacciHash);
        assert!(t.accumulate(pack_key(1, 2), 1.0));
        assert!(!t.accumulate(pack_key(1, 2), 0.5));
        assert_eq!(t.get(pack_key(1, 2)), Some(1.5));
        assert_eq!(t.get(pack_key(9, 9)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bin_stats_consistent() {
        let mut t = BinnedTable::new(16, FibonacciHash);
        for i in 0..200u32 {
            t.accumulate(pack_key(i, i * 31), 1.0);
        }
        let s = t.bin_stats();
        assert_eq!(s.entries, 200);
        assert!(s.nonempty_bins <= 16);
        assert!(s.max_bin_length >= s.entries / 16);
        assert!(s.avg_bin_length >= 1.0);
        assert!(s.avg_bin_length <= s.max_bin_length as f64);
        // Sum over slices equals total entries.
        let slices = t.entries_per_slice(4);
        assert_eq!(slices.iter().sum::<usize>(), 200);
    }

    #[test]
    fn concat_hash_produces_longer_bins_on_structured_keys() {
        // Structured keys: (u << 32)|v with few distinct v values — the
        // concat hash maps everything by v mod m.
        let m = 1024;
        let mut fib = BinnedTable::new(m, FibonacciHash);
        let mut con = BinnedTable::new(m, ConcatHash);
        for u in 0..2048u32 {
            for v in 0..4u32 {
                fib.accumulate(pack_key(u, v), 1.0);
                con.accumulate(pack_key(u, v), 1.0);
            }
        }
        let (fs, cs) = (fib.bin_stats(), con.bin_stats());
        assert_eq!(fs.entries, cs.entries);
        assert!(
            fs.max_bin_length < cs.max_bin_length,
            "fib {} vs concat {}",
            fs.max_bin_length,
            cs.max_bin_length
        );
    }

    #[test]
    fn one_bin_degenerate_case() {
        let mut t = BinnedTable::new(1, FibonacciHash);
        for i in 0..10u32 {
            t.accumulate(pack_key(i, 0), 1.0);
        }
        let s = t.bin_stats();
        assert_eq!(s.nonempty_bins, 1);
        assert_eq!(s.max_bin_length, 10);
        assert_eq!(s.avg_bin_length, 10.0);
    }
}
