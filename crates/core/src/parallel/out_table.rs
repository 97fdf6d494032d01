//! The Out-Table of Algorithm 3 and the label cache that keeps it
//! current (DESIGN.md §10).

use super::level::RankLevel;
use louvain_hash::unpack_key;

/// The Out-Table, held implicitly: each local vertex's in-arcs with the
/// cached community of every arc's source, plus the index that makes
/// delta-based state propagation O(migrations) (DESIGN.md §10).
///
/// Vertex `li` owns the arc segment `offsets[li]..offsets[li + 1]`, its
/// In-Table entries `(s, li)` in ascending source order. Row `w_{li→c}`
/// is not stored: it is the sum of the weights of the segment's arcs
/// labelled `c`, folded in arc order from 0.0 whenever a reader needs it
/// ([`OutTable::gather`], [`OutTable::weight`]). A row is live exactly
/// when some arc carries its label, so liveness needs no bookkeeping and
/// a row's weight is a function of the current labels alone. Weights are
/// non-negative, so a live row sums to exactly 0.0 only when all its arcs
/// weigh 0.0; the consumers' `w != 0.0` sentinel skips it as it skips an
/// absent row.
///
/// `srcs`/`src_offsets`/`pairs` serve the *receiver* side: a delta
/// `(u, c_new)` is applied by looking up `u` in `srcs` and relabelling
/// each of `u`'s arcs. Every arc of a source always carries that
/// source's label — all arcs start at the identity label and a delta
/// relabels them together — so the label of the source's first arc is
/// the source's cached community. `out_srcs` serves the *sender* side:
/// the sorted neighbor sources of each local vertex, i.e. exactly the
/// ranks that hold arcs of it, so a migration is announced to precisely
/// the owners that need it.
///
/// The whole structure is derived from the In-Table, which is immutable
/// within a level — so the table's epoch *is* the level, and GRAPH
/// RECONSTRUCTION (which replaces the In-Table) is the one event that
/// invalidates it.
pub(crate) struct OutTable {
    /// Sorted distinct source vertices appearing in the local In-Table.
    srcs: Vec<u32>,
    /// CSR offsets into `pairs`, one slice per entry of `srcs`.
    src_offsets: Vec<usize>,
    /// `(local vertex, arc position)` of each arc a source feeds,
    /// grouped by source.
    pairs: Vec<(u32, u32)>,
    /// Segment bounds, one slice per local vertex (`local_n + 1` entries).
    offsets: Vec<usize>,
    /// Cached community of each arc's source.
    label: Vec<u32>,
    /// In-Table weight `w(s, d)` of each arc.
    w: Vec<f64>,
    /// Source of each arc: per segment, the sorted neighbor sources of
    /// the local vertex.
    out_srcs: Vec<u32>,
    /// Self-loop weight `a_uu` per local vertex (0.0 without one): the
    /// In-Table entry `(u, u)`, which the own-row term subtracts.
    self_loop: Vec<f64>,
}

impl OutTable {
    /// Builds the table for `lvl` (two passes over the sorted In-Table,
    /// no sort). Labels start at the identity mapping because every level
    /// begins with singleton communities `c = v` — known without
    /// communication — so the Out-Table starts as the transposed In-Table
    /// with each arc labelled by its source (STATE PROPAGATION,
    /// Algorithm 3, level-start edition: zero messages).
    pub(crate) fn build(lvl: &RankLevel, rank: usize) -> Self {
        let part = &lvl.part;
        let arcs = &lvl.in_table;
        let local_n = part.local_count(rank);
        assert!(
            arcs.len() <= u32::MAX as usize,
            "arc positions overflow u32"
        );
        let mut srcs: Vec<u32> = Vec::new();
        let mut src_offsets: Vec<usize> = Vec::new();
        let mut offsets = vec![0usize; local_n + 1];
        let mut self_loop = vec![0.0f64; local_n];
        for (j, &(key, w)) in arcs.iter().enumerate() {
            let (s, d) = unpack_key(key);
            if srcs.last() != Some(&s) {
                srcs.push(s);
                src_offsets.push(j);
            }
            let li = part.local_index(d);
            offsets[li + 1] += 1;
            if s == d {
                self_loop[li] = w;
            }
        }
        src_offsets.push(arcs.len());
        // Transpose: the arcs of each local vertex. The arcs are visited
        // in ascending source order, so each segment comes out sorted by
        // source and no per-segment sort is needed; `pairs` records where
        // each arc landed, in the source-grouped order of the In-Table.
        for li in 0..local_n {
            offsets[li + 1] += offsets[li];
        }
        let mut cursor = offsets[..local_n].to_vec();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(arcs.len());
        let mut out_srcs = vec![0u32; arcs.len()];
        let mut w = vec![0.0f64; arcs.len()];
        for &(key, weight) in arcs {
            let (s, d) = unpack_key(key);
            let li = part.local_index(d);
            let j = cursor[li];
            cursor[li] += 1;
            pairs.push((li as u32, j as u32));
            out_srcs[j] = s;
            w[j] = weight;
        }
        // At the identity labelling every arc is labelled by its source.
        Self {
            srcs,
            src_offsets,
            pairs,
            offsets,
            label: out_srcs.clone(),
            w,
            out_srcs,
            self_loop,
        }
    }

    /// Arc range of local vertex `li`.
    #[inline]
    fn segment(&self, li: usize) -> std::ops::Range<usize> {
        self.offsets[li]..self.offsets[li + 1]
    }

    /// Cached source labels of local vertex `li`'s arcs, in arc order.
    #[inline]
    fn labels(&self, li: usize) -> &[u32] {
        &self.label[self.segment(li)]
    }

    /// Sorted neighbor sources of local vertex `li`.
    #[inline]
    pub(super) fn out_srcs(&self, li: usize) -> &[u32] {
        &self.out_srcs[self.segment(li)]
    }

    /// Self-loop weight `a_uu` of local vertex `li`.
    #[inline]
    pub(crate) fn self_loop(&self, li: usize) -> f64 {
        self.self_loop[li]
    }

    /// Sums every live row of local vertex `li` into `scratch`, whose
    /// previous contents are discarded.
    #[inline]
    pub(crate) fn gather(&self, li: usize, scratch: &mut RowScratch) {
        scratch.begin();
        self.gather_into(li, scratch, |_| true);
    }

    /// Sums into `scratch` the rows of local vertex `li` whose label
    /// `admit` accepts, skipping every other arc; `admit` is tested
    /// before the accumulator is touched, so a cheap filter keeps a walk
    /// over a long segment cheap. A row [`RowScratch::admit`] opened
    /// earlier is summed in place (`admit` must accept it). Each summed
    /// row folds its arcs in arc order from 0.0, so it is bitwise the row
    /// [`OutTable::gather`] computes.
    #[inline]
    pub(crate) fn gather_into(
        &self,
        li: usize,
        scratch: &mut RowScratch,
        admit: impl Fn(u32) -> bool,
    ) {
        let seg = self.segment(li);
        for (&c, &w) in self.label[seg.clone()].iter().zip(&self.w[seg]) {
            if !admit(c) {
                continue;
            }
            let slot = &mut scratch.slot[c as usize];
            if slot.0 != scratch.epoch {
                *slot = (scratch.epoch, scratch.rows.len() as u32);
                scratch.rows.push((c, 0.0));
            }
            scratch.rows[slot.1 as usize].1 += w;
        }
    }

    /// Weight of row `(li, c)`; 0.0 when the row is dead. Folds in the
    /// same order as [`OutTable::gather`], so the two agree bitwise.
    #[inline]
    pub(crate) fn weight(&self, li: usize, c: u32) -> f64 {
        let seg = self.segment(li);
        let mut sum = 0.0;
        for (&e, &w) in self.label[seg.clone()].iter().zip(&self.w[seg]) {
            if e == c {
                sum += w;
            }
        }
        sum
    }

    /// Whether local vertex `li` holds a live row into a community other
    /// than `c` — false exactly when `li` is interior to `c` (or has no
    /// arcs).
    #[inline]
    pub(crate) fn has_external(&self, li: usize, c: u32) -> bool {
        self.labels(li).iter().any(|&e| e != c)
    }

    /// Every live row as `(local vertex, community, weight)`, ascending
    /// by vertex, then community, at a level with `n` communities.
    pub(super) fn all_rows(&self, n: usize) -> Vec<(u32, u32, f64)> {
        let mut scratch = RowScratch::new(n);
        let mut rows = Vec::new();
        for li in 0..self.offsets.len() - 1 {
            self.gather(li, &mut scratch);
            let start = rows.len();
            rows.extend(scratch.rows.iter().map(|&(c, w)| (li as u32, c, w)));
            rows[start..].sort_unstable_by_key(|&(_, c, _)| c);
        }
        rows
    }

    /// Applies a batch of received `(vertex, new_community)` deltas to
    /// the arc labels, reporting each relabelled arc to `dirty` as
    /// `(local vertex, old community, new community)`: the two rows it
    /// moved between, wake rule W1's input.
    ///
    /// The result is independent of delivery order: each vertex migrates
    /// at most once per sweep and only its owner announces it, so the
    /// deltas of one batch touch disjoint labels, and the frontier
    /// consumes the reported rows as a set. (The v1 full rebuild
    /// re-announces unmoved labels; those are no-ops.)
    pub(super) fn apply_deltas(
        &mut self,
        deltas: &[(u32, u32)],
        mut dirty: impl FnMut(u32, u32, u32),
    ) {
        for &(u, c_new) in deltas {
            // Only owners of neighbors of `u` receive its delta, so the
            // lookup always hits; guard anyway rather than unwrap (P1).
            let Ok(idx) = self.srcs.binary_search(&u) else {
                continue;
            };
            // Every arc of `u` carries its label: read the first one.
            let c_old = self.label[self.pairs[self.src_offsets[idx]].1 as usize];
            if c_old == c_new {
                continue;
            }
            for &(li, j) in &self.pairs[self.src_offsets[idx]..self.src_offsets[idx + 1]] {
                self.label[j as usize] = c_new;
                dirty(li, c_old, c_new);
            }
        }
    }
}

/// Collision-free accumulator for [`OutTable::gather`]: a slot per
/// global community id points at the community's row, and is valid only
/// when stamped with the current epoch, so starting a new vertex costs
/// nothing. The rows themselves sit in one short dense list.
pub(crate) struct RowScratch {
    /// `(epoch stamp, index into rows)` per community.
    slot: Vec<(u32, u32)>,
    epoch: u32,
    /// The gathered rows as `(community, weight)`, in first-seen arc
    /// order.
    pub(crate) rows: Vec<(u32, f64)>,
}

impl RowScratch {
    /// Scratch for a level with `n` communities.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            slot: vec![(0, 0); n],
            epoch: 0,
            rows: Vec::new(),
        }
    }

    /// Invalidates every slot.
    #[inline]
    pub(crate) fn begin(&mut self) {
        self.rows.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slot.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// Opens row `c` at 0.0 unless it is already held, so the next
    /// [`OutTable::gather_into`] that admits `c` sums it in place (a dead
    /// row stays at 0.0).
    #[inline]
    pub(crate) fn admit(&mut self, c: u32) {
        if !self.holds(c) {
            self.slot[c as usize] = (self.epoch, self.rows.len() as u32);
            self.rows.push((c, 0.0));
        }
    }

    /// Whether row `c` has been opened since the last `begin`.
    #[inline]
    pub(crate) fn holds(&self, c: u32) -> bool {
        self.slot[c as usize].0 == self.epoch
    }

    /// Gathered weight of row `c`; 0.0 when the row is dead.
    #[inline]
    pub(crate) fn get(&self, c: u32) -> f64 {
        match self.slot[c as usize] {
            (stamp, i) if stamp == self.epoch => self.rows[i as usize].1,
            _ => 0.0,
        }
    }
}

/// Counting sort of `items` by index (`0..n`): afterwards bucket `i` is
/// `flat[off[i]..off[i + 1]]`, in no particular order within the bucket.
/// One pass to count, one to place — no comparison across buckets.
pub(crate) fn group_by_index<T: Copy + Default>(
    items: &[(u32, T)],
    n: usize,
    off: &mut Vec<usize>,
    flat: &mut Vec<T>,
) {
    off.clear();
    off.resize(n + 1, 0);
    for &(i, _) in items {
        off[i as usize] += 1;
    }
    // Inclusive prefix sums make `off[i]` the end of bucket `i`; placing
    // each item at `--off[i]` then leaves `off[i]` at the bucket's start.
    for i in 1..n {
        off[i] += off[i - 1];
    }
    off[n] = items.len();
    flat.clear();
    flat.resize(items.len(), T::default());
    for &(i, x) in items {
        off[i as usize] -= 1;
        flat[off[i as usize]] = x;
    }
}

#[cfg(test)]
impl OutTable {
    /// A table over arcs grouped into per-vertex segments by `offsets`,
    /// each arc carrying its source's label and its weight, with no
    /// receiver index.
    pub(crate) fn from_arcs(offsets: Vec<usize>, label: Vec<u32>, w: Vec<f64>) -> Self {
        debug_assert_eq!(offsets.last().copied(), Some(label.len()));
        debug_assert_eq!(label.len(), w.len());
        Self {
            srcs: Vec::new(),
            src_offsets: vec![0],
            pairs: Vec::new(),
            offsets,
            label,
            w,
            out_srcs: Vec::new(),
            self_loop: Vec::new(),
        }
    }

    /// Cached community of `srcs[idx]`: the label of its first arc.
    fn source_label(&self, idx: usize) -> u32 {
        self.label[self.pairs[self.src_offsets[idx]].1 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::partition::AnyPartition;
    use louvain_graph::partition1d::ModuloPartition;
    use louvain_hash::{pack_key, EdgeTable};

    /// Builds a single-rank [`RankLevel`] over `edges` for white-box
    /// tests of the Out-Table.
    fn single_rank_level(n: usize, edges: &[(u32, u32, f64)]) -> RankLevel {
        let part = AnyPartition::Modulo(ModuloPartition::new(n, 1));
        let mut in_table = EdgeTable::new(edges.len() * 2 + 8);
        for &(u, v, w) in edges {
            in_table.accumulate(pack_key(u, v), w);
            in_table.accumulate(pack_key(v, u), w);
        }
        let mut in_table: Vec<(u64, f64)> = in_table.iter().collect();
        in_table.sort_unstable_by_key(|&(key, _)| key);
        RankLevel::singletons(part, in_table, 0)
    }

    /// Reference Out-Table: a from-scratch rebuild of `lvl`'s In-Table
    /// under the table's current labels, accumulated in key order — so
    /// each row folds its arcs in ascending source order, as a gather
    /// does.
    fn rebuild_reference(lvl: &RankLevel, table: &OutTable) -> EdgeTable {
        let mut t = EdgeTable::new(lvl.in_table.len().max(8));
        for &(key, w) in &lvl.in_table {
            let (s, d) = unpack_key(key);
            let idx = table.srcs.binary_search(&s).expect("source in table");
            t.accumulate(pack_key(d, table.source_label(idx)), w);
        }
        t
    }

    /// Every live row of the Out-Table as `((vertex, community), weight
    /// bits)`, ascending; the single-rank test levels make `li ==
    /// vertex`.
    fn live_rows(lvl: &RankLevel, table: &OutTable) -> Vec<(u64, u64)> {
        table
            .all_rows(lvl.n)
            .into_iter()
            .map(|(li, c, w)| (pack_key(li, c), w.to_bits()))
            .collect()
    }

    /// The cached community of every source, in `srcs` order.
    fn source_labels(table: &OutTable) -> Vec<u32> {
        (0..table.srcs.len())
            .map(|idx| table.source_label(idx))
            .collect()
    }

    /// The W1 rows a batch must report: both rows of every arc whose
    /// source changes label, as a sorted set.
    fn expected_dirt(lvl: &RankLevel, table: &OutTable, batch: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut dirt = Vec::new();
        for &(u, c_new) in batch {
            let Ok(idx) = table.srcs.binary_search(&u) else {
                continue;
            };
            let c_old = table.source_label(idx);
            for &(key, _) in &lvl.in_table {
                let (s, d) = unpack_key(key);
                if s == u && c_old != c_new {
                    dirt.push((d, c_old));
                    dirt.push((d, c_new));
                }
            }
        }
        dirt.sort_unstable();
        dirt.dedup();
        dirt
    }

    /// Applies `batches` to one table in delivery order and to another in
    /// reverse order, asserting after every batch that both equal a
    /// from-scratch rebuild under the cached labels bit for bit, that
    /// `weight` agrees with the gathered rows bitwise, that the interior
    /// test matches the rows, and that the dirty set is exactly the rows
    /// the batch's arcs left and joined. A batch that dirties nothing
    /// must leave the labels and rows exactly as they were.
    fn assert_cache_matches_rebuild(lvl: &RankLevel, batches: &[Vec<(u32, u32)>]) {
        let mut table = OutTable::build(lvl, 0);
        let mut reversed = OutTable::build(lvl, 0);
        for (bi, batch) in batches.iter().enumerate() {
            let want_dirt = expected_dirt(lvl, &table, batch);
            let (labels_before, rows_before) = (table.label.clone(), live_rows(lvl, &table));
            let (mut dirt, mut rev_dirt) = (Vec::new(), Vec::new());
            table.apply_deltas(batch, |li, a, b| dirt.extend([(li, a), (li, b)]));
            let rev_batch: Vec<(u32, u32)> = batch.iter().rev().copied().collect();
            reversed.apply_deltas(&rev_batch, |li, a, b| rev_dirt.extend([(li, a), (li, b)]));
            for d in [&mut dirt, &mut rev_dirt] {
                d.sort_unstable();
                d.dedup();
            }
            assert_eq!(dirt, want_dirt, "batch {bi}: dirty set");
            assert_eq!(rev_dirt, want_dirt, "batch {bi}: reversed dirty set");
            assert_eq!(
                source_labels(&table),
                source_labels(&reversed),
                "batch {bi}: labels"
            );
            assert_eq!(table.label, reversed.label, "batch {bi}: arc labels");
            let rows = live_rows(lvl, &table);
            assert_eq!(rows, live_rows(lvl, &reversed), "batch {bi}: reversed rows");
            if want_dirt.is_empty() {
                assert_eq!(table.label, labels_before, "batch {bi}: no-op relabelled");
                assert_eq!(rows, rows_before, "batch {bi}: no-op moved rows");
            }
            let mut want: Vec<(u64, u64)> = rebuild_reference(lvl, &table)
                .iter()
                .map(|(key, w)| (key, w.to_bits()))
                .collect();
            want.sort_unstable();
            assert_eq!(rows, want, "batch {bi}: rows diverged from the rebuild");
            for &(key, w_bits) in &rows {
                let (li, c) = unpack_key(key);
                let w = table.weight(li as usize, c);
                assert_eq!(w.to_bits(), w_bits, "batch {bi}: weight({li}, {c})");
            }
            for li in 0..lvl.label.len() {
                let cs: Vec<u32> = rows
                    .iter()
                    .map(|&(key, _)| unpack_key(key))
                    .filter(|&(d, _)| d as usize == li)
                    .map(|(_, c)| c)
                    .collect();
                for c in 0..lvl.n as u32 {
                    assert_eq!(
                        table.has_external(li, c),
                        cs.iter().any(|&e| e != c),
                        "batch {bi}: has_external({li}, {c})"
                    );
                }
            }
        }
    }

    /// Mixed-magnitude weights whose sums depend on the fold order.
    const MIXED_EDGES: [(u32, u32, f64); 5] = [
        (0, 1, 1e16),
        (0, 2, 1.0),
        (0, 3, 0.3),
        (4, 1, 0.1),
        (4, 2, 2.5e7),
    ];

    /// Delta batches over [`MIXED_EDGES`]: rows are born, shared,
    /// vacated and re-joined. Vacating row `(0, 4)` after `1e16` and
    /// `1.0` shared it is the case where patched `+w`/`-w` arithmetic
    /// would leave a residue. The last batch re-announces the one before
    /// it, as the v1 full rebuild does: a no-op that dirties nothing.
    const MIXED_BATCHES: [&[(u32, u32)]; 5] = [
        &[(1, 4), (2, 4), (3, 4)],
        &[(1, 3), (2, 3)],
        &[(2, 0), (3, 0), (1, 0)],
        &[(1, 4)],
        &[(1, 4)],
    ];

    #[test]
    fn gathered_rows_match_a_rebuild_on_mixed_batches() {
        let lvl = single_rank_level(5, &MIXED_EDGES);
        let batches: Vec<Vec<(u32, u32)>> = MIXED_BATCHES.iter().map(|b| b.to_vec()).collect();
        assert_cache_matches_rebuild(&lvl, &batches);
        // The vacated row reads exact 0.0, and its re-join starts from it.
        let mut table = OutTable::build(&lvl, 0);
        for batch in &batches[..3] {
            table.apply_deltas(batch, |_, _, _| {});
        }
        assert_eq!(table.weight(0, 4).to_bits(), 0.0f64.to_bits());
        table.apply_deltas(&[(1, 4)], |_, _, _| {});
        assert_eq!(table.weight(0, 4).to_bits(), 1e16f64.to_bits());
    }

    #[test]
    fn group_by_index_buckets_every_item_under_its_index() {
        let items = [(3u32, 'a'), (0, 'b'), (3, 'c'), (1, 'd'), (3, 'e')];
        let (mut off, mut flat) = (Vec::new(), Vec::new());
        group_by_index(&items, 5, &mut off, &mut flat);
        assert_eq!(off.len(), 6);
        let bucket = |i: usize| {
            let mut b = flat[off[i]..off[i + 1]].to_vec();
            b.sort_unstable();
            b
        };
        assert_eq!(
            (0..5).map(bucket).collect::<Vec<_>>(),
            [vec!['b'], vec!['d'], vec![], vec!['a', 'c', 'e'], vec![]]
        );
        // The buffers are reused: a second, empty grouping leaves no trace.
        group_by_index(&[] as &[(u32, char)], 2, &mut off, &mut flat);
        assert_eq!((off, flat), (vec![0, 0, 0], vec![]));
    }

    /// Edge weights spanning 23 orders of magnitude, so the row sums
    /// round differently under any change of fold order.
    const ORACLE_WEIGHTS: [f64; 6] = [1e16, 1.0, 0.3, 0.1, 2.5e7, 1e-7];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn gathered_rows_match_a_rebuild_on_random_batches(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0usize..6), 1..40),
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u32..12), 0..10),
                1..8,
            ),
        ) {
            let edges: Vec<(u32, u32, f64)> =
                edges.iter().map(|&(u, v, i)| (u, v, ORACLE_WEIGHTS[i])).collect();
            // A vertex migrates at most once per sweep: keep each
            // vertex's first delta in a batch.
            let batches: Vec<Vec<(u32, u32)>> = batches
                .into_iter()
                .map(|b| {
                    let mut seen = [false; 12];
                    b.into_iter()
                        .filter(|&(u, _)| !std::mem::replace(&mut seen[u as usize], true))
                        .collect()
                })
                .collect();
            assert_cache_matches_rebuild(&single_rank_level(12, &edges), &batches);
        }
    }
}
