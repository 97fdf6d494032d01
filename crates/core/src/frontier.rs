//! Active-vertex frontier scheduling for the REFINE inner loop
//! (DESIGN.md §13).
//!
//! After the first few sweeps of the local-move phase only a shrinking
//! set of vertices can still improve modularity, yet Algorithm 4 as
//! written re-scans every local vertex every iteration. This module
//! maintains two per-rank structures the solver consults instead:
//!
//! - the **scan frontier** — a bitset plus a sorted worklist over local
//!   vertices whose FIND BEST *inputs* may have changed since their last
//!   scan. Only these vertices are re-scanned; everyone else's cached
//!   `m_u`/`best` is still bitwise what a fresh scan would compute. The
//!   governing invariant (proved in DESIGN.md §13) is
//!
//!   > the scan frontier is a superset of the vertices whose best-move
//!   > decision could have changed since they were last scanned,
//!
//!   maintained by two deterministic wake rules: W1 — a received
//!   state-propagation delta wakes the local neighbors of the migrated
//!   vertex (the remote piggyback, via the `OutTable` source
//!   index) — and W2 — a bitwise change in a community's replicated
//!   `Σ_tot`/size snapshot wakes every member holding an external
//!   candidate row (interior members' scans are constants, so they
//!   sleep through their own community's breathing) and hands everyone
//!   else with a live Out-Table row into it a scan patch — plus the
//!   solver's self-wake of each mover, whose label change invalidates
//!   its cached scan.
//!
//! - the **eligible list** — the vertices whose cached gain `m_u` is
//!   positive, rebuilt from the gains after every FIND BEST sweep. An
//!   ε-throttled vertex may migrate in a *later* iteration with no
//!   further input change, so it must stay reachable by the UPDATE
//!   sweep — but since its inputs are unchanged, its cached decision is
//!   still exact and **re-scanning it would be pure waste**. The list
//!   keeps it addressable without keeping it on the scan frontier; the
//!   UPDATE sweep walks it (in ascending order, same relative order as
//!   the full `0..n_local` sweep) and re-vets each cached move against
//!   the live Gauss-Seidel `Σ_tot` view exactly as the full scan did.
//!
//! Everything here is rank-local and schedule-invariant: the wake set is
//! a function of the migration *set* and the (deterministic) snapshots,
//! never of message delivery order, and both worklists are always
//! processed in ascending vertex order — so the perturbation harness
//! (DESIGN.md §8) holds for the frontier-scheduled solver exactly as it
//! did for the full scan.

use crate::parallel::{group_by_index, OutTable, RowScratch};

/// Frontier counters of one solver run, summed over ranks, levels and
/// inner iterations (also exported as the trace counters
/// `frontier.active_vertices`, `frontier.reactivations` and
/// `frontier.skipped_scans`, and per workload in `BENCH_louvain.json`).
///
/// `active_vertices + skipped_scans` equals the vertex scans the full
/// scan would have performed, so the scan-work saving is directly
/// readable off the two counters:
///
/// ```
/// use louvain_core::parallel::{ParallelConfig, ParallelLouvain};
/// use louvain_graph::gen::planted::{generate_planted, PlantedConfig};
///
/// let (edges, _) = generate_planted(
///     &PlantedConfig { communities: 6, community_size: 30, p_in: 0.4, p_out: 0.01 },
///     11,
/// );
/// let r = ParallelLouvain::new(ParallelConfig::with_ranks(4)).run(&edges);
/// let f = r.frontier;
/// // The first sweep scans everyone; later sweeps skip settled vertices.
/// assert!(f.skipped_scans > 0, "frontier never drained");
/// let full_scan_work = f.active_vertices + f.skipped_scans;
/// assert!(f.active_vertices < full_scan_work);
/// // Per-iteration occupancy of the first level shrinks monotonically
/// // in work: iteration 1 is the whole level.
/// assert!(!r.frontier_occupancy.is_empty());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Vertices scanned by FIND BEST COMMUNITY (scan-worklist occupancy,
    /// summed over iterations). The full scan's equivalent is
    /// `Σ_iterations n_local`. ε-throttled vertices waiting on the
    /// eligible list do **not** count — their cached decision is reused
    /// without a scan.
    pub active_vertices: u64,
    /// Vertices re-activated by a wake rule after having left the scan
    /// frontier (level-start seeding of the whole vertex set is not
    /// counted).
    pub reactivations: u64,
    /// Vertex scans skipped versus the full-scan schedule
    /// (`Σ_iterations (n_local − |worklist|)`).
    pub skipped_scans: u64,
}

impl FrontierStats {
    /// Element-wise sum (saturating), used by the driver to fold the
    /// per-rank counters.
    #[must_use]
    pub fn sum(&self, other: &Self) -> Self {
        Self {
            active_vertices: self.active_vertices.saturating_add(other.active_vertices),
            reactivations: self.reactivations.saturating_add(other.reactivations),
            skipped_scans: self.skipped_scans.saturating_add(other.skipped_scans),
        }
    }
}

/// Fixed-capacity bitset over local vertex indices.
#[derive(Clone, Debug)]
struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0u64; n.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    fn unset(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    fn set_all(&mut self, n: usize) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        // Clear the tail bits past `n` so decoding yields no phantom
        // vertices.
        let tail = n % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }
}

/// The per-rank, per-level active-vertex scheduler (DESIGN.md §13).
///
/// Lifecycle per inner iteration: wake rules accumulate into `pending`
/// (during the previous iteration's update/propagation and this
/// iteration's snapshot diff, which also hands the solver each patched
/// vertex's candidate group), [`Frontier::commit`] swaps `pending` into
/// the committed `active` set and rebuilds the sorted [`Frontier::worklist`],
/// the FIND BEST sweep scans that worklist, and the UPDATE sweep iterates
/// the [`Frontier::eligible_list`] that [`Frontier::commit_eligible`]
/// rebuilds from the gains.
/// Both worklists are ascending in local-vertex order — the same relative
/// order as the full scan, which the bit-identity argument of
/// DESIGN.md §13 relies on.
pub(crate) struct Frontier {
    local_n: usize,
    /// Committed scan set of the current iteration.
    active: Bitset,
    /// Wakes accumulated for the next iteration.
    pending: Bitset,
    /// Scratch: communities whose `Σ_tot`/size snapshot changed this
    /// iteration (global community id space).
    changed: Bitset,
    changed_ids: Vec<u32>,
    /// Scratch: the W1-dirty candidate rows of the vertex the pass is
    /// at (global community id space).
    marked: Bitset,
    /// The committed scan vertices, ascending. Rebuilt by `commit`.
    pub(crate) worklist: Vec<u32>,
    /// The eligible vertices, ascending. Rebuilt by `commit_eligible`.
    pub(crate) eligible_list: Vec<u32>,
    /// Wake rule W1 input: `(local vertex, community)` candidate rows
    /// that a relabelled arc left or joined during the last delta
    /// application, duplicates included. Row weights are the one
    /// find-best input the snapshot-diff rule W2 cannot observe — a
    /// community that loses one vertex and gains another of
    /// bitwise-equal degree lands its `Σ_tot`/size back on identical bits
    /// while its neighbors' rows still moved. The next
    /// [`Frontier::wake_snapshot_changes`] call drains this list through
    /// the same wake-or-patch classification as the snapshot diff.
    row_dirty: Vec<(u32, u32)>,
    /// W1 input for own rows: the vertices whose own-community row a
    /// relabelled arc left or joined.
    own_dirty: Bitset,
    /// Scratch: `row_dirty` grouped by vertex (`dirty_off`, `dirty_c`).
    dirty_off: Vec<usize>,
    dirty_c: Vec<u32>,
    pub(crate) stats: FrontierStats,
}

/// Decodes a bitset into its sorted index list (ascending local-vertex
/// order — the scan order the determinism argument needs).
fn decode_into(words: &[u64], out: &mut Vec<u32>) {
    out.clear();
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            out.push((wi * 64 + bit) as u32);
            w &= w - 1;
        }
    }
}

impl Frontier {
    /// A frontier over `local_n` local vertices at a level with
    /// `global_n` communities. Starts empty; the caller seeds iteration 1
    /// with [`Frontier::wake_all`].
    pub(crate) fn new(local_n: usize, global_n: usize) -> Self {
        Self {
            local_n,
            active: Bitset::new(local_n),
            pending: Bitset::new(local_n),
            changed: Bitset::new(global_n),
            changed_ids: Vec::new(),
            marked: Bitset::new(global_n),
            worklist: Vec::with_capacity(local_n),
            eligible_list: Vec::new(),
            row_dirty: Vec::new(),
            own_dirty: Bitset::new(local_n),
            dirty_off: Vec::new(),
            dirty_c: Vec::new(),
            stats: FrontierStats::default(),
        }
    }

    /// Schedules local vertex `li` for the next committed iteration.
    #[inline]
    pub(crate) fn wake(&mut self, li: usize) {
        self.pending.set(li);
    }

    /// Rebuilds [`Frontier::eligible_list`] from the local vertices'
    /// cached gains `m_u`: every vertex with a positive gain, ascending —
    /// the same relative order as the full `0..n_local` sweep, which the
    /// Gauss-Seidel `tot_view` bit-identity relies on. Called after the
    /// FIND BEST sweep, before the UPDATE sweep consumes the list.
    pub(crate) fn commit_eligible(&mut self, m_u: &[f64]) {
        debug_assert_eq!(m_u.len(), self.local_n);
        self.eligible_list.clear();
        let eligible = m_u.iter().enumerate().filter(|&(_, &g)| g > 0.0);
        self.eligible_list.extend(eligible.map(|(li, _)| li as u32));
    }

    /// Records Out-Table row `(li, c)` of a vertex in community `c_u`
    /// as one a relabelled arc left or joined (wake rule W1, fed by the
    /// delta application): a bit for the own row, a list entry for a
    /// candidate row. Dirt on a vertex already due for a full re-scan is
    /// dropped: the re-scan supersedes it.
    #[inline]
    pub(crate) fn mark_row_dirty(&mut self, li: usize, c_u: u32, c: u32) {
        if self.pending.contains(li) {
            return;
        }
        if c == c_u {
            self.own_dirty.set(li);
        } else {
            self.row_dirty.push((li as u32, c));
        }
    }

    /// Schedules every local vertex (level start, and the tests'
    /// `full_rescan` oracle that reduces the scheduler to the full
    /// scan). A full re-scan of everyone supersedes any accumulated
    /// row-dirty info.
    pub(crate) fn wake_all(&mut self) {
        self.pending.set_all(self.local_n);
        self.row_dirty.clear();
        self.own_dirty.clear();
    }

    /// Wake rule W2 (DESIGN.md §13): diff the replicated `Σ_tot` and
    /// size snapshots against the previous iteration's — **bitwise**, so
    /// the diff itself can never depend on rounding-mode subtleties or
    /// trip lint rule F1 — and drain the W1 row-dirty list, in one
    /// ascending pass over the local vertices not already pending.
    ///
    /// A vertex whose own-community row or own community's snapshot
    /// changed is woken for a full re-scan — `w_own` and `Σ_tot(c_u)`
    /// feed the remove term of every candidate sum — unless it is
    /// **interior** (no live row outside `c_u`): its candidate loop never
    /// runs, so its cached `(m_u = 0, best = c_u)` stays exact while its
    /// community breathes. That exclusion is what keeps mature levels
    /// cheap.
    ///
    /// Any other vertex gets a **scan patch** when some candidate entry
    /// moved: its W1-dirty candidate rows, plus its live rows into
    /// changed communities (one candidate's insert term moved each). One
    /// walk of its arcs ([`OutTable::gather_into`], restricted to the own
    /// label, the dirty rows and the changed communities) yields the
    /// group, deduplicated, with fresh row sums: `scratch.rows[0]` is the
    /// own row, the rest the distinct candidates, each bitwise the value
    /// a full gather computes. `patch(li, scratch)` re-folds the group
    /// over the cached incumbent, `O(group)` instead of `O(degree)`, and
    /// returns whether that fold resolved — `false` when the new maximum
    /// may hide among the unchanged candidates, which wakes the vertex
    /// for a full re-scan instead.
    pub(crate) fn wake_snapshot_changes(
        &mut self,
        snapshots: [&[f64]; 4],
        label: &[u32],
        rows: &OutTable,
        scratch: &mut RowScratch,
        mut patch: impl FnMut(usize, &RowScratch) -> bool,
    ) {
        let [prev_tot, tot, prev_size, size] = snapshots;
        debug_assert_eq!(prev_tot.len(), tot.len());
        debug_assert_eq!(prev_size.len(), size.len());
        self.changed_ids.clear();
        for c in 0..tot.len() {
            // The size snapshot enters FIND BEST only through the
            // singleton-guard predicate `size == 1.0` — a community
            // whose size moved without flipping that predicate (and
            // whose `Σ_tot` held bitwise) changed no scan input at all.
            let tot_moved = prev_tot[c].to_bits() != tot[c].to_bits();
            #[allow(clippy::float_cmp)]
            // lint: allow(F1) — community sizes are exact small-integer-valued f64 counters
            let guard_flip = (prev_size[c] == 1.0) != (size[c] == 1.0);
            if (tot_moved || guard_flip) && !self.changed.contains(c) {
                self.changed.set(c);
                self.changed_ids.push(c as u32);
            }
        }
        // W1's rows, grouped by vertex. The list repeats a row once per
        // arc that moved it; the row scratch deduplicates.
        group_by_index(
            &self.row_dirty,
            self.local_n,
            &mut self.dirty_off,
            &mut self.dirty_c,
        );
        self.row_dirty.clear();
        let any_changed = !self.changed_ids.is_empty();
        debug_assert_eq!(label.len(), self.local_n);
        for (li, &own) in label.iter().enumerate() {
            let dirty = &self.dirty_c[self.dirty_off[li]..self.dirty_off[li + 1]];
            if self.pending.contains(li) {
                continue;
            }
            if (self.changed.contains(own as usize) || self.own_dirty.contains(li))
                && rows.has_external(li, own)
            {
                self.pending.set(li);
                continue;
            }
            if !any_changed && dirty.is_empty() {
                continue;
            }
            scratch.begin();
            scratch.admit(own);
            for &c in dirty {
                scratch.admit(c);
                self.marked.set(c as usize);
            }
            let (changed, marked) = (&self.changed, &self.marked);
            let admit =
                |c: u32| c == own || changed.contains(c as usize) || marked.contains(c as usize);
            rows.gather_into(li, scratch, admit);
            for &c in dirty {
                self.marked.unset(c as usize);
            }
            if scratch.rows.len() == 1 {
                continue;
            }
            if !patch(li, scratch) {
                self.pending.set(li);
            }
        }
        // Reset the scratch bitset through the id list (cheaper than a
        // full-word sweep when few communities changed).
        for &c in &self.changed_ids {
            self.changed.unset(c as usize);
        }
        self.own_dirty.clear();
    }

    /// Promotes the pending wakes to the committed active set, rebuilds
    /// the sorted worklist, and updates the counters. `first` marks the
    /// level-start seeding, which is not counted as re-activation.
    pub(crate) fn commit(&mut self, first: bool) {
        if !first {
            let mut reactivated = 0u64;
            for (p, a) in self.pending.words.iter().zip(&self.active.words) {
                reactivated += (p & !a).count_ones() as u64;
            }
            self.stats.reactivations = self.stats.reactivations.saturating_add(reactivated);
        }
        std::mem::swap(&mut self.active, &mut self.pending);
        self.pending.clear();
        let mut list = std::mem::take(&mut self.worklist);
        decode_into(&self.active.words, &mut list);
        self.worklist = list;
        self.stats.active_vertices = self
            .stats
            .active_vertices
            .saturating_add(self.worklist.len() as u64);
        self.stats.skipped_scans = self
            .stats
            .skipped_scans
            .saturating_add((self.local_n - self.worklist.len()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worklist_is_sorted_and_deduplicated() {
        let mut f = Frontier::new(130, 130);
        f.wake(129);
        f.wake(0);
        f.wake(64);
        f.wake(0);
        f.commit(true);
        assert_eq!(f.worklist, vec![0, 64, 129]);
        assert_eq!(f.stats.active_vertices, 3);
        assert_eq!(f.stats.skipped_scans, 127);
        assert_eq!(f.stats.reactivations, 0, "seeding is not re-activation");
    }

    #[test]
    fn wake_all_covers_every_vertex_and_masks_the_tail() {
        for n in [1usize, 63, 64, 65, 128] {
            let mut f = Frontier::new(n, n);
            f.wake_all();
            f.commit(true);
            assert_eq!(f.worklist.len(), n);
            assert_eq!(f.worklist.first(), Some(&0));
            assert_eq!(f.worklist.last(), Some(&((n - 1) as u32)));
        }
    }

    #[test]
    fn reactivation_counts_only_fresh_wakes() {
        let mut f = Frontier::new(10, 10);
        f.wake_all();
        f.commit(true);
        // 3 stays active, 7 is fresh relative to {} — but both were
        // active last iteration, so waking them is not a re-activation.
        f.wake(3);
        f.wake(7);
        f.commit(false);
        assert_eq!(f.stats.reactivations, 0);
        // Now 3 went inactive; waking it again is a re-activation.
        f.wake(5);
        f.commit(false);
        assert_eq!(f.stats.reactivations, 1, "5 was not active before");
        f.wake(3);
        f.commit(false);
        assert_eq!(f.stats.reactivations, 2);
    }

    /// A row index over local vertices `0..rows.len()`: vertex `li`
    /// holds one live row into each community of `rows[li]` (ascending),
    /// from one unit-weight arc.
    fn index(rows: &[&[u32]]) -> OutTable {
        let mut offsets = vec![0];
        let mut flat = Vec::new();
        for r in rows {
            flat.extend_from_slice(r);
            offsets.push(flat.len());
        }
        let weights = vec![1.0; flat.len()];
        OutTable::from_arcs(offsets, flat, weights)
    }

    /// Runs the snapshot diff and returns every candidate group it hands
    /// to the patch pass as `(vertex, candidate)` pairs, ascending by
    /// vertex and, within a group, by candidate. Each group must open
    /// with the vertex's own row and carry every row's fresh sum, bitwise
    /// [`OutTable::weight`]; `resolved` is the patch pass's verdict.
    fn diff_with(
        f: &mut Frontier,
        snapshots: [&[f64]; 4],
        label: &[u32],
        rows: &OutTable,
        resolved: bool,
    ) -> Vec<(u32, u32)> {
        let mut scratch = RowScratch::new(snapshots[1].len());
        let mut groups = Vec::new();
        f.wake_snapshot_changes(snapshots, label, rows, &mut scratch, |li, g| {
            assert_eq!(g.rows[0].0, label[li], "vertex {li}: own row first");
            for &(c, w) in &g.rows {
                assert_eq!(w.to_bits(), rows.weight(li, c).to_bits(), "row ({li}, {c})");
            }
            let mut cs: Vec<u32> = g.rows[1..].iter().map(|&(c, _)| c).collect();
            cs.sort_unstable();
            groups.extend(cs.into_iter().map(|c| (li as u32, c)));
            resolved
        });
        groups
    }

    fn diff(
        f: &mut Frontier,
        snapshots: [&[f64]; 4],
        label: &[u32],
        rows: &OutTable,
    ) -> Vec<(u32, u32)> {
        diff_with(f, snapshots, label, rows, true)
    }

    #[test]
    fn snapshot_diff_wakes_members_and_patches_adjacent_vertices() {
        // 4 local vertices, labels over 6 communities.
        let label = vec![2u32, 2, 4, 5];
        // Vertex 0 has a live row into community 5, vertex 2 into 3.
        let rows = index(&[&[5], &[], &[3], &[]]);
        let prev = vec![1.0f64, 1.0, 1.0, 1.0, 1.0, 1.0];
        let mut tot = prev.clone();
        tot[3] = 2.0; // community 3 changed
        let size = prev.clone();
        let mut f = Frontier::new(4, 6);
        let patches = diff(&mut f, [&prev, &tot, &prev, &size], &label, &rows);
        // Nobody is labelled 3; only vertex 2 is adjacent to it — a
        // single candidate sum moved, so it gets a patch, not a wake
        // (the solver's patch pass escalates if 3 was its winner).
        assert_eq!(patches, vec![(2, 3)]);
        f.commit(false);
        assert!(f.worklist.is_empty());

        // A size change in community 2: member 0 has an external row
        // (into 5) so it wakes; member 1 has no rows at all — its scan
        // is the constant (0, c_u), so it stays asleep.
        let mut size2 = prev.clone();
        size2[2] = 3.0;
        let mut f = Frontier::new(4, 6);
        let patches = diff(&mut f, [&prev, &prev, &prev, &size2], &label, &rows);
        f.commit(false);
        assert_eq!(f.worklist, vec![0]);
        assert!(patches.is_empty());
    }

    #[test]
    fn candidate_changes_become_grouped_sorted_patches() {
        // Vertex 0 holds rows into communities 2 and 3.
        let label = vec![0u32, 0];
        let rows = index(&[&[2, 3], &[]]);
        let prev = vec![1.0f64, 1.0, 1.0, 1.0];

        // One candidate changes: one patch, no wake.
        let mut tot = prev.clone();
        tot[3] = 2.0;
        let mut f = Frontier::new(2, 4);
        let patches = diff(&mut f, [&prev, &tot, &prev, &prev], &label, &rows);
        f.commit(false);
        assert!(f.worklist.is_empty());
        assert_eq!(patches, vec![(0, 3)]);

        // Both candidates change: one patch group, ascending community
        // order — the winner-escalation decision needs the gain values,
        // so it lives in the solver's patch pass, not here.
        let mut tot = prev.clone();
        tot[2] = 2.0;
        tot[3] = 2.0;
        let mut f = Frontier::new(2, 4);
        let patches = diff(&mut f, [&prev, &tot, &prev, &prev], &label, &rows);
        assert_eq!(patches, vec![(0, 2), (0, 3)]);
        assert!(!f.pending.contains(0));

        // W1 dirt (twice over) and a snapshot change name the same
        // candidate: it is patched — and counted — once.
        let mut tot = prev.clone();
        tot[3] = 2.0;
        let mut f = Frontier::new(2, 4);
        f.mark_row_dirty(0, label[0], 3);
        f.mark_row_dirty(0, label[0], 3);
        let patches = diff(&mut f, [&prev, &tot, &prev, &prev], &label, &rows);
        assert_eq!(patches, vec![(0, 3)]);

        // The patch pass's escalation verdict wakes the vertex.
        let mut f = Frontier::new(2, 4);
        let patches = diff_with(&mut f, [&prev, &tot, &prev, &prev], &label, &rows, false);
        assert_eq!(patches, vec![(0, 3)]);
        f.commit(false);
        assert_eq!(f.worklist, vec![0]);

        // A pending vertex's full re-scan supersedes its patches: W1
        // dirt on a candidate row of an already-woken vertex is dropped.
        let mut f = Frontier::new(2, 4);
        f.wake(0);
        f.mark_row_dirty(0, label[0], 3);
        let patches = diff(&mut f, [&prev, &prev, &prev, &prev], &label, &rows);
        assert!(patches.is_empty(), "pending vertices are not patched");
        assert!(f.pending.contains(0));
        f.commit(false);
        assert_eq!(f.worklist, vec![0]);
    }

    #[test]
    fn row_dirt_wakes_own_rows_and_patches_candidate_rows() {
        // Vertex 0 straddles (own row into 0, candidate row into 2);
        // vertex 1 is interior (only its own row is live).
        let label = vec![0u32, 1];
        let rows = index(&[&[0, 2], &[1]]);
        let snap = vec![1.0f64, 1.0, 1.0];

        // Own-community row moved: the remove term of every candidate
        // sum is stale — full re-scan for the straddler.
        let mut f = Frontier::new(2, 3);
        f.mark_row_dirty(0, label[0], 0);
        let patches = diff(&mut f, [&snap, &snap, &snap, &snap], &label, &rows);
        assert!(patches.is_empty());
        f.commit(false);
        assert_eq!(f.worklist, vec![0]);

        // Interior vertex: its scan is the constant (0, c_u), so even an
        // own-row change leaves the cached decision exact.
        let mut f = Frontier::new(2, 3);
        f.mark_row_dirty(1, label[1], 1);
        let patches = diff(&mut f, [&snap, &snap, &snap, &snap], &label, &rows);
        f.commit(false);
        assert!(f.worklist.is_empty());
        assert!(patches.is_empty());

        // Candidate row moved (all snapshots cancelled bitwise): patch.
        let mut f = Frontier::new(2, 3);
        f.mark_row_dirty(0, label[0], 2);
        let patches = diff(&mut f, [&snap, &snap, &snap, &snap], &label, &rows);
        assert_eq!(patches, vec![(0, 2)]);
        f.commit(false);
        assert!(f.worklist.is_empty());

        // A candidate row the arcs left is dead, but still patched: the
        // solver must drop its cached entry (it reads 0.0).
        let mut f = Frontier::new(2, 3);
        f.mark_row_dirty(1, label[1], 0);
        let patches = diff(&mut f, [&snap, &snap, &snap, &snap], &label, &rows);
        assert_eq!(patches, vec![(1, 0)]);
    }

    #[test]
    fn interior_members_stay_asleep_but_straddlers_wake() {
        // Vertices 0 and 1 are members of community 2. Vertex 0 is
        // interior (its only live row is into its own community); vertex
        // 1 straddles (own row plus a row into community 3).
        let label = vec![2u32, 2];
        let rows = index(&[&[2], &[2, 3]]);
        let prev = vec![1.0f64, 1.0, 1.0, 1.0];
        let mut tot = prev.clone();
        tot[2] = 5.0; // the vertices' own community breathes
        let mut f = Frontier::new(2, 4);
        let patches = diff(&mut f, [&prev, &tot, &prev, &prev], &label, &rows);
        assert!(patches.is_empty());
        f.commit(false);
        assert_eq!(
            f.worklist,
            vec![1],
            "interior member 0 must not re-scan; straddler 1 must"
        );
    }

    #[test]
    fn unchanged_snapshots_wake_nobody() {
        let label = vec![0u32; 8];
        let rows = index(&[&[] as &[u32]; 8]);
        let snap = vec![0.25f64; 8];
        let mut f = Frontier::new(8, 8);
        assert!(diff(&mut f, [&snap, &snap, &snap, &snap], &label, &rows).is_empty());
        f.commit(false);
        assert!(f.worklist.is_empty());
        assert_eq!(f.stats.skipped_scans, 8);
    }

    #[test]
    fn eligible_list_is_the_sorted_positive_gains() {
        let mut f = Frontier::new(70, 70);
        let mut m_u = vec![0.0f64; 70];
        m_u[69] = 0.5;
        m_u[3] = 1e-300;
        m_u[64] = 2.0;
        m_u[10] = -1.0;
        f.commit_eligible(&m_u);
        assert_eq!(f.eligible_list, vec![3, 64, 69]);
        // A rebuild reflects the current gains only.
        m_u[64] = 0.0;
        f.commit_eligible(&m_u);
        assert_eq!(f.eligible_list, vec![3, 69]);
        // The list is independent of the scan frontier.
        f.wake(5);
        f.commit(false);
        assert_eq!(f.worklist, vec![5]);
        f.commit_eligible(&m_u);
        assert_eq!(f.eligible_list, vec![3, 69]);
    }

    #[test]
    fn stats_sum_is_elementwise() {
        let a = FrontierStats {
            active_vertices: 10,
            reactivations: 2,
            skipped_scans: 5,
        };
        let b = FrontierStats {
            active_vertices: 1,
            reactivations: 1,
            skipped_scans: 1,
        };
        assert_eq!(
            a.sum(&b),
            FrontierStats {
                active_vertices: 11,
                reactivations: 3,
                skipped_scans: 6,
            }
        );
    }
}
