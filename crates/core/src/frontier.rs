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
//!   vertex (the remote piggyback, via the `RemoteCache` source
//!   index) — and W2 — a bitwise change in a community's replicated
//!   `Σ_tot`/size snapshot wakes everyone with a live Out-Table row
//!   into it and every member holding an external candidate row
//!   (interior members' scans are constants, so they sleep through
//!   their own community's breathing), plus the solver's self-wake of
//!   each mover, whose label change invalidates its cached scan.
//!
//! - the **eligibility ledger** — a bitset recording which vertices'
//!   cached gain is positive. An ε-throttled vertex may
//!   migrate in a *later* iteration with no further input change, so it
//!   must stay reachable by the UPDATE sweep — but since its inputs are
//!   unchanged, its cached decision is still exact and **re-scanning it
//!   would be pure waste**. The ledger keeps it addressable without
//!   keeping it on the scan frontier; the UPDATE sweep walks the
//!   eligible vertices (in ascending order, same relative order as the
//!   full `0..n_local` sweep) and re-vets each cached move against the
//!   live Gauss-Seidel `Σ_tot` view exactly as the full scan did.
//!
//! Everything here is rank-local and schedule-invariant: the wake set is
//! a function of the migration *set* and the (deterministic) snapshots,
//! never of message delivery order, and both worklists are always
//! processed in ascending vertex order — so the perturbation harness
//! (DESIGN.md §8) holds for the frontier-scheduled solver exactly as it
//! did for the full scan.

use crate::parallel::RowIndex;

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
    /// eligibility ledger do **not** count — their cached decision is
    /// reused without a scan.
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
/// iteration's snapshot diff), [`Frontier::commit`] swaps `pending` into
/// the committed `active` set and rebuilds the sorted [`Frontier::worklist`],
/// the FIND BEST sweep scans that worklist and records each scanned
/// vertex's eligibility (`set_eligible`), and the UPDATE sweep iterates
/// the [`Frontier::eligible_list`] rebuilt by [`Frontier::commit_eligible`].
/// Both worklists are ascending in local-vertex order — the same relative
/// order as the full scan, which the bit-identity argument of
/// DESIGN.md §13 relies on.
pub(crate) struct Frontier {
    local_n: usize,
    /// Committed scan set of the current iteration.
    active: Bitset,
    /// Wakes accumulated for the next iteration.
    pending: Bitset,
    /// The eligibility ledger: vertices whose cached gain clears the
    /// configured threshold. Updated only when a vertex is scanned or
    /// patched — otherwise the cached gain is bitwise unchanged, so the
    /// stale bit is still exact.
    eligible: Bitset,
    /// Scratch: communities whose `Σ_tot`/size snapshot changed this
    /// iteration (global community id space).
    changed: Bitset,
    changed_ids: Vec<u32>,
    /// Scratch: changed communities already patched for the vertex the
    /// adjacency pass is walking (global community id space).
    seen: Bitset,
    /// Scratch: vertices whose own row the W1 drain already probed.
    probed: Bitset,
    /// The committed scan vertices, ascending. Rebuilt by `commit`.
    pub(crate) worklist: Vec<u32>,
    /// The eligible vertices, ascending. Rebuilt by `commit_eligible`.
    pub(crate) eligible_list: Vec<u32>,
    /// Scan patches of this iteration: `(local vertex, changed
    /// candidate community)` pairs for vertices whose only dependency
    /// changes are individual candidate entries. The solver folds just
    /// these candidates over the cached decision instead of re-scanning
    /// the vertex's whole row set — bitwise equal to a full re-scan,
    /// because the f64 lexmax (`total_cmp`, larger-id tie-break) needs
    /// no history when the incumbent entry survives; when the incumbent
    /// itself weakens or vanishes, the patch pass escalates the vertex
    /// to a full re-scan instead. Sorted by `(vertex, community)` and
    /// deduplicated, so the pass can group per vertex and visit
    /// candidates in the full scan's ascending community order.
    pub(crate) patches: Vec<(u32, u32)>,
    /// Wake rule W1 input: `(local vertex, community)` rows that a
    /// relabelled arc left or joined during the last delta application,
    /// duplicates included. Row weights are the one find-best input the
    /// snapshot-diff rule W2 cannot observe — a community that loses one
    /// vertex and gains another of bitwise-equal degree lands its
    /// `Σ_tot`/size back on identical bits while its neighbors' rows
    /// still moved. The next [`Frontier::wake_snapshot_changes`] call
    /// drains this list through the same wake-or-patch classification as
    /// the snapshot diff.
    row_dirty: Vec<(u32, u32)>,
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
            eligible: Bitset::new(local_n),
            changed: Bitset::new(global_n),
            changed_ids: Vec::new(),
            seen: Bitset::new(global_n),
            probed: Bitset::new(local_n),
            worklist: Vec::with_capacity(local_n),
            eligible_list: Vec::new(),
            patches: Vec::new(),
            row_dirty: Vec::new(),
            stats: FrontierStats::default(),
        }
    }

    /// Whether `li` is scheduled for a full re-scan this iteration
    /// (patches are skipped for such vertices — the re-scan supersedes
    /// them). The patch pass runs between [`Frontier::wake_snapshot_changes`]
    /// and [`Frontier::commit`], so the schedule lives in the pending set.
    #[inline]
    pub(crate) fn is_pending(&self, li: usize) -> bool {
        self.pending.contains(li)
    }

    /// Schedules local vertex `li` for the next committed iteration.
    #[inline]
    pub(crate) fn wake(&mut self, li: usize) {
        self.pending.set(li);
    }

    /// Records whether local vertex `li`'s freshly computed gain clears
    /// the move threshold. Called exactly once per scanned vertex per
    /// iteration; unscanned vertices keep their previous bit, which is
    /// still exact because their cached gain is bitwise unchanged.
    #[inline]
    pub(crate) fn set_eligible(&mut self, li: usize, on: bool) {
        if on {
            self.eligible.set(li);
        } else {
            self.eligible.unset(li);
        }
    }

    /// Rebuilds [`Frontier::eligible_list`] (ascending) from the
    /// eligibility ledger. Called after the FIND BEST sweep, before the
    /// UPDATE sweep consumes the list.
    pub(crate) fn commit_eligible(&mut self) {
        // Index decode keeps the UPDATE sweep in ascending vertex order —
        // the same relative order as the full `0..n_local` scan, which
        // the Gauss-Seidel `tot_view` bit-identity relies on.
        let mut list = std::mem::take(&mut self.eligible_list);
        decode_into(&self.eligible.words, &mut list);
        self.eligible_list = list;
    }

    /// Records a `(local vertex, community)` Out-Table row that a
    /// relabelled arc left or joined (wake rule W1, fed by the delta
    /// application). Dirt on a vertex already due for a full re-scan is
    /// dropped: the re-scan supersedes it.
    #[inline]
    pub(crate) fn mark_row_dirty(&mut self, li: usize, c: u32) {
        if !self.pending.contains(li) {
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
    }

    /// Wake rule W2 (DESIGN.md §13): diff the replicated `Σ_tot` and
    /// size snapshots against the previous iteration's — **bitwise**, so
    /// the diff itself can never depend on rounding-mode subtleties or
    /// trip lint rule F1 — and for every changed community `c`:
    ///
    /// (a) wake every local member of `c` that holds a live Out-Table
    /// row into some *other* community. The external-candidate test is
    /// what keeps mature levels cheap: an **interior** vertex — every
    /// live row inside its own community — computes `(m_u = 0,
    /// best = c_u)` no matter what the snapshots say (the candidate loop
    /// never runs), so its cached scan stays exact while its community
    /// breathes. A member's own `Σ_tot` enters the remove term of every
    /// candidate sum, so members with a foot outside the door need the
    /// full re-scan.
    ///
    /// (b) for every local non-member with a live Out-Table row into `c`
    /// (one pass over the arc labels of `rows`): only the single
    /// candidate sum for `c` moved,
    /// so the vertex gets a **scan patch** — the solver re-folds just
    /// that candidate over the cached incumbent, `O(changed rows)`
    /// instead of `O(degree)`, escalating to a full re-scan only when
    /// the cached winner's own entry weakened (the sole case where the
    /// new maximum can hide among the unchanged candidates).
    ///
    /// The call also drains the W1 row-dirty list (rows an arc moved into
    /// or out of under the last delta application — the input the
    /// snapshot diff cannot observe) through the same classification:
    /// own-community row touched → full re-scan unless interior,
    /// anything else → scan patch.
    pub(crate) fn wake_snapshot_changes(
        &mut self,
        prev_tot: &[f64],
        tot: &[f64],
        prev_size: &[f64],
        size: &[f64],
        label: &[u32],
        rows: &RowIndex,
    ) {
        debug_assert_eq!(prev_tot.len(), tot.len());
        debug_assert_eq!(prev_size.len(), size.len());
        self.patches.clear();
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
        // (a) members of changed communities, interior members excluded.
        // The probe stops at the first arc labelled outside `c`.
        // Skipped entirely (an O(n_local) sweep) when no snapshot moved.
        if !self.changed_ids.is_empty() {
            for (li, &c) in label.iter().enumerate() {
                if self.changed.contains(c as usize) && rows.has_external(li, c) {
                    self.pending.set(li);
                }
            }
        }
        // (W1) rows a relabelled arc left or joined. The list repeats a
        // row once per arc that moved it; the patch list below is
        // deduplicated anyway, and `probed` runs each vertex's O(degree)
        // interior probe at most once. Index-based loop: `row_dirty` and
        // `pending` are both fields of self.
        for i in 0..self.row_dirty.len() {
            let (lv, c) = self.row_dirty[i];
            let li = lv as usize;
            if label[li] == c {
                // The own-community row moved: `w_own` feeds the remove
                // term of every candidate sum, so the whole cached fold
                // is stale — unless the vertex is interior (no live
                // external row), whose scan is the constant `(0, c_u)`.
                if !self.pending.contains(li) && !self.probed.contains(li) {
                    self.probed.set(li);
                    if rows.has_external(li, c) {
                        self.pending.set(li);
                    }
                }
            } else if !self.pending.contains(li) {
                // A candidate entry moved (or died, or was born): defer
                // to the patch pass, which re-folds it in O(1) — and
                // escalates to a full re-scan itself when the *cached
                // winner's* entry weakened (only then can the new
                // maximum hide among the unchanged candidates). Vertices
                // already pending are re-scanned in full anyway.
                self.patches.push((lv, c));
            }
        }
        self.row_dirty.clear();
        self.probed.clear();
        // (b) vertices adjacent to changed communities: one pass over the
        // arc labels of every vertex not already due for a full re-scan.
        // A member's own-community row was already decided (with the
        // interior test) by the membership scan above; any other row
        // into a changed community is an external candidate whose gain
        // term moved — hand it to the patch pass, once per vertex (the
        // `seen` marks are cleared through the vertex's new patches).
        // Skipped when no snapshot moved.
        if !self.changed_ids.is_empty() {
            for (li, &own) in label.iter().enumerate() {
                if self.pending.contains(li) {
                    continue;
                }
                let first = self.patches.len();
                for &c in rows.labels(li) {
                    let ci = c as usize;
                    if c != own && self.changed.contains(ci) && !self.seen.contains(ci) {
                        self.seen.set(ci);
                        self.patches.push((li as u32, c));
                    }
                }
                for i in first..self.patches.len() {
                    self.seen.unset(self.patches[i].1 as usize);
                }
            }
        }
        // Ascending (vertex, community), deduplicated: W1 and W2 can
        // nominate the same candidate (the fold is idempotent, but the
        // work counter should not double-charge), and the patch fold must
        // visit a vertex's changed candidates in the same relative order
        // as the full scan's ascending candidate sweep.
        self.patches.sort_unstable();
        self.patches.dedup();
        // Reset the scratch bitset through the id list (cheaper than a
        // full-word sweep when few communities changed).
        for i in 0..self.changed_ids.len() {
            let c = self.changed_ids[i] as usize;
            self.changed.words[c / 64] &= !(1u64 << (c % 64));
        }
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
    fn index(rows: &[&[u32]]) -> RowIndex {
        let mut offsets = vec![0];
        let mut flat = Vec::new();
        for r in rows {
            flat.extend_from_slice(r);
            offsets.push(flat.len());
        }
        let weights = vec![1.0; flat.len()];
        RowIndex::from_arcs(offsets, flat, weights)
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
        f.wake_snapshot_changes(&prev, &tot, &prev, &size, &label, &rows);
        // Nobody is labelled 3; only vertex 2 is adjacent to it — a
        // single candidate sum moved, so it gets a patch, not a wake
        // (the solver's patch pass escalates if 3 was its winner).
        assert_eq!(f.patches, vec![(2, 3)]);
        f.commit(false);
        assert!(f.worklist.is_empty());

        // A size change in community 2: member 0 has an external row
        // (into 5) so it wakes; member 1 has no rows at all — its scan
        // is the constant (0, c_u), so it stays asleep.
        let mut size2 = prev.clone();
        size2[2] = 3.0;
        let mut f = Frontier::new(4, 6);
        f.wake_snapshot_changes(&prev, &prev, &prev, &size2, &label, &rows);
        f.commit(false);
        assert_eq!(f.worklist, vec![0]);
        assert!(f.patches.is_empty());
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
        f.wake_snapshot_changes(&prev, &tot, &prev, &prev, &label, &rows);
        f.commit(false);
        assert!(f.worklist.is_empty());
        assert_eq!(f.patches, vec![(0, 3)]);

        // Both candidates change: one patch group, ascending community
        // order — the winner-escalation decision needs the gain values,
        // so it lives in the solver's patch pass, not here.
        let mut tot = prev.clone();
        tot[2] = 2.0;
        tot[3] = 2.0;
        let mut f = Frontier::new(2, 4);
        f.wake_snapshot_changes(&prev, &tot, &prev, &prev, &label, &rows);
        assert_eq!(f.patches, vec![(0, 2), (0, 3)]);
        assert!(!f.is_pending(0));

        // A pending vertex's full re-scan supersedes its patches: W1
        // dirt on a candidate row of an already-woken vertex is dropped.
        let mut f = Frontier::new(2, 4);
        f.wake(0);
        f.mark_row_dirty(0, 3);
        f.wake_snapshot_changes(&prev, &prev, &prev, &prev, &label, &rows);
        assert!(f.patches.is_empty(), "pending vertices are not patched");
        assert!(f.is_pending(0));
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
        f.mark_row_dirty(0, 0);
        f.wake_snapshot_changes(&snap, &snap, &snap, &snap, &label, &rows);
        assert!(f.patches.is_empty());
        f.commit(false);
        assert_eq!(f.worklist, vec![0]);

        // Interior vertex: its scan is the constant (0, c_u), so even an
        // own-row change leaves the cached decision exact.
        let mut f = Frontier::new(2, 3);
        f.mark_row_dirty(1, 1);
        f.wake_snapshot_changes(&snap, &snap, &snap, &snap, &label, &rows);
        f.commit(false);
        assert!(f.worklist.is_empty());
        assert!(f.patches.is_empty());

        // Candidate row moved (all snapshots cancelled bitwise): patch.
        let mut f = Frontier::new(2, 3);
        f.mark_row_dirty(0, 2);
        f.wake_snapshot_changes(&snap, &snap, &snap, &snap, &label, &rows);
        assert_eq!(f.patches, vec![(0, 2)]);
        f.commit(false);
        assert!(f.worklist.is_empty());
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
        f.wake_snapshot_changes(&prev, &tot, &prev, &prev, &label, &rows);
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
        f.wake_snapshot_changes(&snap, &snap, &snap, &snap, &label, &rows);
        f.commit(false);
        assert!(f.worklist.is_empty());
        assert_eq!(f.stats.skipped_scans, 8);
    }

    #[test]
    fn eligibility_ledger_is_sticky_and_sorted() {
        let mut f = Frontier::new(70, 70);
        f.set_eligible(69, true);
        f.set_eligible(3, true);
        f.set_eligible(64, true);
        f.commit_eligible();
        assert_eq!(f.eligible_list, vec![3, 64, 69]);
        // Unscanned vertices keep their bit across rebuilds (sticky);
        // a rescan that finds no gain clears it.
        f.set_eligible(64, false);
        f.commit_eligible();
        assert_eq!(f.eligible_list, vec![3, 69]);
        // The ledger is independent of the scan frontier.
        f.wake(5);
        f.commit(false);
        assert_eq!(f.worklist, vec![5]);
        f.commit_eligible();
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
