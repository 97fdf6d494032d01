//! REFINE (Algorithm 4): the inner loop of one level — FIND BEST
//! COMMUNITY, the ε threshold, UPDATE COMMUNITY INFORMATION, STATE
//! PROPAGATION (Algorithm 3) and the modularity reduction.

use super::level::RankLevel;
use super::out_table::{group_by_index, OutTable, RowScratch};
use super::{LoopState, Msg, ParallelConfig};
use crate::dq;
use crate::frontier::Frontier;
use crate::heuristic::{MIN_MOVE_FRACTION, MIN_Q_IMPROVEMENT};
use crate::timing::{Phase, PhaseMeter};
use louvain_graph::partition::AnyPartition;
use louvain_runtime::{Exchange, RankCtx};

/// Bins of the global gain histogram that translates ε into `ΔQ̂`.
const HISTOGRAM_BINS: usize = 64;

/// STATE PROPAGATION (Algorithm 3), steady-state edition: instead of
/// rebuilding the Out-Table from scratch, each rank announces only the
/// vertices that migrated this sweep as `(vertex, new_community)` deltas
/// into `ex`, once per rank that holds an arc of the vertex, however many
/// such arcs that rank holds. The receiver relabels the arcs of the
/// migrated vertex in its Out-Table through [`OutTable::apply_deltas`]
/// (DESIGN.md §10). A delta's weight is `0.0`, which tells it apart from
/// the Σ_tot deltas that share REFINE's UPDATE exchange
/// ([`is_migration`]). Returns the announcements this collapsed (arcs
/// whose rank had already been told) and the announcements sent to other
/// ranks.
pub(crate) fn announce_migrations(
    ex: &mut Exchange<'_, '_, Msg>,
    rank: usize,
    part: &AnyPartition,
    table: &OutTable,
    migrated: &[(u32, u32)],
) -> (u64, u64) {
    let p = part.num_ranks();
    let (mut collapsed, mut remote) = (0u64, 0u64);
    // `told[dest] == i`: migrated vertex `i` already reaches `dest`.
    let mut told = vec![usize::MAX; p];
    for (i, &(u, c_new)) in migrated.iter().enumerate() {
        debug_assert!(i == 0 || migrated[i - 1].0 < u, "migrated not ascending");
        for &s in table.out_srcs(part.local_index(u)) {
            let dest = part.owner(s);
            if told[dest] == i {
                collapsed += 1;
            } else {
                told[dest] = i;
            }
        }
        let msg = Msg {
            a: u,
            b: c_new,
            w: 0.0,
        };
        for (dest, &last) in told.iter().enumerate() {
            if last == i {
                ex.send(dest, msg);
                remote += u64::from(dest != rank);
            }
        }
    }
    if !migrated.is_empty() {
        // One sample per phase this rank announced in (a migrated vertex
        // has an arc, so it is announced somewhere): a rank-local
        // program-order tally, so schedule-invariant like every field.
        louvain_trace::count("delta.phase_dedup_hits", collapsed);
    }
    (collapsed, remote)
}

/// Whether `m`, received from REFINE's UPDATE exchange, is a migration
/// announcement rather than a Σ_tot delta. A Σ_tot delta carries `±k_u`
/// of a mover, and every mover has `k_u > 0`: a vertex moves only for a
/// positive gain, which only a row of positive weight offers, and that
/// row's arcs count toward `k_u`. So only an announcement weighs `0.0`.
#[inline]
#[allow(clippy::float_cmp)]
fn is_migration(m: &Msg) -> bool {
    // lint: allow(F1) — announcements carry an exact 0.0, Σ_tot deltas ±k_u ≠ 0
    m.w == 0.0
}

/// Gathers the replicated `(Σ_tot, size)` snapshots (global community id
/// → value) in one allgather of each owner's dense local pairs, laid out
/// in the modulo partition order, plus every rank's `extra` summed in
/// rank order from 0.0, the fold of `allreduce_sum_vec`. Without `pairs`
/// only `extra` ships, and both snapshots come back empty.
fn gather_snapshot<const E: usize>(
    ctx: &RankCtx<'_, Msg>,
    lvl: &RankLevel,
    extra: [f64; E],
    pairs: bool,
) -> (Vec<f64>, Vec<f64>, [f64; E]) {
    // Communities whose pairs rank r ships: all it owns, or none.
    let owned = |r: usize| if pairs { lvl.part.local_count(r) } else { 0 };
    let local: Vec<f64> = lvl.tot[..owned(ctx.rank())]
        .iter()
        .zip(&lvl.size)
        .flat_map(|(&t, &z)| [t, f64::from(z)])
        .chain(extra)
        .collect();
    let gathered = ctx.allgather_f64(&local);
    drop(local);
    // Rank r's block is offsets[r]..offsets[r + 1], its `extra` last.
    let (mut offsets, mut sums) = (vec![0usize; ctx.num_ranks() + 1], [0.0f64; E]);
    for r in 0..ctx.num_ranks() {
        offsets[r + 1] = offsets[r] + 2 * owned(r) + E;
        let tail = &gathered[offsets[r + 1] - E..offsets[r + 1]];
        sums.iter_mut().zip(tail).for_each(|(sum, &x)| *sum += x);
    }
    debug_assert_eq!(offsets[ctx.num_ranks()], gathered.len());
    let n = if pairs { lvl.n() } else { 0 };
    let (mut tot, mut size) = (vec![0.0f64; n], vec![0.0f64; n]);
    for c in 0..n {
        let r = lvl.part.owner(c as u32);
        let i = offsets[r] + 2 * lvl.part.local_index(c as u32);
        (tot[c], size[c]) = (gathered[i], gathered[i + 1]);
    }
    (tot, size, sums)
}

/// The `(gain, community)` lexicographic order of the best-move fold:
/// `total_cmp` on the gain, larger community id breaking exact ties.
/// Community ids are distinct within one vertex's candidate set, so this
/// is a strict total order and the fold is order-independent.
#[inline]
fn lex_gt(g1: f64, c1: u32, g2: f64, c2: u32) -> bool {
    g1.total_cmp(&g2).then(c1.cmp(&c2)).is_gt()
}

/// Depth of the per-vertex candidate summary kept for the patch pass.
const SUMMARY_K: usize = 4;

/// Exact-prefix candidate summary (DESIGN.md §13). Invariant: the first
/// `v` slots of `e` are, in descending `(gain, id)` lexicographic order,
/// *exactly* the top `v` contributing entries of the vertex's cached
/// best-move fold (the sentinel `(0.0, c_u)` included), and every other
/// contributing entry is lexicographically ≤ `bound`. A full scan fills
/// the whole prefix; a patch group re-folds the changed entries together
/// with the surviving prefix and keeps however much of the result still
/// clears the bound — so winner demotions resolve in O(group) as long as
/// the churn has not eaten through the whole prefix, and only then does
/// the vertex escalate to a full re-scan.
#[derive(Clone, Copy)]
struct CandSummary {
    e: [(f64, u32); SUMMARY_K],
    v: u8,
    bound: (f64, u32),
}

impl CandSummary {
    fn empty() -> Self {
        Self {
            e: [(f64::NEG_INFINITY, 0); SUMMARY_K],
            v: 0,
            bound: (f64::NEG_INFINITY, 0),
        }
    }

    /// The summary holding only the sentinel `(0.0, c_u)`: the seed of
    /// every fold, and the whole fold of a vertex with no contributing
    /// candidates, where nothing is hiding below it.
    fn sentinel(c_u: u32) -> Self {
        let mut s = Self::empty();
        s.e[0] = (0.0, c_u);
        s.v = 1;
        s
    }

    /// Sorted insert of one contributing entry. Entry ids are distinct,
    /// so the `(gain, id)` order is strict and the fold result does not
    /// depend on the fold order. Entries pushed off the bottom are
    /// ≤ the final last slot, which `resolve` folds into the bound.
    #[inline]
    fn fold(&mut self, g: f64, c: u32) {
        let filled = self.v as usize;
        let i = self.e[..filled]
            .iter()
            .position(|&(g2, c2)| lex_gt(g, c, g2, c2))
            .unwrap_or(filled);
        if i < SUMMARY_K {
            let upto = filled.min(SUMMARY_K - 1);
            for j in (i..upto).rev() {
                self.e[j + 1] = self.e[j];
            }
            self.e[i] = (g, c);
            if filled < SUMMARY_K {
                self.v = (filled + 1) as u8;
            }
        }
    }

    /// Resolves a fold — the sentinel, the fresh entries and the cached
    /// prefix entries outside them — against the cached summary's
    /// `bound` on every entry the fold did not see: `None` when the
    /// fold's max falls short of it (the new maximum may hide among the
    /// unchanged candidates), else the new exact-prefix summary.
    fn resolve(mut self, bound: (f64, u32)) -> Option<Self> {
        // A `-∞` bound means the cached fold enumerated every
        // contributing entry (or there is no cached fold: a full scan),
        // so nothing is hiding below the prefix.
        let bounded = bound.0.is_finite();
        if bounded && lex_gt(bound.0, bound.1, self.e[0].0, self.e[0].1) {
            return None;
        }
        // The fold entries that clear the bound are exactly the top of
        // the new entry set (no hidden entry can interleave above them —
        // pairs are unique, so a hidden entry equal to the bound still
        // loses to a fold entry at the bound). Entries below stay
        // covered: hidden ones by the old bound, fold overflow by the
        // last slot when the prefix is full.
        if bounded {
            let filled = self.v as usize;
            self.v = (0..filled)
                .take_while(|&i| !lex_gt(bound.0, bound.1, self.e[i].0, self.e[i].1))
                .count() as u8;
        }
        self.bound = if (self.v as usize) == SUMMARY_K {
            self.e[SUMMARY_K - 1]
        } else {
            bound
        };
        Some(self)
    }
}

/// FIND BEST's per-vertex kernel over one iteration's replicated
/// snapshots. The full scan and the patch pass share its one fold, so a
/// patched entry is bitwise the entry a re-scan would fold.
struct GainKernel<'a> {
    tot_snap: &'a [f64],
    size_snap: &'a [f64],
    s: f64,
    use_heuristic: bool,
}

impl GainKernel<'_> {
    /// FIND BEST's one fold (DESIGN.md §13) for a vertex of degree `k_u`
    /// and self-loop weight `a_uu` in community `c_u`: the sentinel
    /// `(0.0, c_u)`, the fresh entry of every candidate row in `rows`
    /// (whose own row feeds the remove term), and every prefix entry of
    /// the cached summary `summ` that `rows` does not hold — unchanged,
    /// so its cached value is still bitwise what a re-scan would
    /// compute. Every entry outside the fold is lexicographically ≤ the
    /// cached bound, so the fold's max is the true new max whenever it
    /// reaches the bound; then the result replaces `summ` and its gain
    /// `m_u`. A full scan gathers every row over [`CandSummary::empty`],
    /// whose `-∞` bound always resolves. Returns whether the fold
    /// resolved; when it did not, the new maximum may hide among the
    /// unchanged candidates and the vertex needs a full re-scan.
    fn refold(
        &self,
        c_u: u32,
        k_u: f64,
        a_uu: f64,
        rows: &RowScratch,
        summ: &mut CandSummary,
        m_u: &mut f64,
    ) -> bool {
        let w_own = rows.get(c_u) - a_uu;
        let remove_u = dq::remove_gain(w_own, k_u, self.tot_snap[c_u as usize], self.s);
        let mut f = CandSummary::sentinel(c_u);
        // The best move is the lexicographic max over (gain, community
        // id) — order-independent, so any candidate order selects the
        // identical candidate (the id tie-break the perturbation harness
        // forced). Demoted entries cascade down the summary, keeping the
        // exact top-`SUMMARY_K` of the fold for the patch pass.
        for &(c, w) in &rows.rows {
            if c == c_u {
                continue;
            }
            // A removed or guard-skipped entry contributes nothing.
            if let Some(gain) = self.gain(c_u, remove_u, k_u, c, w) {
                f.fold(gain, c);
            }
        }
        // Cached entries that `rows` holds were refolded above; a patch
        // group always holds `c_u`, whose sentinel seeds the fold.
        for &(g, c) in &summ.e[..summ.v as usize] {
            if !rows.holds(c) {
                f.fold(g, c);
            }
        }
        let resolved = f.resolve(summ.bound);
        if let Some(f) = resolved {
            *m_u = f.e[0].0;
            *summ = f;
        }
        resolved.is_some()
    }

    /// The fold entry of candidate `c`, reached over a row of weight `w`,
    /// for a vertex of degree `k_u` in community `c_u` whose removal gain
    /// is `remove_u`; `None` when the candidate contributes nothing.
    #[inline]
    fn gain(&self, c_u: u32, remove_u: f64, k_u: f64, c: u32, w: f64) -> Option<f64> {
        // A live row of zero-weight arcs sums to exactly 0.0; it offers
        // no gain.
        #[allow(clippy::float_cmp)]
        // lint: allow(F1) — a zero-sum row is skipped like a dead one
        if w == 0.0 {
            return None;
        }
        // Singleton swap guard (minimum-label rule): two singleton
        // communities deciding to join each other simultaneously would
        // swap forever on stale state; only the higher-labelled one may
        // move. Standard symmetric-oscillation breaker for synchronous
        // Louvain (cf. Lu et al., Grappolo); complements the paper's ε
        // threshold, which throttles volume but cannot break exact
        // two-cycles. Part of the convergence machinery, so disabled in
        // the no-heuristic ablation.
        #[allow(clippy::float_cmp)]
        // lint: allow(F1) — community sizes are exact small-integer-valued f64 counters
        let singles = self.size_snap[c as usize] == 1.0 && self.size_snap[c_u as usize] == 1.0;
        if self.use_heuristic && singles && c > c_u {
            return None;
        }
        Some(remove_u + dq::insert_gain(w, k_u, self.tot_snap[c as usize], self.s))
    }
}

/// The inner loop (Algorithm 4), frontier-scheduled (DESIGN.md §13), on
/// the level `st.lvl`. Returns (final modularity, iterations,
/// per-iteration global move fractions, per-iteration modularity). The
/// per-iteration timings and frontier occupancy are kept only on the
/// `first_level` (Figure 8b).
pub(super) fn refine(
    ctx: &mut RankCtx<'_, Msg>,
    st: &mut LoopState,
    table: &mut OutTable,
    cfg: &ParallelConfig,
    meter: &mut PhaseMeter,
    first_level: bool,
) -> (f64, usize, Vec<f64>, Vec<f64>) {
    let lvl = &mut st.lvl;
    let s = st.s;
    let rank = ctx.rank();
    let local_n = lvl.part.local_count(rank);
    let mut m_u = vec![0.0f64; local_n];
    // Exact-prefix candidate summaries for the patch pass (DESIGN.md
    // §13): the top `SUMMARY_K` entries of each vertex's cached lexmax
    // fold, plus a bound on everything below them. The first entry is
    // the vertex's best move; its gain is mirrored into `m_u`, the
    // slice the threshold histogram reads. A demotion of the
    // cached winner resolves in O(group) against the surviving prefix;
    // only when patch churn has pushed every known entry under the bound
    // does the vertex escalate to a full re-scan.
    let mut summ = vec![CandSummary::empty(); local_n];
    // One row accumulator for the whole level: every gather below
    // re-stamps it instead of allocating.
    let mut scratch = RowScratch::new(lvl.n());
    // The scheduler and the previous iteration's replicated snapshots
    // (for the bitwise diff of wake rule W2). Vertices off the scan
    // frontier keep their *cached* summary — every input of their
    // last scan is bitwise unchanged (else a wake rule would have fired),
    // so the untouched entries still feed `compute_threshold` and the
    // UPDATE sweep the exact values a full rescan would produce.
    let mut frontier = Frontier::new(local_n, lvl.n());
    // Each local vertex's own-row weight, the modularity's Σ_in term
    // (DESIGN.md §10).
    let mut own_rows = OwnRows::new(local_n);
    let mut prev_tot: Vec<f64> = Vec::new();
    let mut prev_size: Vec<f64> = Vec::new();
    let mut fractions = Vec::new();
    let mut q_trace = Vec::new();
    let mut q_prev = f64::NEG_INFINITY;
    let mut q = 0.0;
    let mut iterations = 0usize;

    // Per-phase attribution: every phase below ends in a meter lap, taken
    // right after the collective that closes it, so its wall time,
    // messages, clock delta and charged work close at the same point.
    // Each lap opens the next phase; the chain starts here, so the setup
    // above belongs to no sub-phase.
    meter.restart(ctx);

    // Initial propagation (Algorithm 2, line 5): `OutTable::build`
    // filled the Out-Table from purely local data — the level starts at
    // the identity labelling, so no rank needs remote state yet. Charge
    // that pass; the clock realizes it at the next collective. Its wall
    // lap counts toward iteration 1.
    ctx.charge(lvl.in_table.len() as f64);
    meter.lap(ctx, Phase::StatePropagation);
    let mut migrated: Vec<(u32, u32)> = Vec::new();
    // The level's first snapshot. Every later one is the last superstep
    // of an iteration and carries that iteration's (Q, moves).
    let (mut tot_snap, mut size_snap, []) = gather_snapshot(ctx, lvl, [], true);

    for iter in 1..=cfg.max_inner_iterations {
        iterations = iter;

        // --- FIND BEST COMMUNITY (frontier-scheduled, DESIGN.md §13) ---
        let kernel = GainKernel {
            tot_snap: &tot_snap,
            size_snap: &size_snap,
            s,
            use_heuristic: cfg.use_heuristic,
        };
        // Commit this iteration's scan worklist. Iteration 1 seeds the
        // whole vertex set (as does the tests' `full_rescan` oracle);
        // afterwards the pending set holds wake rule W1 (delta piggyback,
        // added during the previous propagation), and wake rule W2 adds
        // everyone whose own or adjacent community changed bitwise in
        // the replicated snapshots. Vertices woken by neither rule have
        // every FIND BEST input bitwise unchanged since their last scan,
        // so their cached summary is already the answer. All
        // collectives stay outside frontier conditionals, so a drained
        // rank skips work, never a collective.
        #[cfg(test)]
        let wake_all = iter == 1 || cfg.full_rescan;
        #[cfg(not(test))]
        let wake_all = iter == 1;
        // --- Scan patches (DESIGN.md §13) ---
        // The snapshot diff hands over each patched vertex's candidate
        // group before `commit`: a vertex promoted to a full re-scan — by
        // a wake rule or by an unresolved fold — is pending, and the
        // re-scan supersedes its patches. Each group re-folds only the
        // changed candidate entries over the cached summary instead of
        // re-scanning every row. The result is bitwise equal to a full
        // re-scan: every entry outside the group is bitwise unchanged
        // (rows by W1, snapshots by W2, label/`a_uu`/`k`/own-row by the
        // self-wake and own-row rules — any of those firing makes the
        // vertex pending), and the group's rows are fresh sums.
        let mut rows_patched = 0usize;
        if wake_all {
            frontier.wake_all();
        } else {
            let k = &lvl.k;
            frontier.wake_snapshot_changes(
                [&prev_tot, &tot_snap, &prev_size, &size_snap],
                &lvl.label,
                table,
                &mut scratch,
                |li, group| {
                    rows_patched += group.rows.len() - 1;
                    let (c_u, a_uu) = (group.rows[0].0, table.self_loop(li));
                    kernel.refold(c_u, k[li], a_uu, group, &mut summ[li], &mut m_u[li])
                },
            );
        }
        frontier.commit(iter == 1);
        if first_level {
            st.frontier_occupancy.push(frontier.worklist.len() as u64);
        }
        // The full scan: the same fold over every live row, with nothing
        // cached. Candidate communities are exactly the live Out-Table
        // rows of `u`, gathered in first-seen arc order; the fold is
        // order-independent, so that order never shows.
        let mut rows_scanned = 0usize;
        for &li in &frontier.worklist {
            let li = li as usize;
            table.gather(li, &mut scratch);
            rows_scanned += scratch.rows.len();
            summ[li] = CandSummary::empty();
            let (c_u, k_u, a_uu) = (lvl.label[li], lvl.k[li], table.self_loop(li));
            kernel.refold(c_u, k_u, a_uu, &scratch, &mut summ[li], &mut m_u[li]);
        }
        // The next iteration's W2 baseline; UPDATE reads only Σ_tot.
        prev_tot.clone_from(&tot_snap);
        prev_size = std::mem::take(&mut size_snap);
        // The UPDATE sweep below walks the vertices with a positive
        // gain: freshly scanned or patched vertices contribute their new
        // verdict, the rest their cached — and still exact — one.
        frontier.commit_eligible(&m_u);
        // Local compute charge: one unit per candidate row scanned or
        // patched plus one per active vertex (the remove-gain pass). The
        // frontier is schedule-invariant, so the charge — and the
        // simulated clock — remain deterministic.
        ctx.charge((rows_scanned + rows_patched + frontier.worklist.len()) as f64);

        // --- Threshold ΔQ̂ from the ε schedule (Section IV-B) ---
        let threshold = if cfg.use_heuristic {
            compute_threshold(ctx, &m_u, lvl.n(), cfg, iter)
        } else {
            0.0
        };
        // The find-best lap closes at the threshold collectives (the scan
        // itself has no collective; its compute charge is accounted by the
        // sync that follows). Without the heuristic there is no threshold
        // collective, so the scan's clock delta folds into the update lap.
        meter.lap(ctx, Phase::FindBestCommunity);

        // --- UPDATE COMMUNITY INFORMATION ---
        // Algorithm 4 lines 13–15 apply the Σ_tot changes *immediately*
        // while sweeping the local vertices. We mirror that: moves are
        // applied sequentially against a locally updated Σ_tot view and
        // re-vetted — the precomputed gain may have gone stale as earlier
        // local moves crowded the target community. A move whose
        // re-evaluated gain is no longer positive is skipped. This
        // recovers most of the Gauss-Seidel quality a purely synchronous
        // snapshot loses.
        let mut local_moves = 0u64;
        migrated.clear();
        let mut deltas: Vec<(u32, u32)> = Vec::new();
        let announced_remote = {
            let mut tot_view = std::mem::take(&mut tot_snap);
            let part = &lvl.part;
            let label = &mut lvl.label;
            let k = &lvl.k;
            let mut ex = ctx.exchange();
            // Movers are a subset of the eligible list (a mover's
            // cached `m_u` is positive and clears the threshold), and
            // the list is ascending — so this sweep visits the same
            // candidate vertices in the same order as the full
            // `0..local_n` scan, and the Gauss-Seidel `tot_view` evolves
            // bit-identically. ε-throttled vertices ride along on their
            // cached decision without having been re-scanned. Index
            // loop: the mover self-wake below re-arms the pending set of
            // the same frontier mid-sweep.
            for ei in 0..frontier.eligible_list.len() {
                let li = frontier.eligible_list[ei] as usize;
                if m_u[li] > 0.0 && m_u[li] >= threshold {
                    let c_old = label[li];
                    let c_new = summ[li].e[0].1;
                    let u = part.global(rank, li);
                    let k_u = k[li];
                    // Re-vet only with the heuristic enabled; the
                    // no-heuristic ablation applies snapshot decisions blindly, which
                    // is exactly the chaotic motion of Section III.
                    if cfg.use_heuristic {
                        let w_old = table.weight(li, c_old) - table.self_loop(li);
                        let w_new = table.weight(li, c_new);
                        let gain = dq::move_gain(
                            w_old,
                            w_new,
                            k_u,
                            tot_view[c_old as usize],
                            tot_view[c_new as usize],
                            s,
                        );
                        if gain <= 0.0 {
                            continue;
                        }
                        tot_view[c_old as usize] -= k_u;
                        tot_view[c_new as usize] += k_u;
                    }
                    label[li] = c_new;
                    own_rows.mark_stale(li);
                    local_moves += 1;
                    migrated.push((u, c_new));
                    // Mover self-wake: the label change invalidates the
                    // cached scan (w_own, remove side, even the interior
                    // test all read `c_u`), and W2's interior exclusion
                    // means membership alone no longer guarantees a
                    // re-scan — a vertex whose only external row was its
                    // new home becomes interior the moment it arrives.
                    // That freshly-interior mover needs no re-scan at
                    // all, though: with every live row pointing at its
                    // new home, a scan's candidate loop never runs, so
                    // the exact fresh result is the sentinel — install
                    // it directly. (Rows are frozen during this sweep —
                    // the deltas land in the propagation below, where W1
                    // catches any subsequent row birth.)
                    if !table.has_external(li, c_new) {
                        m_u[li] = 0.0;
                        summ[li] = CandSummary::sentinel(c_new);
                    } else {
                        frontier.wake(li);
                    }
                    // The discriminator of the shared exchange
                    // (`is_migration`) reads a Σ_tot delta by its
                    // nonzero weight.
                    debug_assert!(k_u > 0.0, "mover {u} has k_u = {k_u}");
                    // b flags join (1) vs leave (0) for size tracking.
                    ex.send(
                        part.owner(c_old),
                        Msg {
                            a: c_old,
                            b: 0,
                            w: -k_u,
                        },
                    );
                    ex.send(
                        part.owner(c_new),
                        Msg {
                            a: c_new,
                            b: 1,
                            w: k_u,
                        },
                    );
                }
            }
            // STATE PROPAGATION's announcements ride the same superstep.
            let (collapsed, remote) = announce_migrations(&mut ex, rank, part, table, &migrated);
            meter.dedup_hits += collapsed;
            // Buffer first, apply in sorted order: Σ_tot is floating
            // point, so the accumulation must be a function of the
            // delta *multiset*, not of the (perturbable, and for
            // mixed-magnitude weights ulp-visible) delivery order.
            let mut tot_deltas: Vec<(u32, (u32, u64))> = Vec::new();
            ex.finish(|m| {
                if is_migration(&m) {
                    deltas.push((m.a, m.b));
                } else {
                    debug_assert!(part.owner(m.a) == rank && m.b <= 1, "stray Σ_tot delta");
                    tot_deltas.push((part.local_index(m.a) as u32, (m.b, m.w.to_bits())));
                }
            });
            let tot = &mut lvl.tot;
            let size = &mut lvl.size;
            for_each_sorted_bucket(&tot_deltas, tot.len(), |li, bucket| {
                for &(b, w_bits) in bucket {
                    tot[li] += f64::from_bits(w_bits);
                    if b == 1 {
                        size[li] += 1;
                    } else {
                        size[li] -= 1;
                    }
                }
            });
            remote
        };
        meter.lap(ctx, Phase::UpdateCommunity);

        // --- STATE PROPAGATION (Algorithm 4, line 16) ---
        // Delta mode: only migrated vertices were announced, inside the
        // UPDATE exchange above, so this phase has no superstep of its
        // own; its lap is the wall time of applying the received deltas,
        // and its messages move over from the UPDATE lap that sent them.
        //
        // Wake rule W1 — remote re-activation, piggybacked on the deltas
        // (DESIGN.md §13): a received `(u, c_new)` that changes `u`'s
        // cached label moves each of `u`'s arcs from row `(d, c_old)` to
        // row `(d, c_new)`. Both rows are handed to the frontier; the next
        // snapshot-diff pass classifies each into a full re-scan (own row
        // or cached winner touched) or an O(1) scan patch. The same
        // report keeps the own-row cache exact: a vertex whose own row an
        // arc left or joined goes stale, and its row is re-walked.
        let label = &lvl.label;
        table.apply_deltas(&deltas, |li, a, b| {
            let c_u = label[li as usize];
            frontier.mark_row_dirty(li as usize, c_u, a);
            frontier.mark_row_dirty(li as usize, c_u, b);
            if c_u == a || c_u == b {
                own_rows.mark_stale(li as usize);
            }
        });
        meter.lap(ctx, Phase::StatePropagation);
        meter.comm.update -= announced_remote;
        meter.comm.state_propagation += announced_remote;

        // --- Modularity (Algorithm 4, lines 18–25) ---
        // (Q, moves) ride the next iteration's snapshot: every rank reads
        // the same sums, so all ranks leave the loop in lockstep. At the
        // iteration cap there is no next iteration, so the gather ships
        // (Q, moves) alone.
        let q_local = compute_modularity(lvl, table, &mut own_rows, s);
        let extra = [q_local, local_moves as f64];
        let sums;
        (tot_snap, size_snap, sums) =
            gather_snapshot(ctx, lvl, extra, iter < cfg.max_inner_iterations);
        q = sums[0];
        let moves = sums[1] as u64;
        meter.lap(ctx, Phase::ComputeModularity);
        meter.end_iteration(first_level);
        q_trace.push(q);
        let fraction = moves as f64 / lvl.n().max(1) as f64;
        fractions.push(fraction);

        if moves == 0 {
            break;
        }
        if cfg.use_heuristic
            && iter > 1
            && (q - q_prev < MIN_Q_IMPROVEMENT || fraction < MIN_MOVE_FRACTION)
        {
            break;
        }
        q_prev = q;
    }
    st.frontier_stats = st.frontier_stats.sum(&frontier.stats);
    (q, iterations, fractions, q_trace)
}

/// Translates ε(iter) into the gain threshold `ΔQ̂` with a global
/// log-spaced histogram of the positive gains — "we build a histogram
/// based on m_u and calculate the update threshold" (Section IV-C2).
fn compute_threshold(
    ctx: &RankCtx<'_, Msg>,
    m_u: &[f64],
    n_global: usize,
    cfg: &ParallelConfig,
    iter: usize,
) -> f64 {
    let eps = cfg.schedule.epsilon(iter);
    // One gather answers whether the budget can bind: every rank's
    // largest gain and positive-gain count, folded in rank order. The
    // count is exact, so it equals what the histogram would sum to.
    let local_max = m_u.iter().copied().fold(0.0f64, f64::max);
    let local_positive = m_u.iter().filter(|&&g| g > 0.0).count() as f64;
    let gathered = ctx.allgather_f64(&[local_max, local_positive]);
    let (hi, total_positive) = gathered
        .chunks_exact(2)
        .fold((0.0f64, 0.0f64), |(hi, n), r| (hi.max(r[0]), n + r[1]));
    let keep = (eps * n_global as f64).ceil();
    if keep >= total_positive {
        // Budget not binding (nobody wanting to move included): all
        // positive gains move, and the histogram is skipped.
        return 0.0;
    }
    let bins = HISTOGRAM_BINS;
    let lo = hi * 1e-9;
    let log_span = (hi / lo).ln();
    let bin_of = |g: f64| -> usize {
        if g <= lo {
            0
        } else {
            (((g / lo).ln() / log_span) * bins as f64).min(bins as f64 - 1.0) as usize
        }
    };
    let mut hist = vec![0.0f64; bins];
    for &g in m_u {
        if g > 0.0 {
            hist[bin_of(g)] += 1.0;
        }
    }
    let hist = ctx.allreduce_sum_vec(&hist);
    // Walk bins from the top, accumulating until the budget is filled.
    let mut cum = 0.0;
    for b in (0..bins).rev() {
        cum += hist[b];
        if cum >= keep {
            // Lower edge of bin b.
            return lo * (log_span * b as f64 / bins as f64).exp();
        }
    }
    0.0
}

/// Visits `items` grouped by index (`0..n`) in ascending index order,
/// each group sorted: the order one global sort of the pairs would give,
/// at the cost of a counting pass and a sort per (small) group.
fn for_each_sorted_bucket<T: Copy + Default + Ord>(
    items: &[(u32, T)],
    n: usize,
    mut visit: impl FnMut(usize, &[T]),
) {
    let (mut off, mut flat) = (Vec::new(), Vec::new());
    group_by_index(items, n, &mut off, &mut flat);
    for i in 0..n {
        let bucket = &mut flat[off[i]..off[i + 1]];
        if !bucket.is_empty() {
            bucket.sort_unstable();
            visit(i, bucket);
        }
    }
}

/// Each local vertex's own-row weight `w(u, c_u)` for one level
/// (DESIGN.md §10). Modularity needs only Σ_c Σ_in(c), and that total is
/// Σ_u w(u, c_u), so every rank sums its own vertices' rows and no Σ_in
/// message is sent. Built fresh by every `refine`, so nothing of it
/// crosses a level boundary or enters a checkpoint.
struct OwnRows {
    /// Per local vertex: `w(u, c_u)` as last walked.
    own: Vec<f64>,
    /// Local vertices whose own row may differ from `own`: the movers of
    /// UPDATE and the vertices whose own row `apply_deltas` reported,
    /// each once.
    stale: Vec<u32>,
    /// Per local vertex: whether it is on `stale`.
    queued: Vec<bool>,
}

impl OwnRows {
    /// Every local vertex stale, so the first iteration walks every row.
    fn new(local_n: usize) -> Self {
        Self {
            own: vec![0.0; local_n],
            stale: (0..local_n as u32).collect(),
            queued: vec![true; local_n],
        }
    }

    /// Puts local vertex `li` on the stale list, unless it is there.
    fn mark_stale(&mut self, li: usize) {
        if !self.queued[li] {
            self.queued[li] = true;
            self.stale.push(li as u32);
        }
    }
}

/// This rank's share of the global modularity (Algorithm 4, lines
/// 18–25): `Σ_u w(u, c_u) / s` over its local vertices, folded from 0.0
/// in local-index order, minus `(Σ_tot / s)²` over its owned non-empty
/// communities. Each stale vertex re-walks its own row first, so the
/// walk is O(changed). The caller sums the shares across ranks in the
/// next snapshot gather.
fn compute_modularity(lvl: &RankLevel, out_table: &OutTable, rows: &mut OwnRows, s: f64) -> f64 {
    let label = &lvl.label;
    for &li in &rows.stale {
        let li = li as usize;
        rows.queued[li] = false;
        rows.own[li] = out_table.weight(li, label[li]);
    }
    rows.stale.clear();
    debug_assert!(
        (0..label.len())
            .all(|li| { rows.own[li].to_bits() == out_table.weight(li, label[li]).to_bits() }),
        "an own-row weight went stale unmarked"
    );
    // An empty, edgeless or all-zero-weight graph has s = 0 and Q = 0.
    // lint: allow(F1) — s is an exact sum of nonnegative weights; 0.0 only when all are
    if s == 0.0 {
        return 0.0;
    }
    let sum_in = rows.own.iter().fold(0.0, |acc, &w| acc + w);
    let mut tot_sq = 0.0;
    for &tot in &lvl.tot {
        // lint: allow(F1) — exact zero sentinel: empty communities carry Σ_tot = 0.0 exactly
        if tot != 0.0 {
            tot_sq += (tot / s) * (tot / s);
        }
    }
    sum_in / s - tot_sq
}

#[cfg(test)]
mod tests {
    use crate::parallel::tests::planted_graph;
    use crate::parallel::{ParallelConfig, ParallelLouvain};
    use louvain_graph::edgelist::EdgeListBuilder;
    use louvain_metrics::modularity;

    /// The planted graph with non-integer, mixed-magnitude weights whose
    /// sums are not exactly representable, so any change of fold order
    /// shows in the bits.
    fn mixed_magnitude_graph() -> louvain_graph::edgelist::EdgeList {
        let (el0, _) = planted_graph(23);
        let mut b = EdgeListBuilder::new(el0.num_vertices());
        for (i, e) in el0.edges().iter().enumerate() {
            let w = match i % 3 {
                0 => 1e8,
                1 => 0.1,
                _ => 0.3,
            };
            b.add_edge(e.u, e.v, w);
        }
        b.build()
    }

    #[test]
    fn mixed_magnitude_weights_survive_delta_patching() {
        // End-to-end: non-integer, mixed-magnitude weights whose sums
        // are not exactly representable, run under the perturbation
        // harness. Pre-structural-liveness this could panic in
        // reconstruction (`map[&c_old]` on a phantom residue row); now
        // the run must complete with a self-consistent modularity at
        // every rank count and perturb seed.
        let el = mixed_magnitude_graph();
        let g = el.to_csr();
        for ranks in [2, 4] {
            for seed in [None, Some(1), Some(7)] {
                let r = ParallelLouvain::new(ParallelConfig {
                    perturb_seed: seed,
                    ..ParallelConfig::with_ranks(ranks)
                })
                .run(&el);
                assert!(r.result.final_partition.is_valid());
                let q = modularity(&g, &r.result.final_partition);
                assert!(
                    (q - r.result.final_modularity).abs() <= 1e-9 * (1.0 + q.abs()),
                    "ranks={ranks} seed={seed:?}: reported {} vs recomputed {q}",
                    r.result.final_modularity
                );
            }
        }
    }

    /// The own-row cache on a vertex whose own row changes while it
    /// never moves. The hub of a star keeps its community: while it is a
    /// singleton the guard closes the (singleton, higher-labelled) leaf
    /// communities to it, and afterwards the heaviest leaves have joined
    /// it, so leaving would lose gain. Its own row grows only as leaves
    /// relabel into its community, news that reaches the hub's rank as
    /// delta reports — from the other rank's leaves too at 2 ranks.
    /// `compute_modularity` checks every cached weight against a fresh
    /// walk in debug builds; the run must also report the recomputed
    /// modularity, with the same bits under every delivery schedule.
    #[test]
    fn own_row_cache_follows_relabels_around_a_static_vertex() {
        let n = 16u32;
        let mut b = EdgeListBuilder::new(n as usize);
        for leaf in 1..n {
            b.add_edge(0, leaf, 0.1 * f64::from(leaf));
        }
        let el = b.build();
        let g = el.to_csr();
        let mut q_bits = None;
        for seed in [None, Some(1), Some(7)] {
            let r = ParallelLouvain::new(ParallelConfig {
                perturb_seed: seed,
                ..ParallelConfig::with_ranks(2)
            })
            .run(&el);
            let first = &r.result.levels[0];
            assert!(
                first.inner_iterations > 1,
                "seed {seed:?}: the leaves join in one sweep"
            );
            assert_eq!(
                first.num_communities, 1,
                "seed {seed:?}: the star did not merge"
            );
            let q = r.result.final_modularity;
            let want = modularity(&g, &r.result.final_partition);
            assert!((q - want).abs() <= 1e-12, "seed {seed:?}: {q} vs {want}");
            assert_eq!(
                *q_bits.get_or_insert(q.to_bits()),
                q.to_bits(),
                "seed {seed:?}"
            );
        }
    }

    /// Property test: frontier scheduling is an
    /// optimization, not a semantic change. A frontier-scheduled run and
    /// a full-scan (`full_rescan`) run must produce bit-identical
    /// assignments, per-level modularity, and final modularity across
    /// rank counts and perturbation seeds — on the mixed-magnitude
    /// weighted graphs where floating-point order sensitivity would
    /// surface first (the mixed-magnitude generator).
    #[test]
    fn frontier_matches_full_rescan_bit_for_bit() {
        let el = mixed_magnitude_graph();
        for ranks in [2, 4] {
            for seed in [None, Some(1), Some(7)] {
                let run = |full_rescan: bool| {
                    ParallelLouvain::new(ParallelConfig {
                        perturb_seed: seed,
                        full_rescan,
                        ..ParallelConfig::with_ranks(ranks)
                    })
                    .run(&el)
                };
                let f = run(false);
                let full = run(true);
                assert_eq!(
                    f.result.final_partition.labels(),
                    full.result.final_partition.labels(),
                    "ranks={ranks} seed={seed:?}: assignments diverged"
                );
                assert_eq!(
                    f.result.final_modularity.to_bits(),
                    full.result.final_modularity.to_bits(),
                    "ranks={ranks} seed={seed:?}: modularity diverged"
                );
                for (a, b) in f.result.levels.iter().zip(&full.result.levels) {
                    assert_eq!(
                        a.modularity.to_bits(),
                        b.modularity.to_bits(),
                        "ranks={ranks} seed={seed:?}: level modularity diverged"
                    );
                }
            }
        }
    }

    /// The UPDATE exchange carries Σ_tot deltas and migration
    /// announcements side by side, told apart by weight alone: an
    /// announcement weighs exactly 0.0 and a Σ_tot delta `±k_u ≠ 0`. The
    /// input here is one the edge-list reader accepts and that stresses
    /// the rule: a quarter of the planted graph's arcs weigh 0.0, and
    /// three extra vertices carry only zero-weight arcs (one of them a
    /// self-loop), so `k_u = 0.0` for them. Debug builds check the kind
    /// of every message: the send asserts `k_u > 0` for each mover, a
    /// Σ_tot delta must name a community its receiver owns with a
    /// join/leave flag, and a migration must change its vertex's cached
    /// label. At 1, 2 and 4 ranks, every delivery schedule must
    /// give the same labels, and the reported modularity must equal the
    /// recomputation.
    #[test]
    fn zero_weight_arcs_never_pass_for_migrations() {
        let (el0, _) = planted_graph(11);
        let n = el0.num_vertices() as u32;
        let mut b = EdgeListBuilder::new(n as usize + 3);
        for (i, e) in el0.edges().iter().enumerate() {
            b.add_edge(e.u, e.v, if i % 4 == 0 { 0.0 } else { e.w });
        }
        b.add_edge(n, 0, 0.0);
        b.add_edge(n + 1, n, 0.0);
        b.add_edge(n + 2, n + 2, 0.0);
        let el = b.build();
        let g = el.to_csr();
        for ranks in [1, 2, 4] {
            let run = |perturb_seed| {
                ParallelLouvain::new(ParallelConfig {
                    perturb_seed,
                    ..ParallelConfig::with_ranks(ranks)
                })
                .run(&el)
            };
            let base = run(None);
            assert!(base.comm_breakdown.state_propagation > 0 || ranks == 1);
            let q = modularity(&g, &base.result.final_partition);
            assert!(
                (q - base.result.final_modularity).abs() <= 1e-12,
                "ranks={ranks}: reported {} vs recomputed {q}",
                base.result.final_modularity
            );
            for seed in [Some(1), Some(7)] {
                let r = run(seed);
                assert_eq!(
                    r.result.final_partition.labels(),
                    base.result.final_partition.labels(),
                    "ranks={ranks} seed={seed:?}: labels diverged"
                );
                assert_eq!(
                    r.result.final_modularity.to_bits(),
                    base.result.final_modularity.to_bits(),
                    "ranks={ranks} seed={seed:?}"
                );
            }
        }
    }

    /// FNV-1a over `bytes`.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// FNV-1a over the bit patterns of every level's `q_trace`, in level
    /// and iteration order.
    fn q_trace_digest(levels: &[crate::result::LevelInfo]) -> u64 {
        let qs = levels.iter().flat_map(|l| &l.q_trace);
        fnv1a(qs.flat_map(|q| q.to_bits().to_le_bytes()))
    }

    /// Every level's per-iteration modularity, bit for bit, on the
    /// planted seed-11 and mixed-magnitude graphs at 1, 2 and 4 ranks
    /// under both partition strategies: the iterations per level and a
    /// digest of every `q_trace` bit pattern. Each rank folds its own-row
    /// weights in local-index order, so a change to how the own-row cache
    /// is kept may never move a bit. Reconstruction sums each super-arc per rank
    /// first, so the mixed-magnitude rows at 2+ ranks pin that grouping;
    /// a perturbed delivery schedule must reproduce the unperturbed
    /// trace exactly.
    #[test]
    fn modularity_trace_bits_are_pinned() {
        use louvain_graph::partition::PartitionStrategy::{ArcBalanced, Modulo};
        let pins = [
            (
                "planted",
                1,
                Modulo,
                &[23, 2, 1][..],
                0x5e49_a8f4_3db8_47cbu64,
            ),
            (
                "planted",
                1,
                ArcBalanced,
                &[23, 2, 1],
                0x5e49_a8f4_3db8_47cb,
            ),
            ("planted", 2, Modulo, &[23, 2, 1], 0x5dda_9f9d_548d_9820),
            (
                "planted",
                2,
                ArcBalanced,
                &[23, 2, 1],
                0x57d0_16de_09b1_9e52,
            ),
            ("planted", 4, Modulo, &[23, 2, 1], 0xc50d_6add_a50e_3da2),
            (
                "planted",
                4,
                ArcBalanced,
                &[23, 2, 1],
                0x1ece_c3da_58d0_5772,
            ),
            ("mixed", 1, Modulo, &[8, 6, 5, 1], 0x3e21_6e38_664a_308a),
            (
                "mixed",
                1,
                ArcBalanced,
                &[8, 6, 5, 1],
                0x3e21_6e38_664a_308a,
            ),
            ("mixed", 2, Modulo, &[8, 8, 6, 2, 1], 0xfa59_5b09_f75a_6f15),
            (
                "mixed",
                2,
                ArcBalanced,
                &[8, 13, 2, 2, 1],
                0xca57_13dd_a7b0_4298,
            ),
            ("mixed", 4, Modulo, &[8, 4, 3, 1], 0xe8f7_93c4_dc05_b563),
            (
                "mixed",
                4,
                ArcBalanced,
                &[8, 7, 2, 1],
                0x8a56_ff3e_0fb5_1386,
            ),
        ];
        let planted = planted_graph(11).0;
        let mixed = mixed_magnitude_graph();
        for (name, ranks, partition, iterations, digest) in pins {
            let el = if name == "planted" { &planted } else { &mixed };
            let run = |perturb_seed| {
                ParallelLouvain::new(ParallelConfig {
                    partition,
                    perturb_seed,
                    ..ParallelConfig::with_ranks(ranks)
                })
                .run(el)
                .result
                .levels
            };
            let base = run(None);
            let at = format!("{name} at {ranks} ranks, {partition:?}");
            let got: Vec<usize> = base.iter().map(|l| l.q_trace.len()).collect();
            assert_eq!(got, iterations, "{at}: iterations per level");
            assert_eq!(q_trace_digest(&base), digest, "{at}: q_trace digest");
            let perturbed = run(Some(7));
            for (a, b) in base.iter().zip(&perturbed) {
                let bits = |l: &crate::result::LevelInfo| -> Vec<u64> {
                    l.q_trace.iter().map(|q| q.to_bits()).collect()
                };
                assert_eq!(bits(a), bits(b), "{at}: perturbed q_trace");
            }
        }
    }

    /// REFINE stopped by `max_inner_iterations` rather than by its own
    /// tests, at caps 1 and 3 on the planted seed-11 graph at 1, 2 and 4
    /// ranks: every level reports one `q_trace` entry per iteration, the
    /// reported modularity matches the textbook recomputation, and the
    /// labels (an FNV-1a digest) and final-Q bits are pinned.
    #[test]
    fn iteration_cap_ends_levels_consistently() {
        // (cap, ranks, label digest, final-Q bits)
        let pins: [(usize, usize, u64, u64); 6] = [
            (1, 1, 0xa658_bad5_a602_fdf7, 0x3fe3_5e69_c8fd_e262),
            (1, 2, 0x382c_d729_13e9_3093, 0x3fe2_b7df_16cd_754e),
            (1, 4, 0x5520_d138_5e80_d154, 0x3fe3_6a41_5a08_eed7),
            (3, 1, 0x574a_7bbf_9201_2551, 0x3fe5_e463_ac4f_ed31),
            (3, 2, 0x574a_7bbf_9201_2551, 0x3fe5_e463_ac4f_ed32),
            (3, 4, 0x574a_7bbf_9201_2551, 0x3fe5_e463_ac4f_ed32),
        ];
        let el = planted_graph(11).0;
        let g = el.to_csr();
        for (cap, ranks, label_digest, q_bits) in pins {
            let r = ParallelLouvain::new(ParallelConfig {
                max_inner_iterations: cap,
                ..ParallelConfig::with_ranks(ranks)
            })
            .run(&el)
            .result;
            let at = format!("cap {cap} at {ranks} ranks");
            for l in &r.levels {
                assert_eq!(l.q_trace.len(), l.inner_iterations, "{at}");
                assert!(l.inner_iterations <= cap, "{at}");
            }
            let q = modularity(&g, &r.final_partition);
            assert!(
                (q - r.final_modularity).abs() <= 1e-9 * (1.0 + q.abs()),
                "{at}: reported {} vs recomputed {q}",
                r.final_modularity
            );
            let labels = r.final_partition.labels().iter();
            assert_eq!(
                fnv1a(labels.flat_map(|l| l.to_le_bytes())),
                label_digest,
                "{at}: labels"
            );
            assert_eq!(r.final_modularity.to_bits(), q_bits, "{at}: modularity");
        }
    }

    /// Wire traffic of the planted seed-11 and mixed-magnitude graphs
    /// at 1, 2 and 4 ranks under both partition strategies: messages,
    /// packets, payload bytes, syncs, state-propagation messages, the
    /// duplicate announcements state propagation
    /// collapsed, reconstruction messages, and each rank's trace length.
    /// Every value is schedule-invariant, so the perturbed run must match
    /// the unperturbed one exactly. Label propagation's message and
    /// packet counts ride along, since it shares `announce_migrations`.
    #[test]
    fn wire_traffic_is_pinned() {
        use crate::labelprop::LabelPropagation;
        use louvain_graph::partition::PartitionStrategy::{ArcBalanced, Modulo};
        // [messages, packets, bytes_sent, syncs, state_propagation,
        //  dedup_hits, reconstruction], then trace events per rank.
        let pins = [
            ("planted", 1, Modulo, [0, 0, 0, 111, 0, 4341, 0], &[185][..]),
            (
                "planted",
                1,
                ArcBalanced,
                [0, 0, 0, 115, 0, 4341, 0],
                &[190],
            ),
            (
                "planted",
                2,
                Modulo,
                [819, 41, 13104, 111, 414, 3927, 85],
                &[179, 180],
            ),
            (
                "planted",
                2,
                ArcBalanced,
                [816, 44, 13056, 115, 411, 3930, 85],
                &[186, 186],
            ),
            (
                "planted",
                4,
                Modulo,
                [1838, 192, 29408, 111, 1200, 3161, 177],
                &[174, 177, 175, 174],
            ),
            (
                "planted",
                4,
                ArcBalanced,
                [1845, 185, 29520, 115, 1194, 3166, 185],
                &[179, 179, 180, 180],
            ),
            ("mixed", 1, Modulo, [0, 0, 0, 92, 0, 5055, 0], &[160]),
            ("mixed", 1, ArcBalanced, [0, 0, 0, 97, 0, 5055, 0], &[166]),
            (
                "mixed",
                2,
                Modulo,
                [1540, 55, 24640, 114, 472, 4702, 712],
                &[196, 197],
            ),
            (
                "mixed",
                2,
                ArcBalanced,
                [1514, 49, 24224, 120, 456, 4580, 699],
                &[200, 203],
            ),
            (
                "mixed",
                4,
                Modulo,
                [2851, 198, 45616, 72, 1240, 3360, 1132],
                &[132, 129, 130, 131],
            ),
            (
                "mixed",
                4,
                ArcBalanced,
                [2936, 201, 46976, 89, 1270, 3514, 1169],
                &[154, 148, 154, 147],
            ),
        ];
        let planted = planted_graph(11).0;
        let mixed = mixed_magnitude_graph();
        for (name, ranks, partition, counts, events) in pins {
            let el = if name == "planted" { &planted } else { &mixed };
            for perturb_seed in [None, Some(7)] {
                let r = ParallelLouvain::new(ParallelConfig {
                    partition,
                    perturb_seed,
                    ..ParallelConfig::with_ranks(ranks)
                })
                .run(el);
                let got = [
                    r.comm.messages,
                    r.comm.packets,
                    r.bytes_sent,
                    r.syncs,
                    r.comm_breakdown.state_propagation,
                    r.dedup_hits,
                    r.comm_breakdown.reconstruction,
                ];
                let got_events: Vec<usize> = r.traces.iter().map(|t| t.events.len()).collect();
                let at =
                    format!("{name} at {ranks} ranks, {partition:?}, perturb {perturb_seed:?}");
                assert_eq!(got, counts, "{at}");
                assert_eq!(got_events, events, "{at}: trace events");
            }
        }
        for (ranks, planted_counts, mixed_counts) in
            [(2, [324, 10], [359, 17]), (4, [932, 56], [1044, 93])]
        {
            for (el, counts) in [(&planted, planted_counts), (&mixed, mixed_counts)] {
                let r = LabelPropagation::new(ranks).run(el);
                assert_eq!(
                    [r.comm.messages, r.comm.packets],
                    counts,
                    "label propagation at {ranks} ranks"
                );
            }
        }
    }

    /// The frontier's schedule and the simulated charges, pinned on a
    /// fixed planted graph: bookkeeping changes to FIND BEST or the
    /// modularity reduction must leave every scan, patch and message —
    /// and so every simulated unit — exactly where it was. The
    /// `strawman` rows run the planted graph under the Figure-4
    /// no-heuristic configuration, whose UPDATE sweep skips the re-vet
    /// and whose FIND BEST skips the singleton guard.
    #[test]
    fn schedule_and_charges_are_pinned() {
        // (case, ranks, sim_total_units, sim_breakdown as [loading,
        // state propagation, find best, update, modularity,
        // reconstruction], frontier [active, skipped, reactivations],
        // final modularity bits).
        type Pin = (&'static str, usize, f64, [f64; 6], [u64; 3], u64);
        let pins: [Pin; 9] = [
            (
                "planted",
                1,
                571357.7000000004,
                [
                    5000.0,
                    0.0,
                    264138.2000000003,
                    131242.0,
                    130837.2000000002,
                    30140.29999999993,
                ],
                [1570, 2590, 148],
                0x3fe6_22bc_8858_63ac,
            ),
            (
                "planted",
                2,
                564583.1000000006,
                [
                    5000.0,
                    0.0,
                    257335.40000000043,
                    131252.0,
                    130842.40000000015,
                    30153.29999999999,
                ],
                [1570, 2590, 148],
                0x3fe6_22bc_8858_63ad,
            ),
            (
                "planted",
                4,
                561087.8999999998,
                [
                    5000.0,
                    0.0,
                    253939.8,
                    131157.0,
                    130852.79999999983,
                    30138.29999999999,
                ],
                [1570, 2590, 148],
                0x3fe6_22bc_8858_63ad,
            ),
            (
                "mixed",
                1,
                478922.70000000024,
                [
                    5000.0,
                    0.0,
                    221127.00000000023,
                    101389.0,
                    100366.60000000002,
                    41040.09999999998,
                ],
                [1018, 795, 53],
                0x3fe5_4765_21e2_3d7e,
            ),
            (
                "mixed",
                2,
                581508.9000000005,
                [
                    5000.0,
                    0.0,
                    263561.60000000044,
                    126427.0,
                    125400.20000000006,
                    51120.09999999998,
                ],
                [1047, 904, 48],
                0x3fe5_4765_21e2_3d80,
            ),
            (
                "mixed",
                4,
                366309.99999999994,
                [
                    5000.0,
                    0.0,
                    149068.59999999986,
                    81173.0,
                    80346.80000000006,
                    40721.600000000006,
                ],
                [979, 691, 51],
                0x3fe5_3ae8_48ab_ba89,
            ),
            (
                "strawman",
                1,
                442655.2,
                [5000.0, 0.0, 17338.0, 199585.0, 180447.2, 30285.0],
                [2097, 303, 4],
                0x3fdd_fd84_5954_649e,
            ),
            (
                "strawman",
                2,
                434484.40000000014,
                [5000.0, 0.0, 16197.0, 192554.0, 180454.40000000014, 30279.0],
                [2097, 303, 4],
                0x3fdd_fd84_5954_649e,
            ),
            (
                "strawman",
                4,
                429529.79999999976,
                [
                    5000.0,
                    0.0,
                    15643.0,
                    188178.00000000003,
                    180468.79999999973,
                    30240.0,
                ],
                [2097, 303, 4],
                0x3fdd_fd84_5954_649d,
            ),
        ];
        let planted = planted_graph(11).0;
        let mixed = mixed_magnitude_graph();
        for (name, ranks, total, breakdown, frontier, q_bits) in pins {
            let el = if name == "mixed" { &mixed } else { &planted };
            let cfg = if name == "strawman" {
                ParallelConfig {
                    use_heuristic: false,
                    max_inner_iterations: 12,
                    max_levels: 6,
                    ..ParallelConfig::with_ranks(ranks)
                }
            } else {
                ParallelConfig::with_ranks(ranks)
            };
            let r = ParallelLouvain::new(cfg).run(el);
            let b = r.sim_breakdown;
            let got = [
                b.loading,
                b.state_propagation,
                b.find_best,
                b.update,
                b.modularity,
                b.reconstruction,
            ];
            let f = r.frontier;
            let at = format!("{name} at {ranks} ranks");
            assert_eq!(r.sim_total_units.to_bits(), total.to_bits(), "{at}: total");
            assert_eq!(
                got.map(f64::to_bits),
                breakdown.map(f64::to_bits),
                "{at}: {got:?}"
            );
            assert_eq!(
                [f.active_vertices, f.skipped_scans, f.reactivations],
                frontier,
                "{at}: frontier"
            );
            assert_eq!(
                r.result.final_modularity.to_bits(),
                q_bits,
                "{at}: modularity"
            );
        }
    }

    #[test]
    fn frontier_skips_scans_and_reports_occupancy() {
        let (el, _) = planted_graph(11);
        let n = el.num_vertices() as u64;
        let run = |full_rescan: bool| {
            ParallelLouvain::new(ParallelConfig {
                full_rescan,
                ..ParallelConfig::with_ranks(4)
            })
            .run(&el)
        };
        let f = run(false);
        let full = run(true);
        // The full-scan ablation never skips and keeps everyone active.
        assert_eq!(full.frontier.skipped_scans, 0);
        assert_eq!(full.frontier.reactivations, 0);
        // The frontier run does strictly less find-best work for the
        // same (bit-identical) answer, and work conservation holds:
        // scanned + skipped on the frontier run equals the full scan.
        assert!(f.frontier.skipped_scans > 0);
        assert!(f.frontier.active_vertices < full.frontier.active_vertices);
        assert_eq!(
            f.frontier.active_vertices + f.frontier.skipped_scans,
            full.frontier.active_vertices
        );
        assert_eq!(
            f.result.final_modularity.to_bits(),
            full.result.final_modularity.to_bits()
        );
        // First-level occupancy: iteration 1 seeds every vertex, and the
        // frontier must shrink below that afterwards.
        assert_eq!(f.frontier_occupancy.first().copied(), Some(n));
        assert!(f.frontier_occupancy.len() >= 2);
        assert!(f.frontier_occupancy.iter().skip(1).any(|&o| o < n));
    }
}
