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
use louvain_runtime::{Exchange, RankCtx};

/// Bins of the global gain histogram that translates ε into `ΔQ̂`.
const HISTOGRAM_BINS: usize = 64;

/// The v1 full per-arc rebuild (ablation/testing only): re-announce every
/// local vertex's label along every out-arc, whether it moved or not.
/// [`OutTable::apply_deltas`] skips unchanged labels, so the table ends
/// identical to the delta path's — this arm exists so the cost-conformance
/// suite can show the volume verifier catching the
/// `O(local_arcs)`-per-iteration regression the delta path was built to
/// eliminate (DESIGN.md §12).
fn send_full_rebuild(
    ex: &mut Exchange<'_, '_, Msg>,
    lvl: &RankLevel,
    table: &OutTable,
    rank: usize,
) {
    let part = &lvl.part;
    let local_n = part.local_count(rank);
    for li in 0..local_n {
        let v = part.global(rank, li);
        let c = lvl.label[li];
        for &s in table.out_srcs(li) {
            ex.send(part.owner(s), Msg { a: v, b: c, w: 0.0 });
        }
    }
}

/// STATE PROPAGATION (Algorithm 3), steady-state edition: instead of
/// rebuilding the Out-Table from scratch, each rank announces only the
/// vertices that migrated this sweep as `(vertex, new_community)` deltas
/// — keyed sends, so a vertex with many neighbors on one rank costs one
/// message. Received deltas relabel the arcs of the migrated vertex in
/// the Out-Table through [`OutTable::apply_deltas`] (DESIGN.md §10),
/// which hands `dirty` the two rows each relabelled arc moved between.
pub(crate) fn propagate_deltas(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &RankLevel,
    table: &mut OutTable,
    migrated: &[(u32, u32)],
    v1_state_rebuild: bool,
    dirty: impl FnMut(u32, u32, u32),
) {
    let part = &lvl.part;
    let rank = ctx.rank();
    let mut ex = ctx.exchange();
    if v1_state_rebuild {
        send_full_rebuild(&mut ex, lvl, table, rank);
    } else {
        for &(u, c_new) in migrated {
            let li = part.local_index(u);
            for &s in table.out_srcs(li) {
                ex.send_keyed(
                    part.owner(s),
                    u64::from(u),
                    Msg {
                        a: u,
                        b: c_new,
                        w: 0.0,
                    },
                );
            }
        }
    }
    let mut deltas: Vec<(u32, u32)> = Vec::new();
    ex.finish(|m| deltas.push((m.a, m.b)));
    table.apply_deltas(&deltas, dirty);
}

/// Gathers a replicated snapshot (global community id → value) from each
/// owner's dense local array, laid out in the modulo partition order.
fn gather_snapshot(ctx: &RankCtx<'_, Msg>, lvl: &RankLevel, local: &[f64]) -> Vec<f64> {
    let p = ctx.num_ranks();
    let gathered = ctx.allgather_f64(local);
    let mut offsets = vec![0usize; p + 1];
    for r in 0..p {
        offsets[r + 1] = offsets[r] + lvl.part.local_count(r);
    }
    debug_assert_eq!(offsets[p], gathered.len());
    let mut global = vec![0.0f64; lvl.n];
    for (c, g) in global.iter_mut().enumerate() {
        let r = lvl.part.owner(c as u32);
        *g = gathered[offsets[r] + lvl.part.local_index(c as u32)];
    }
    global
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
    /// ≤ the final last slot, which `seal` folds into the bound.
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

    /// Resolves a patch fold — the sentinel, the group's fresh entries
    /// and the cached prefix entries outside the group — against the
    /// cached summary's `bound` on every entry the fold did not see:
    /// `None` when the fold's max falls short of it (the new maximum may
    /// hide among the unchanged candidates, so the vertex needs a full
    /// re-scan), else the new exact-prefix summary.
    fn resolve(mut self, bound: (f64, u32)) -> Option<Self> {
        // A `-∞` bound means the cached fold enumerated every
        // contributing entry, so nothing is hiding below the prefix.
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
        self.seal(bound);
        Some(self)
    }

    /// Closes a fold whose prefix is exact: anything pushed off the
    /// bottom is bounded by the last slot when the prefix is full, and
    /// every entry the fold never saw by `unseen` (`-∞` after a full
    /// scan, which enumerates every entry).
    fn seal(&mut self, unseen: (f64, u32)) {
        self.bound = if (self.v as usize) == SUMMARY_K {
            self.e[SUMMARY_K - 1]
        } else {
            unseen
        };
    }
}

/// FIND BEST's per-vertex kernel over one iteration's replicated
/// snapshots. The full scan and the patch pass both call it, so a
/// patched entry is bitwise the entry a re-scan would fold.
struct GainKernel<'a> {
    tot_snap: &'a [f64],
    size_snap: &'a [f64],
    s: f64,
    use_heuristic: bool,
}

impl GainKernel<'_> {
    /// Gathers local vertex `li`'s live rows into `scratch` and returns
    /// the gain of removing it (degree `k_u`) from its community `c_u`.
    #[inline]
    fn gather(
        &self,
        table: &OutTable,
        scratch: &mut RowScratch,
        li: usize,
        c_u: u32,
        k_u: f64,
    ) -> f64 {
        table.gather(li, scratch);
        self.remove(table, li, c_u, scratch.get(c_u), k_u)
    }

    /// The gain of removing local vertex `li` (degree `k_u`) from its
    /// community `c_u`, whose gathered own row weighs `w_c_u`.
    #[inline]
    fn remove(&self, table: &OutTable, li: usize, c_u: u32, w_c_u: f64, k_u: f64) -> f64 {
        let w_own = w_c_u - table.self_loop(li);
        dq::remove_gain(w_own, k_u, self.tot_snap[c_u as usize], self.s)
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
    let mut scratch = RowScratch::new(lvl.n);
    // The scheduler and the previous iteration's replicated snapshots
    // (for the bitwise diff of wake rule W2). Vertices off the scan
    // frontier keep their *cached* summary — every input of their
    // last scan is bitwise unchanged (else a wake rule would have fired),
    // so the untouched entries still feed `compute_threshold` and the
    // UPDATE sweep the exact values a full rescan would produce.
    let mut frontier = Frontier::new(local_n, lvl.n);
    // Σ_in's per-vertex input (DESIGN.md §10): each vertex's own-row
    // weight `w_{u→c_u}`, cached across iterations; `None` (stale) when
    // the vertex moved in UPDATE or the delta application reported its
    // own row, and re-walked only then.
    let mut own_w: Vec<Option<f64>> = vec![None; local_n];
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

    for iter in 1..=cfg.max_inner_iterations {
        iterations = iter;

        // --- FIND BEST COMMUNITY (frontier-scheduled, DESIGN.md §13) ---
        let tot_snap = gather_snapshot(ctx, lvl, &lvl.tot);
        let size_local: Vec<f64> = lvl.size.iter().map(|&x| f64::from(x)).collect();
        let size_snap = gather_snapshot(ctx, lvl, &size_local);
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
        // a wake rule or by the escalation below — is pending, and the
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
                    let (c_u, w_c_u) = group.rows[0];
                    let remove_u = kernel.remove(table, li, c_u, w_c_u, k[li]);
                    // Fold the *known-exact* entries into a fresh summary:
                    // the sentinel `(0.0, c_u)`, each candidate's freshly
                    // recomputed entry, and every cached prefix entry
                    // outside the group (unchanged, so its cached value is
                    // still bitwise what a re-scan would compute). Every
                    // entry outside this fold is lexicographically ≤ the
                    // cached bound, so the fold's max is the true new max
                    // whenever it reaches the bound — and only when it
                    // falls short (the new maximum may hide among the
                    // unchanged candidates) does the vertex escalate to a
                    // full re-scan.
                    let old = summ[li];
                    let mut f = CandSummary::sentinel(c_u);
                    rows_patched += group.rows.len() - 1;
                    for &(c_new, w) in &group.rows[1..] {
                        // A removed or guard-skipped entry contributes nothing.
                        if let Some(gain) = kernel.gain(c_u, remove_u, k[li], c_new, w) {
                            f.fold(gain, c_new);
                        }
                    }
                    // The group holds `c_u` too, whose sentinel seeds the fold.
                    for &(g, c) in &old.e[..old.v as usize] {
                        if !group.holds(c) {
                            f.fold(g, c);
                        }
                    }
                    f.resolve(old.bound).map(|f| {
                        m_u[li] = f.e[0].0;
                        summ[li] = f;
                        // A patch fold keeps the cached decision exact, so
                        // eligibility routes through the ledger as usual.
                        m_u[li] > 0.0
                    })
                },
            );
        }
        frontier.commit(iter == 1);
        if first_level {
            st.frontier_occupancy.push(frontier.worklist.len() as u64);
        }
        prev_tot.clone_from(&tot_snap);
        prev_size.clone_from(&size_snap);
        let mut rows_scanned = 0usize;
        // Index loop instead of a worklist iterator: the scan updates the
        // eligibility ledger of the same frontier mid-iteration.
        for wi in 0..frontier.worklist.len() {
            let li = frontier.worklist[wi] as usize;
            let c_u = lvl.label[li];
            let mut cs = CandSummary::sentinel(c_u);
            let remove_u = kernel.gather(table, &mut scratch, li, c_u, lvl.k[li]);
            // Candidate communities are exactly the live Out-Table rows
            // of `u`, gathered in first-seen arc order. The fold below is
            // order-independent, so that order never shows.
            for &(c_new, w) in &scratch.rows {
                rows_scanned += 1;
                if c_new == c_u {
                    continue;
                }
                // The best move is the lexicographic max over
                // (gain, community id) — order-independent, so any
                // candidate order selects the identical candidate (the
                // id tie-break the perturbation harness forced).
                // Demoted entries cascade down the summary, keeping the
                // exact top-`SUMMARY_K` of the fold for the patch pass
                // (`total_cmp` Equal means identical bits, so the
                // equal-gain promote leaves the max unchanged).
                if let Some(gain) = kernel.gain(c_u, remove_u, lvl.k[li], c_new, w) {
                    cs.fold(gain, c_new);
                }
            }
            cs.seal((f64::NEG_INFINITY, 0));
            m_u[li] = cs.e[0].0;
            summ[li] = cs;
            // Eligibility ledger: a vertex that still sees a worthwhile
            // gain may merely be ε-throttled this sweep — it can migrate
            // in a later iteration with *no* further input change, so it
            // must stay reachable by the UPDATE sweep. Re-scanning it
            // would be waste, though: with unchanged inputs the cached
            // decision is already exact, so the ledger — not the scan
            // frontier — carries it forward.
            frontier.set_eligible(li, m_u[li] > 0.0);
        }
        // The UPDATE sweep below consumes the rebuilt (ascending)
        // eligible list: freshly scanned vertices contribute their new
        // verdict, unscanned ones their sticky — and still exact — one.
        frontier.commit_eligible();
        // Local compute charge: one unit per candidate row scanned or
        // patched plus one per active vertex (the remove-gain pass). The
        // frontier is schedule-invariant, so the charge — and the
        // simulated clock — remain deterministic.
        ctx.charge((rows_scanned + rows_patched + frontier.worklist.len()) as f64);

        // --- Threshold ΔQ̂ from the ε schedule (Section IV-B) ---
        let threshold = if cfg.use_heuristic {
            compute_threshold(ctx, &m_u, lvl.n, cfg, iter)
        } else {
            0.0
        };
        // The find-best lap closes at the threshold reductions (the scan
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
        let mut tot_view = tot_snap;
        let mut local_moves = 0u64;
        migrated.clear();
        {
            let part = &lvl.part;
            let label = &mut lvl.label;
            let k = &lvl.k;
            let mut ex = ctx.exchange();
            // Movers are a subset of the eligibility ledger (by
            // construction: eligible ⟺ cached `m_u` clears the
            // threshold), and the eligible list is ascending — so this
            // sweep visits the same candidate vertices in the same order
            // as the full `0..local_n` scan, and the Gauss-Seidel
            // `tot_view` evolves bit-identically. ε-throttled vertices
            // ride along on their cached decision without having been
            // re-scanned. Index loop: the mover self-wake below re-arms
            // the pending set of the same frontier mid-sweep.
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
                    own_w[li] = None;
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
                    // the deltas land in the next propagation, where W1
                    // catches any subsequent row birth.)
                    if !table.has_external(li, c_new) {
                        m_u[li] = 0.0;
                        summ[li] = CandSummary::sentinel(c_new);
                        frontier.set_eligible(li, m_u[li] > 0.0);
                    } else {
                        frontier.wake(li);
                    }
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
            // Buffer first, apply in sorted order: Σ_tot is floating
            // point, so the accumulation must be a function of the
            // delta *multiset*, not of the (perturbable, and for
            // mixed-magnitude weights ulp-visible) delivery order.
            let mut tot_deltas: Vec<(u32, (u32, u64))> = Vec::new();
            ex.finish(|m| tot_deltas.push((part.local_index(m.a) as u32, (m.b, m.w.to_bits()))));
            let tot = &mut lvl.tot;
            let size = &mut lvl.size;
            for_each_sorted_bucket(&tot_deltas, tot.len(), |li, deltas| {
                for &(b, w_bits) in deltas {
                    tot[li] += f64::from_bits(w_bits);
                    if b == 1 {
                        size[li] += 1;
                    } else {
                        size[li] -= 1;
                    }
                }
            });
        }
        let moves = ctx.allreduce_sum_u64(local_moves);
        meter.lap(ctx, Phase::UpdateCommunity);
        fractions.push(moves as f64 / lvl.n.max(1) as f64);

        // --- STATE PROPAGATION (Algorithm 4, line 16) ---
        // Delta mode: only migrated vertices are announced. `moves` is
        // the allreduce result, identical on every rank, so when nothing
        // moved anywhere the exchange is skipped in lockstep (the
        // zero-delta fast path) and the iteration still terminates
        // through the modularity collective below.
        //
        // Wake rule W1 — remote re-activation, piggybacked on the deltas
        // (DESIGN.md §13): a received `(u, c_new)` that changes `u`'s
        // cached label moves each of `u`'s arcs from row `(d, c_old)` to
        // row `(d, c_new)`. Both rows are handed to the frontier; the next
        // snapshot-diff pass classifies each into a full re-scan (own row
        // or cached winner touched) or an O(1) scan patch. No-op
        // announcements (the v1 full rebuild re-sends unmoved labels)
        // relabel nothing and dirty nothing, so both ablations schedule
        // identically. The same report keeps Σ_in's own-row cache exact:
        // a vertex whose own row an arc left or joined is re-walked.
        if moves > 0 {
            let label = &lvl.label;
            propagate_deltas(
                ctx,
                lvl,
                table,
                &migrated,
                cfg.v1_state_rebuild,
                |li, a, b| {
                    let (li, c_u) = (li as usize, label[li as usize]);
                    frontier.mark_row_dirty(li, c_u, a);
                    frontier.mark_row_dirty(li, c_u, b);
                    if c_u == a || c_u == b {
                        own_w[li] = None;
                    }
                },
            );
        }
        meter.lap(ctx, Phase::StatePropagation);

        // --- Σ_in and modularity (Algorithm 4, lines 18–25) ---
        q = compute_modularity(ctx, lvl, table, &mut own_w, s);
        meter.lap(ctx, Phase::ComputeModularity);
        meter.end_iteration(first_level);
        q_trace.push(q);

        if moves == 0 {
            break;
        }
        let fraction = moves as f64 / lvl.n.max(1) as f64;
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
    let local_max = m_u.iter().copied().fold(0.0f64, f64::max);
    let hi = ctx.allreduce_max(local_max);
    if hi <= 0.0 {
        return 0.0; // nobody wants to move
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
    let total_positive: f64 = hist.iter().sum();
    let keep = (eps * n_global as f64).ceil();
    if keep >= total_positive {
        return 0.0; // budget not binding: all positive gains move
    }
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

/// Σ_in accumulation and global modularity (Algorithm 4, lines 18–25),
/// from the own-row weights cached in `own_w` (a stale `None` entry is
/// walked afresh).
fn compute_modularity(
    ctx: &mut RankCtx<'_, Msg>,
    lvl: &mut RankLevel,
    out_table: &OutTable,
    own_w: &mut [Option<f64>],
    s: f64,
) -> f64 {
    lvl.internal.iter_mut().for_each(|x| *x = 0.0);
    {
        let part = &lvl.part;
        let label = &lvl.label;
        let mut ex = ctx.exchange();
        // Each local vertex contributes its own-community row, if live.
        for (li, &c) in label.iter().enumerate() {
            let w = *own_w[li].get_or_insert_with(|| out_table.weight(li, c));
            debug_assert_eq!(
                w.to_bits(),
                out_table.weight(li, c).to_bits(),
                "stale own-row weight of local vertex {li}"
            );
            // Dead rows (see the find-best scan) carry no weight and
            // must not be shipped.
            #[allow(clippy::float_cmp)]
            // lint: allow(F1) — a dead row reads exact 0.0 (an empty fold)
            let live = w != 0.0;
            if live {
                ex.send(part.owner(c), Msg { a: c, b: 0, w });
            }
        }
        // Σ_in is floating point: each community sums its contributions
        // in ascending bit order, a function of the message multiset,
        // independent of delivery order (which the perturbation harness
        // scrambles and mixed-magnitude weights expose at ulp scale).
        let mut contribs: Vec<(u32, u64)> = Vec::new();
        ex.finish(|m| contribs.push((part.local_index(m.a) as u32, m.w.to_bits())));
        let internal = &mut lvl.internal;
        for_each_sorted_bucket(&contribs, internal.len(), |li, bits| {
            for &w_bits in bits {
                internal[li] += f64::from_bits(w_bits);
            }
        });
    }
    let mut q_local = 0.0;
    for li in 0..lvl.internal.len() {
        let tot = lvl.tot[li];
        // lint: allow(F1) — exact zero sentinel: empty communities carry Σ_tot = 0.0 exactly
        if tot != 0.0 {
            q_local += lvl.internal[li] / s - (tot / s) * (tot / s);
        }
    }
    ctx.allreduce_sum(q_local)
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

    /// Σ_in's own-row cache on a vertex whose own row changes while it
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

    /// The frontier's schedule and the simulated charges, pinned on a
    /// fixed planted graph: bookkeeping changes to FIND BEST or the
    /// modularity reduction must leave every scan, patch and message —
    /// and so every simulated unit — exactly where it was.
    #[test]
    fn schedule_and_charges_are_pinned() {
        // (graph, ranks, sim_total_units, sim_breakdown as [loading,
        // state propagation, find best, update, modularity,
        // reconstruction], frontier [active, skipped, reactivations]).
        type Pin = (&'static str, usize, f64, [f64; 6], [u64; 3]);
        let pins: [Pin; 6] = [
            (
                "planted",
                1,
                1250798.8000000005,
                [
                    5000.0,
                    115414.0,
                    519939.2000000003,
                    260828.0,
                    264011.9999999999,
                    75605.60000000033,
                ],
                [1570, 2590, 148],
            ),
            (
                "planted",
                2,
                1243057.1,
                [
                    5000.0,
                    115644.0,
                    513131.2000000002,
                    260612.0,
                    263160.0,
                    75509.8999999999,
                ],
                [1570, 2590, 148],
            ),
            (
                "planted",
                4,
                1238481.7,
                [
                    5000.0,
                    115784.0,
                    509725.2000000002,
                    260399.0,
                    262222.0,
                    75351.49999999977,
                ],
                [1570, 2590, 148],
            ),
            (
                "mixed",
                1,
                1016551.3000000002,
                [
                    5000.0,
                    90463.0,
                    406441.80000000034,
                    200925.99999999994,
                    201632.0,
                    102088.49999999988,
                ],
                [1018, 795, 53],
            ),
            (
                "mixed",
                2,
                1258410.4999999998,
                [
                    5000.0,
                    115733.0,
                    498902.39999999997,
                    250695.0,
                    251294.0,
                    126786.0999999998,
                ],
                [1047, 904, 48],
            ),
            (
                "mixed",
                4,
                822367.8000000002,
                [
                    5000.0,
                    70806.99999999994,
                    314372.60000000015,
                    160379.0,
                    160709.0,
                    101100.20000000007,
                ],
                [979, 691, 51],
            ),
        ];
        let planted = planted_graph(11).0;
        let mixed = mixed_magnitude_graph();
        for (name, ranks, total, breakdown, frontier) in pins {
            let el = if name == "planted" { &planted } else { &mixed };
            let r = ParallelLouvain::new(ParallelConfig::with_ranks(ranks)).run(el);
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
