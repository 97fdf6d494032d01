// lint-fixture-path: crates/core/src/fixture_clean.rs
//! Clean fixture: the negative control — no rule fires here. Every rule
//! has a labeled `near-miss(ID)` block exercising the pattern *next to*
//! its trigger, so rule tightening that overshoots fails the clean test.
//! (Cross-checks Section IV's determinism requirement by construction.)

use std::collections::BTreeMap;
use std::time::Duration;

/// near-miss(D1): deterministic tally in key order — BTreeMap, not the
/// banned randomized-hasher containers (which this comment may name:
/// HashMap — comments are out of scope).
pub fn tally(pairs: &[(u32, f64)]) -> f64 {
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for &(c, w) in pairs {
        *acc.entry(c).or_insert(0.0) += w;
    }
    acc.values().sum()
}

/// near-miss(F1): integer equality is fine; only float literals are in
/// scope.
pub fn is_single(n: usize) -> bool {
    n == 1
}

/// near-miss(F2): shifts that are not the 32-bit id pack/unpack shape.
pub fn octuple(x: u64) -> u64 {
    x << 3
}

/// near-miss(U1): `unsafe` with the mandatory SAFETY comment.
pub fn first_byte(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // SAFETY: the assert above guarantees index 0 is in bounds.
    unsafe { *bytes.get_unchecked(0) }
}

/// near-miss(P1): `unwrap_or` is total — only `unwrap()`/`expect(` are
/// banned.
pub fn or_zero(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}

// near-miss(C1): this file is not a crate root, so the doc-invariant
// rule does not apply to it.

/// near-miss(R1): a well-formed exchange phase — loop-local
/// `break`/`continue` stay inside the loop and the phase always reaches
/// `finish()`.
pub fn scatter(ctx: &mut Ctx, xs: &[u32]) {
    let mut ex = ctx.exchange();
    for &x in xs {
        if x == 0 {
            continue;
        }
        if x == u32::MAX {
            break;
        }
        ex.send(0, x);
    }
    ex.finish(|_| {});
}

/// near-miss(R2): the condition reads `rank`, but the collective sits
/// *after* the branch — every rank still enters it.
pub fn log_leader(ctx: &Ctx, rank: usize) {
    if rank == 0 {
        note_leader();
    }
    ctx.barrier();
}

/// near-miss(R3): `std::cmp::Ordering` is not an atomic memory ordering.
pub fn ordered(a: u32, b: u32) -> bool {
    matches!(a.cmp(&b), std::cmp::Ordering::Less)
}

/// near-miss(R4): the conditional is rank-divergent (taint flows through
/// `leader`), but both arms have identical protocol effect.
pub fn symmetric_arms(ctx: &Ctx) {
    let leader = ctx.rank() == 0;
    if leader {
        ctx.barrier();
    } else {
        ctx.barrier();
    }
}

/// near-miss(R5): the trip count comes from an allreduce — replicated on
/// every rank, so all ranks run the same number of barrier rounds.
pub fn replicated_rounds(ctx: &Ctx) {
    let rounds = ctx.allreduce_sum_u64(3);
    for _ in 0..rounds {
        ctx.barrier();
    }
}

/// near-miss(T1): `Duration` arithmetic is fine; only wall-clock *reads*
/// (`Instant::now`, `SystemTime::now`) are banned.
pub fn debounce() -> Duration {
    Duration::from_millis(5)
}

// near-miss(SUP): a well-formed suppression (rule id + reason) on a
// non-violating line is inert — neither the rule nor SUP fires.
// lint: allow(P1) — demonstration of a complete suppression comment
pub fn suppressed_but_clean(x: u32) -> u32 {
    x
}

/// near-miss(M1): the exchange loop is bounded by the Out-Table — a
/// recognized solver quantity — so the volume classifies `O(local_arcs)`
/// in the cost lattice, not `Unbounded`.
pub fn announce(ctx: &mut Ctx, out_table: &Table) {
    let mut ex = ctx.exchange();
    for (key, w) in out_table.iter() {
        ex.send(0, key);
    }
    ex.finish(|_| {});
}

/// near-miss(A1): per-iteration buffers in a traced region are fine when
/// pre-sized (`with_capacity`), and `Vec::new` growth outside any
/// `Event::Enter`/`Event::Exit` bracket is off the measured hot path.
pub fn staging(items: &[u32]) -> Vec<u32> {
    louvain_trace::emit_with(|| Event::Enter {
        phase: "staging",
        clock: 0.0,
    });
    let mut rows = Vec::new();
    for &it in items.iter() {
        let mut row = Vec::with_capacity(2);
        row.push(it);
        rows.push(row);
    }
    louvain_trace::emit_with(|| Event::Exit {
        phase: "staging",
        clock: 0.0,
    });
    let mut flat = Vec::new();
    for row in rows.iter() {
        flat.extend(row.iter().copied());
    }
    flat
}

/// near-miss(X1): checkpoint I/O placed where the solver actually puts
/// it — at the level boundary, after the phase `Exit` bracket — with
/// only the pure cadence predicate inside the driver flow. No traced
/// clock is charged for the serialization.
pub fn boundary_checkpoint(store: &CheckpointStore, cp: &Checkpoint, level_idx: usize) {
    louvain_trace::emit_with(|| Event::Enter {
        phase: "reconstruction",
        clock: 0.0,
    });
    rebuild(cp);
    louvain_trace::emit_with(|| Event::Exit {
        phase: "reconstruction",
        clock: 0.0,
    });
    if checkpoint_due(level_idx) {
        let _bytes = store.save_slot(cp);
    }
}
