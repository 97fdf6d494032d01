//! Cross-cutting runtime guarantees: determinism of the full collective
//! surface, exchange accounting, and sim-clock agreement across ranks.

use louvain_runtime::{run, run_with_config, RuntimeConfig};

/// Exchange `sent_count` includes buffered, flushed, and self messages.
#[test]
fn sent_count_accounts_for_everything() {
    let out = run::<u32, _, _>(3, |ctx| {
        let rank = ctx.rank();
        let p = ctx.num_ranks();
        let mut ex = ctx.exchange();
        for i in 0..100u32 {
            ex.send((rank + i as usize) % p, i);
        }
        let sent = ex.sent_count();
        ex.finish(|_| ());
        sent
    });
    assert_eq!(out, vec![100, 100, 100]);
}

/// pending_work reflects charges and resets at sync.
#[test]
fn pending_work_lifecycle() {
    let out = run::<(), _, _>(2, |ctx| {
        assert_eq!(ctx.pending_work(), 0.0);
        ctx.charge(12.5);
        let before = ctx.pending_work();
        ctx.sim_sync();
        let after = ctx.pending_work();
        (before, after)
    });
    assert!(out.iter().all(|&(b, a)| b == 12.5 && a == 0.0));
}

/// All ranks observe the same simulated clock at every sync point.
#[test]
fn sim_clock_globally_consistent() {
    let out = run::<u64, _, _>(5, |ctx| {
        let mut readings = Vec::new();
        for round in 0..10u64 {
            ctx.charge((ctx.rank() as f64 + 1.0) * round as f64);
            readings.push(ctx.sim_sync());
        }
        readings
    });
    for r in 1..5 {
        assert_eq!(out[0], out[r], "rank {r} disagreed on the clock");
    }
    // Clock is strictly increasing with the default latency.
    for w in out[0].windows(2) {
        assert!(w[1] > w[0]);
    }
}

/// The full surface (exchange + every collective) is deterministic across
/// repeated runs.
#[test]
fn whole_surface_deterministic() {
    fn trial() -> Vec<(u64, f64, f64)> {
        let cfg = RuntimeConfig {
            coalesce_capacity: 7,
            ..RuntimeConfig::new(5)
        };
        run_with_config::<u64, _, _>(cfg, |ctx| {
            let rank = ctx.rank() as u64;
            let p = ctx.num_ranks() as u64;
            let mut received = 0u64;
            for phase in 0..5u64 {
                let mut ex = ctx.exchange();
                for i in 0..(rank + 3) * 7 {
                    ex.send(((i + phase) % p) as usize, i * 31 + rank);
                }
                // Order-independent fold: packet arrival order is
                // intentionally unspecified; only commutative
                // accumulations are guaranteed deterministic.
                ex.finish(|m| received = received.wrapping_add(m.wrapping_mul(m ^ 0x9E37)));
            }
            let s = ctx.allreduce_sum(rank as f64 * 0.25);
            let v = ctx.allreduce_sum_vec(&[rank as f64, 1.0])[0];
            let total = ctx.allreduce_sum_u64(rank + 1) as f64;
            let first = ctx.allgather_f64(&[s + v])[0];
            (received, first, total)
        })
        .0
    }
    let a = trial();
    let b = trial();
    assert_eq!(a, b);
}

/// Skewed per-rank result types: heavy per-rank payloads survive the
/// scoped-thread collection in rank order.
#[test]
fn results_returned_in_rank_order() {
    let out = run::<(), _, _>(9, |ctx| vec![ctx.rank(); ctx.rank() + 1]);
    for (r, v) in out.iter().enumerate() {
        assert_eq!(v.len(), r + 1);
        assert!(v.iter().all(|&x| x == r));
    }
}

/// End-to-end determinism of the full distributed solver on top of this
/// runtime: running `ParallelLouvain` twice on the same seeded graph must
/// produce bit-identical modularity traces and final partitions. This is
/// the property the lint pass (rule D1) and the commutative-accumulation
/// discipline of the exchange layer exist to protect.
#[test]
fn parallel_louvain_bit_identical_across_repeat_runs() {
    use louvain_core::parallel::{ParallelConfig, ParallelLouvain};
    use louvain_graph::gen::planted::{generate_planted, PlantedConfig};

    let (edges, _truth) = generate_planted(
        &PlantedConfig {
            communities: 6,
            community_size: 20,
            p_in: 0.35,
            p_out: 0.02,
        },
        42,
    );

    for ranks in [2usize, 4] {
        let solve = || ParallelLouvain::new(ParallelConfig::with_ranks(ranks)).run(&edges);
        let a = solve();
        let b = solve();

        // Per-level modularity and the inner-loop Q traces must agree to
        // the last bit — `assert_eq!` on f64 is exactly the point here.
        let traces = |r: &louvain_core::parallel::ParallelResult| {
            r.result
                .levels
                .iter()
                .map(|l| (l.modularity.to_bits(), trace_bits(&l.q_trace)))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            traces(&a),
            traces(&b),
            "{ranks} ranks: modularity traces diverged between identical runs"
        );
        assert_eq!(
            a.result.final_modularity.to_bits(),
            b.result.final_modularity.to_bits(),
            "{ranks} ranks: final modularity diverged"
        );
        assert_eq!(
            a.result.final_partition, b.result.final_partition,
            "{ranks} ranks: final partitions diverged"
        );
        assert_eq!(
            a.result.level_partitions, b.result.level_partitions,
            "{ranks} ranks: per-level partitions diverged"
        );
    }
}

/// Bit-pattern view of a Q trace, so equality is exact rather than
/// tolerance-based.
fn trace_bits(trace: &[f64]) -> Vec<u64> {
    trace.iter().map(|q| q.to_bits()).collect()
}
