//! Stress and soak tests for the simulated distributed runtime — the
//! substrate every distributed experiment rests on.

use louvain_runtime::sim::{CHARGE_PER_MESSAGE, SYNC_LATENCY_UNITS};
use louvain_runtime::{run, run_with_config, RuntimeConfig};

/// Many small alternating exchange/collective phases: the pattern the
/// Louvain inner loop produces, at a phase count well above any real run.
#[test]
fn alternating_phases_soak() {
    let out = run::<u64, _, _>(6, |ctx| {
        let p = ctx.num_ranks();
        let rank = ctx.rank() as u64;
        let mut checksum = 0u64;
        for phase in 0..200u64 {
            let mut ex = ctx.exchange();
            // Ring + broadcast traffic, phase-tagged.
            ex.send(((rank + 1) % p as u64) as usize, phase * 1000 + rank);
            if phase % 3 == 0 {
                for d in 0..p {
                    ex.send(d, phase);
                }
            }
            let mut local = 0u64;
            ex.finish(|m| local ^= m);
            checksum = checksum.wrapping_add(local);
            let total = ctx.allreduce_sum_u64(local);
            checksum ^= total;
        }
        checksum
    });
    // Determinism under load: repeat and compare.
    let out2 = run::<u64, _, _>(6, |ctx| {
        let p = ctx.num_ranks();
        let rank = ctx.rank() as u64;
        let mut checksum = 0u64;
        for phase in 0..200u64 {
            let mut ex = ctx.exchange();
            ex.send(((rank + 1) % p as u64) as usize, phase * 1000 + rank);
            if phase % 3 == 0 {
                for d in 0..p {
                    ex.send(d, phase);
                }
            }
            let mut local = 0u64;
            ex.finish(|m| local ^= m);
            checksum = checksum.wrapping_add(local);
            let total = ctx.allreduce_sum_u64(local);
            checksum ^= total;
        }
        checksum
    });
    assert_eq!(out, out2);
}

/// Heavily skewed traffic: one hot destination (rank 0 owns a hub
/// community), exactly the imbalance the paper's 1D decomposition
/// produces on scale-free graphs.
#[test]
fn skewed_all_to_one() {
    let (out, stats) = run_with_config::<u64, _, _>(
        RuntimeConfig {
            coalesce_capacity: 64,
            ..RuntimeConfig::new(8)
        },
        |ctx| {
            let mut ex = ctx.exchange();
            for i in 0..50_000u64 {
                ex.send(0, i);
            }
            let mut count = 0u64;
            ex.finish(|_| count += 1);
            count
        },
    );
    assert_eq!(out[0], 8 * 50_000);
    assert!(out[1..].iter().all(|&c| c == 0));
    // 7 remote senders * 50k messages.
    assert_eq!(stats.messages, 7 * 50_000);
}

/// The BSP clock must reflect skew: the hot receiver dominates.
#[test]
fn bsp_clock_sees_receiver_hotspot() {
    let cfg = RuntimeConfig {
        coalesce_capacity: 256,
        ..RuntimeConfig::new(4)
    };
    let (out, _) = run_with_config::<u64, _, _>(cfg, |ctx| {
        let rank = ctx.rank();
        let mut ex = ctx.exchange();
        if rank != 0 {
            for i in 0..1000u64 {
                ex.send(0, i);
            }
        }
        ex.finish(|_| ());
        ctx.sim_time_units()
    });
    // Receiver handles 3000 deliveries; each sender only 1000 sends. The
    // superstep costs max = 3000 messages plus its latency, and the final
    // sync adds only its latency.
    let want = 3000.0 * CHARGE_PER_MESSAGE + 2.0 * SYNC_LATENCY_UNITS;
    assert!(out.iter().all(|&t| (t - want).abs() < 1e-9), "{out:?}");
}

/// Mixed-size vector collectives under iteration.
#[test]
fn vector_collectives_soak() {
    let out = run::<(), _, _>(5, |ctx| {
        let mut acc = 0.0f64;
        for round in 1..=40usize {
            let mine = vec![ctx.rank() as f64; round];
            let sum = ctx.allreduce_sum_vec(&mine);
            // Σ ranks = 10 in every slot.
            assert!(sum.iter().all(|&x| (x - 10.0).abs() < 1e-12));
            acc += sum[0];
            let gathered = ctx.allgather_f64(&[ctx.rank() as f64]);
            assert_eq!(gathered, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        }
        acc
    });
    assert!(out.iter().all(|&x| (x - 400.0).abs() < 1e-9));
}

/// 64 ranks on one core: heavy oversubscription still completes and
/// stays correct.
#[test]
fn oversubscribed_ranks() {
    let out = run::<u64, _, _>(64, |ctx| {
        let p = ctx.num_ranks();
        let rank = ctx.rank() as u64;
        let mut ex = ctx.exchange();
        for d in 0..p {
            ex.send(d, rank);
        }
        let mut sum = 0u64;
        ex.finish(|m| sum += m);
        sum
    });
    // Each rank receives 0 + 1 + ... + 63 = 2016.
    assert!(out.iter().all(|&s| s == 2016));
}
