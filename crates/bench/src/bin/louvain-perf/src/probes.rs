//! Layer probes for the traced run: each one times a public entry point
//! of one layer on the workload's own graph, from outside the layer.

use crate::stats::median;
use louvain_core::parallel::Msg;
use louvain_graph::{BalancedPartition, CsrGraph, ModuloPartition, PartitionStrategy};
use louvain_hash::{pack_key, EdgeTable};
use louvain_runtime::{run_with_config, RuntimeConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;
/// Repetitions of the whole-graph passes (hash fill, exchange).
const PASSES: usize = 3;
const ALLGATHERS: u32 = 20;
const ALLREDUCES: u32 = 1000;

/// Seconds per call of `f`: calls are batched until one batch takes at
/// least a millisecond, then the median of five batches is reported, so
/// operations far below the clock's resolution still read true.
pub fn seconds_per_call(mut f: impl FnMut()) -> f64 {
    let mut reps = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / f64::from(reps)
        })
        .collect();
    median(&batches)
}

/// Time to build the level-0 ownership map the workload's solver uses:
/// an O(1) modulo map, or the LPT assignment over per-vertex arc counts.
pub fn partition_seconds(csr: &CsrGraph, ranks: usize, strategy: PartitionStrategy) -> f64 {
    let n = csr.num_vertices();
    match strategy {
        PartitionStrategy::Modulo => seconds_per_call(|| {
            black_box(ModuloPartition::new(black_box(n), ranks));
        }),
        PartitionStrategy::ArcBalanced => {
            let loads: Vec<f64> = (0..n as u32).map(|u| csr.arc_count(u) as f64).collect();
            seconds_per_call(|| {
                black_box(BalancedPartition::from_loads(black_box(&loads), ranks));
            })
        }
    }
}

pub struct HashProbe {
    pub accumulate_ns: f64,
    pub get_ns: f64,
    pub mean_probe_length: f64,
    pub table_mb: f64,
}

/// Fills one `EdgeTable` with every arc of the graph keyed
/// `pack_key(dst, src)`, as the solver's In-Table is keyed, then looks
/// every key up again.
pub fn hash_probe(csr: &CsrGraph) -> HashProbe {
    let arcs: Vec<(u64, f64)> = (0..csr.num_vertices() as u32)
        .flat_map(|u| csr.neighbors(u).map(move |(v, w)| (pack_key(v, u), w)))
        .collect();
    let per_op = |d: Duration| d.as_secs_f64() * 1e9 / arcs.len().max(1) as f64;
    let mut table = EdgeTable::new(arcs.len());
    let mut acc = Vec::with_capacity(PASSES);
    let mut get = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        table.reset();
        let t = Instant::now();
        for &(k, w) in &arcs {
            table.accumulate(k, w);
        }
        acc.push(per_op(t.elapsed()));
        let t = Instant::now();
        let mut sum = 0.0;
        for &(k, _) in &arcs {
            sum += table.get(black_box(k)).unwrap_or(0.0);
        }
        black_box(sum);
        get.push(per_op(t.elapsed()));
    }
    HashProbe {
        accumulate_ns: median(&acc),
        get_ns: median(&get),
        mean_probe_length: table.mean_probe_length(),
        // One u64 key and one f64 weight per slot.
        table_mb: table.capacity() as f64 * 16.0 / MIB,
    }
}

pub struct RuntimeProbe {
    pub exchange_ns_per_msg: f64,
    pub allgather_ns_per_elem: f64,
    pub allreduce_us: f64,
}

/// Drives the runtime at the workload's rank count: an all-to-all of
/// every arc to the modulo owner of its destination, allgathers of n/p
/// floats per rank, and scalar allreduces. Each time is the slowest
/// rank's, as a collective finishes with its last rank.
pub fn runtime_probe(csr: &CsrGraph, ranks: usize) -> RuntimeProbe {
    let n = csr.num_vertices();
    let arcs = csr.num_arcs().max(1) as f64;
    let (per_rank, _) = run_with_config::<Msg, [f64; 3], _>(RuntimeConfig::new(ranks), |ctx| {
        let rank = ctx.rank();
        let p = ctx.num_ranks();
        let mut exchange = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            ctx.barrier();
            let t = Instant::now();
            let mut ex = ctx.exchange();
            for u in (rank..n).step_by(p) {
                for (v, w) in csr.neighbors(u as u32) {
                    let msg = Msg {
                        a: u as u32,
                        b: v,
                        w,
                    };
                    ex.send(v as usize % p, msg);
                }
            }
            let mut got = 0.0;
            ex.finish(|m| got += m.w);
            black_box(got);
            exchange.push(t.elapsed().as_secs_f64() * 1e9 / arcs);
        }
        let xs = vec![1.0; n / p];
        ctx.barrier();
        let t = Instant::now();
        for _ in 0..ALLGATHERS {
            black_box(ctx.allgather_f64(&xs));
        }
        let gathered = (xs.len() * p).max(1) as f64 * f64::from(ALLGATHERS);
        let allgather = t.elapsed().as_secs_f64() * 1e9 / gathered;
        ctx.barrier();
        let t = Instant::now();
        for _ in 0..ALLREDUCES {
            black_box(ctx.allreduce_sum(1.0));
        }
        let allreduce = t.elapsed().as_secs_f64() * 1e6 / f64::from(ALLREDUCES);
        [median(&exchange), allgather, allreduce]
    });
    let slowest = |i: usize| per_rank.iter().map(|r| r[i]).fold(0.0, f64::max);
    RuntimeProbe {
        exchange_ns_per_msg: slowest(0),
        allgather_ns_per_elem: slowest(1),
        allreduce_us: slowest(2),
    }
}
