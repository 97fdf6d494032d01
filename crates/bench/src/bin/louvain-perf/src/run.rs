//! One run of one workload: set-up, warm-up, timed solves, sequential
//! baseline, checks, and (traced runs only) the layer probes.

use crate::host::peak_rss_mb;
use crate::input;
use crate::probes;
use crate::spans::Spans;
use crate::spec::{MetricSpec, Workload, END_TO_END, PER_LAYER};
use louvain_core::json::Json;
use louvain_core::parallel::{ParallelConfig, ParallelLouvain, ParallelResult};
use louvain_core::seq::{SeqConfig, SequentialLouvain};
use louvain_core::timing::Phase;
use louvain_graph::io::read_edge_list;
use louvain_graph::{CsrGraph, EdgeList};
use louvain_metrics::{modularity, Partition};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How often a timed step repeats: at least `reps` times and for at
/// least `min` wall time, so a step of a few milliseconds still gives its
/// median many samples.
#[derive(Clone, Copy, Debug)]
struct Repeat {
    reps: usize,
    min: Duration,
}

impl Repeat {
    fn done(self, reps: usize, started: Instant) -> bool {
        reps >= self.reps && started.elapsed() >= self.min
    }
}

/// Parse + CSR builds; `setup_s` is their median. Traced runs skip the
/// time floor, which keeps their span count and trace file small.
const SETUP: Repeat = Repeat {
    reps: 9,
    min: Duration::from_millis(500),
};
const TRACED_SETUP: Repeat = Repeat {
    reps: 9,
    min: Duration::ZERO,
};
const SEQ: Repeat = Repeat {
    reps: 10,
    min: Duration::from_secs(1),
};
/// Fewest timed parallel solves, however long each one takes; they
/// repeat for the run's `--seconds`.
const MIN_SOLVES: usize = 3;
/// Traced runs time each solver once.
const ONCE: Repeat = Repeat {
    reps: 1,
    min: Duration::ZERO,
};
/// Largest accepted gap between a solver's reported Q and the
/// recomputation by `louvain_metrics::modularity`.
const Q_TOLERANCE: f64 = 1e-9;

/// Every `ParallelResult` field the benchmark reads, taken in
/// [`read_parallel`] alone, so a change to the result type is remapped
/// in one place.
struct Readings {
    q: f64,
    partition: Partition,
    first_level_s: f64,
    input_edges: usize,
    sim_total: f64,
    /// Loading, state propagation, find best, update, modularity,
    /// reconstruction.
    sim: [f64; 6],
    /// Critical-path wall time per phase, in `Phase::ALL` order.
    phase_s: [f64; 6],
    messages: u64,
    packets: u64,
    bytes_sent: u64,
    syncs: u64,
    imbalance: f64,
    levels: usize,
    inner_iterations: usize,
    moves: f64,
    scans: u64,
    skipped_scans: u64,
    trace_events: usize,
}

fn read_parallel(r: ParallelResult) -> Readings {
    let s = r.sim_breakdown;
    let levels = &r.result.levels;
    Readings {
        q: r.result.final_modularity,
        first_level_s: r.first_level_time.as_secs_f64(),
        input_edges: r.input_edges,
        sim_total: r.sim_total_units,
        sim: [
            s.loading,
            s.state_propagation,
            s.find_best,
            s.update,
            s.modularity,
            s.reconstruction,
        ],
        phase_s: Phase::ALL.map(|p| r.timers.get(p).as_secs_f64()),
        messages: r.comm.messages,
        packets: r.comm.packets,
        bytes_sent: r.bytes_sent,
        syncs: r.syncs,
        imbalance: r.imbalance,
        levels: levels.len(),
        inner_iterations: levels.iter().map(|l| l.inner_iterations).sum(),
        moves: levels
            .iter()
            .map(|l| {
                let n = l.num_vertices as f64;
                l.move_fractions
                    .iter()
                    .map(|f| (f * n).round())
                    .sum::<f64>()
            })
            .sum(),
        scans: r.frontier.active_vertices,
        skipped_scans: r.frontier.skipped_scans,
        trace_events: r.traces.iter().map(|t| t.events.len()).sum(),
        partition: r.result.final_partition,
    }
}

/// Operations attempted and the checks they failed.
pub struct Checks {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn new(workload: &'static str) -> Self {
        Checks {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records one attempted operation that failed the named checks
    /// (none when it passed). Each failure is printed as it happens.
    pub fn op(&mut self, failed: Vec<String>) {
        self.attempted += 1;
        if !failed.is_empty() {
            self.failed += 1;
        }
        for check in failed {
            println!("FAIL {} {check}", self.workload);
            self.failures.push(check);
        }
    }
}

/// The result of checking one reported solution.
pub struct Verified {
    pub failures: Vec<String>,
    pub q_abs_err: f64,
    pub modularity_s: f64,
}

/// Checks that `p` is a valid partition of all `n` vertices and that the
/// reported `q` matches the textbook modularity of `p`.
pub fn verify(kind: &str, csr: &CsrGraph, p: &Partition, q: f64) -> Verified {
    if p.num_vertices() != csr.num_vertices() || !p.is_valid() {
        // Q of an invalid partition is undefined; report the largest
        // finite error so the result stays valid JSON.
        return Verified {
            failures: vec![format!("{kind}.partition")],
            q_abs_err: f64::MAX,
            modularity_s: 0.0,
        };
    }
    let t = Instant::now();
    let q_abs_err = (q - modularity(csr, p)).abs();
    let modularity_s = t.elapsed().as_secs_f64();
    let failures = if q_abs_err <= Q_TOLERANCE {
        Vec::new()
    } else {
        vec![format!("{kind}.modularity")]
    };
    Verified {
        failures,
        q_abs_err,
        modularity_s,
    }
}

/// A repeated solve must reproduce the reference bit for bit.
fn repeat_failures(
    kind: &str,
    reference: (f64, &Partition),
    again: (f64, &Partition),
) -> Vec<String> {
    if reference.0.to_bits() == again.0.to_bits() && reference.1.labels() == again.1.labels() {
        Vec::new()
    } else {
        vec![format!("{kind}.repeat")]
    }
}

pub struct Outcome {
    pub checks: Checks,
    /// Samples per metric, in the order of the spec tables.
    pub metrics: Vec<(&'static MetricSpec, Vec<f64>)>,
    pub spans: Spans,
    /// Duration of the traced solve (traced runs only).
    pub traced_solve_s: Option<f64>,
}

struct Setup {
    edges: EdgeList,
    csr: CsrGraph,
    total_s: Vec<f64>,
    parse_s: Vec<f64>,
    csr_s: Vec<f64>,
}

/// Parses the rendered text and builds the CSR as often as `repeat`
/// says, keeping the last copy as the solver input.
fn setup(
    spans: &mut Spans,
    checks: &mut Checks,
    repeat: Repeat,
    generated: &EdgeList,
    text: &[u8],
) -> Setup {
    let o = spans.open("setup");
    let mut last = None;
    let (mut total_s, mut parse_s, mut csr_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while !repeat.done(total_s.len(), started) {
        let p = spans.open("graph.parse");
        let edges = read_edge_list(text).expect("text rendered by write_edge_list parses");
        let parse = spans.close(p);
        let c = spans.open("graph.csr");
        let csr = edges.to_csr();
        let build = spans.close(c);
        parse_s.push(parse.as_secs_f64());
        csr_s.push(build.as_secs_f64());
        total_s.push((parse + build).as_secs_f64());
        let round_trips =
            edges.num_vertices() == generated.num_vertices() && edges.edges() == generated.edges();
        checks.op(if round_trips {
            Vec::new()
        } else {
            vec!["setup.roundtrip".to_string()]
        });
        last = Some((edges, csr));
    }
    spans.close(o);
    let (edges, csr) = last.expect("SETUP repeats at least once");
    Setup {
        edges,
        csr,
        total_s,
        parse_s,
        csr_s,
    }
}

/// Per-layer readings of one solve, attached to its span as well.
fn solve_layer_metrics(r: &Readings, solve: Duration, ranks: usize) -> Vec<(&'static str, f64)> {
    let [sp, fb, up, md, refine, recon] = r.phase_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let scans = r.scans as f64;
    vec![
        ("graph.imbalance", r.imbalance),
        ("runtime.messages", r.messages as f64),
        ("runtime.bytes_sent", r.bytes_sent as f64),
        ("runtime.packets", r.packets as f64),
        ("runtime.syncs", r.syncs as f64),
        ("core.state_propagation_s", sp),
        ("core.find_best_s", fb),
        ("core.update_s", up),
        ("core.modularity_s", md),
        ("core.refine_s", refine),
        ("core.reconstruction_s", recon),
        ("core.other_s", solve.as_secs_f64() - refine - recon),
        ("core.first_level_s", r.first_level_s),
        ("core.levels", r.levels as f64),
        ("core.inner_iterations", r.inner_iterations as f64),
        ("core.scans", scans),
        (
            "core.scan_skip_ratio",
            ratio(r.skipped_scans as f64, scans + r.skipped_scans as f64),
        ),
        ("core.moves_per_scan", ratio(r.moves, scans)),
        // Scans are summed over ranks but find-best time is the slowest
        // rank's, so this is the cost of one scan on one rank.
        (
            "core.find_best_ns_per_scan",
            ratio(fb * 1e9 * ranks as f64, scans),
        ),
        ("core.sim.loading", r.sim[0]),
        ("core.sim.state_propagation", r.sim[1]),
        ("core.sim.find_best", r.sim[2]),
        ("core.sim.update", r.sim[3]),
        ("core.sim.modularity", r.sim[4]),
        ("core.sim.reconstruction", r.sim[5]),
        ("trace.events", r.trace_events as f64),
    ]
}

fn probe<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> T {
    let o = spans.open(name);
    let out = f();
    spans.close(o);
    out
}

/// Runs workload `w` on its graph, rendered as text shuffled by `seed`
/// (see `input.rs`). Untraced, the timed parallel solves repeat for
/// `seconds` (at least `MIN_SOLVES`) and the end-to-end metrics are
/// reported; traced, one solve is timed inside a span and the per-layer
/// metrics are reported.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut spans = Spans::new(traced);
    let mut checks = Checks::new(w.name);
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let root = spans.open("workload");

    // The solver only ever sees parsed text; making it is untimed.
    let generated = (w.graph)();
    let text = input::render(&generated, seed);
    let Setup {
        edges,
        csr,
        total_s,
        parse_s,
        csr_s,
    } = setup(
        &mut spans,
        &mut checks,
        if traced { TRACED_SETUP } else { SETUP },
        &generated,
        &text,
    );
    // Only the parsed input stays alive while the solvers run.
    drop((generated, text));

    let solver = ParallelLouvain::new(ParallelConfig {
        partition: w.partition,
        ..ParallelConfig::with_ranks(w.ranks)
    });
    let o = spans.open("warmup");
    let reference = read_parallel(solver.run(&edges));
    spans.close(o);
    let same_as_reference = |r: &Readings| {
        repeat_failures(
            "parallel",
            (reference.q, &reference.partition),
            (r.q, &r.partition),
        )
    };

    let solves = if traced {
        ONCE
    } else {
        Repeat {
            reps: MIN_SOLVES,
            min: Duration::from_secs_f64(seconds),
        }
    };
    let started = Instant::now();
    let (mut solve_s, mut teps, mut last) = (Vec::new(), Vec::new(), None);
    while !solves.done(solve_s.len(), started) {
        let o = spans.open("solve");
        let r = read_parallel(solver.run(&edges));
        let d = spans.close(o);
        checks.op(same_as_reference(&r));
        solve_s.push(d.as_secs_f64());
        teps.push(r.input_edges as f64 / r.first_level_s);
        last = Some((r, d, o));
    }

    let seq_solver = SequentialLouvain::new(SeqConfig::default());
    let (mut seq_s, mut seq_first) = (Vec::new(), None);
    let seqs = if traced { ONCE } else { SEQ };
    let started = Instant::now();
    while !seqs.done(seq_s.len(), started) {
        let o = spans.open("seq");
        let r = seq_solver.run(&csr);
        seq_s.push(spans.close(o).as_secs_f64());
        match &seq_first {
            // The first sequential solve is checked in full below.
            None => seq_first = Some((r.final_modularity, r.final_partition)),
            Some((q, p)) => checks.op(repeat_failures(
                "seq",
                (*q, p),
                (r.final_modularity, &r.final_partition),
            )),
        }
    }

    let o = spans.open("verify");
    let par = verify("parallel", &csr, &reference.partition, reference.q);
    let (seq_q, seq_p) = seq_first.expect("at least one sequential solve");
    let seq = verify("seq", &csr, &seq_p, seq_q);
    spans.close(o);
    checks.op(par.failures);
    checks.op(seq.failures);

    let mut put = |name: &'static str, v: Vec<f64>| {
        values.insert(name, v);
    };
    let specs: &'static [MetricSpec] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut traced_solve_s = None;
    if traced {
        let (r, d, o) = last.expect("one traced solve");
        let partition_s = probe(&mut spans, "probe.partition", || {
            probes::partition_seconds(&csr, w.ranks, w.partition)
        });
        let hash = probe(&mut spans, "probe.hash", || probes::hash_probe(&csr));
        let rt = probe(&mut spans, "probe.runtime", || {
            probes::runtime_probe(&csr, w.ranks)
        });
        for (name, v) in solve_layer_metrics(&r, d, w.ranks) {
            spans.annotate(o, name, Json::Num(v));
            put(name, vec![v]);
        }
        traced_solve_s = Some(d.as_secs_f64());
        put("graph.parse_s", parse_s);
        put("graph.csr_s", csr_s);
        put("graph.partition_s", vec![partition_s]);
        put("hash.accumulate_ns", vec![hash.accumulate_ns]);
        put("hash.get_ns", vec![hash.get_ns]);
        put("hash.mean_probe_length", vec![hash.mean_probe_length]);
        put("hash.table_mb", vec![hash.table_mb]);
        put("runtime.exchange_ns_per_msg", vec![rt.exchange_ns_per_msg]);
        put(
            "runtime.allgather_ns_per_elem",
            vec![rt.allgather_ns_per_elem],
        );
        put("runtime.allreduce_us", vec![rt.allreduce_us]);
        put("metrics.modularity_s", vec![par.modularity_s]);
        put("metrics.q_abs_err", vec![par.q_abs_err]);
    } else {
        put("setup_s", total_s);
        put("solve_s", solve_s);
        put("teps", teps);
        put("seq_solve_s", seq_s);
        put("modularity", vec![reference.q]);
        put("sim_time_units", vec![reference.sim_total]);
        // Read after every solve, so the peak covers all of them.
        let rss = peak_rss_mb().expect("VmHWM readable from /proc/self/status");
        put("peak_rss_mb", vec![rss]);
    }
    spans.close(root);
    let metrics = specs
        .iter()
        .map(|m| {
            let v = values
                .remove(m.name)
                .unwrap_or_else(|| panic!("run produced no `{}` samples", m.name));
            assert!(v.iter().all(|x| x.is_finite()), "non-finite `{}`", m.name);
            (m, v)
        })
        .collect();
    assert!(values.is_empty(), "metrics outside the spec: {values:?}");
    Outcome {
        checks,
        metrics,
        spans,
        traced_solve_s,
    }
}

#[cfg(test)]
pub(crate) fn median_of(outcome: &Outcome, name: &str) -> f64 {
    let (_, v) = outcome
        .metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .unwrap_or_else(|| panic!("no metric `{name}`"));
    crate::stats::median(v)
}
