//! What the benchmark runs and what it reports: the workload table and
//! the two metric tables. `BENCHMARK.json` at the repository root must
//! list exactly these names, units, directions and bounds (a test in
//! `main.rs` checks it), and `compare` judges regressions against the
//! bounds given here.

use louvain_graph::gen::rmat::{generate_rmat, RmatConfig};
use louvain_graph::registry::by_name;
use louvain_graph::{EdgeList, PartitionStrategy};

/// Length of the timed parallel-solve loop when `--seconds` is omitted
/// (the `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 10;

/// One benchmark workload: a fixed graph (see `input.rs` for what the
/// seed varies) and the solver configuration it is measured under.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub ranks: usize,
    pub partition: PartitionStrategy,
    pub graph: fn() -> EdgeList,
}

/// Every workload graph is generated at the harness's fixed seed.
const GRAPH_SEED: u64 = louvain_bench::SEED;

fn registry_graph(name: &str) -> EdgeList {
    by_name(name)
        .unwrap_or_else(|| panic!("registry has no `{name}` stand-in"))
        .generate(GRAPH_SEED)
        .edges
}

fn amazon() -> EdgeList {
    registry_graph("amazon")
}

fn uk2005() -> EdgeList {
    registry_graph("uk2005")
}

/// R-MAT scale 16 with hubs left at low ids (no permutation), so the
/// modulo partition is arc-imbalanced and ArcBalanced has work to do.
fn rmat_skew() -> EdgeList {
    let cfg = RmatConfig {
        scale: 16,
        edge_factor: 16,
        a: 0.7,
        b: 0.12,
        c: 0.12,
        permute: false,
        clean: true,
    };
    generate_rmat(&cfg, GRAPH_SEED)
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "amazon",
        why: "LFR n=33k at 2 ranks: 155k arcs fit in cache and 8 levels run ~600 collectives, so per-level and per-iteration overheads dominate",
        ranks: 2,
        partition: PartitionStrategy::Modulo,
        graph: amazon,
    },
    Workload {
        name: "amazon-1r",
        why: "same graph at 1 rank: no remote messages and trivial collectives, so a messaging change moves amazon and leaves this flat",
        ranks: 1,
        partition: PartitionStrategy::Modulo,
        graph: amazon,
    },
    Workload {
        name: "uk2005",
        why: "BTER n=100k at 2 ranks: 2.46M arcs exceed the LLC, state propagation dominates, and 14 MB of edge-list text makes set-up 15x amazon's",
        ranks: 2,
        partition: PartitionStrategy::Modulo,
        graph: uk2005,
    },
    Workload {
        name: "rmat-skew",
        why: "unpermuted R-MAT scale 16 at 2 ranks, ArcBalanced: the only workload with partition work; long hub rows stress find-best",
        ranks: 2,
        partition: PartitionStrategy::ArcBalanced,
        graph: rmat_skew,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric. `bound` (end-to-end metrics only) is the share of
/// the baseline median by which the metric may get worse before
/// `compare` calls it a regression.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every value is non-zero. The timing bounds
/// are sized to the run-to-run spread measured on a shared 2-core host
/// (see README.md); `modularity` and `sim_time_units` are exact
/// functions of the graph, so their bounds are tight.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("solve_s", "s", Lower, 0.24),
    e2e("teps", "edges/s", Higher, 0.24),
    e2e("seq_solve_s", "s", Lower, 0.24),
    e2e("modularity", "Q", Higher, 0.005),
    e2e("sim_time_units", "units", Lower, 0.005),
    e2e("peak_rss_mb", "MiB", Lower, 0.24),
];

/// Measured by the traced run (`--trace 1`): one solve plus the probes.
pub const PER_LAYER: [MetricSpec; 38] = [
    layer("graph.parse_s", "s", Lower),
    layer("graph.csr_s", "s", Lower),
    layer("graph.partition_s", "s", Lower),
    layer("graph.imbalance", "ratio", Lower),
    layer("hash.accumulate_ns", "ns", Lower),
    layer("hash.get_ns", "ns", Lower),
    layer("hash.mean_probe_length", "slots", Lower),
    layer("hash.table_mb", "MiB", Lower),
    layer("runtime.exchange_ns_per_msg", "ns", Lower),
    layer("runtime.allgather_ns_per_elem", "ns", Lower),
    layer("runtime.allreduce_us", "us", Lower),
    layer("runtime.messages", "count", Lower),
    layer("runtime.bytes_sent", "bytes", Lower),
    layer("runtime.packets", "count", Lower),
    layer("runtime.syncs", "count", Lower),
    layer("core.state_propagation_s", "s", Lower),
    layer("core.find_best_s", "s", Lower),
    layer("core.update_s", "s", Lower),
    layer("core.modularity_s", "s", Lower),
    layer("core.refine_s", "s", Lower),
    layer("core.reconstruction_s", "s", Lower),
    layer("core.other_s", "s", Lower),
    layer("core.first_level_s", "s", Lower),
    layer("core.levels", "count", Lower),
    layer("core.inner_iterations", "count", Lower),
    layer("core.scans", "count", Lower),
    layer("core.scan_skip_ratio", "ratio", Higher),
    layer("core.moves_per_scan", "ratio", Higher),
    layer("core.find_best_ns_per_scan", "ns", Lower),
    layer("core.sim.loading", "units", Lower),
    layer("core.sim.state_propagation", "units", Lower),
    layer("core.sim.find_best", "units", Lower),
    layer("core.sim.update", "units", Lower),
    layer("core.sim.modularity", "units", Lower),
    layer("core.sim.reconstruction", "units", Lower),
    layer("metrics.modularity_s", "s", Lower),
    layer("metrics.q_abs_err", "Q", Lower),
    layer("trace.events", "count", Lower),
];

#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
