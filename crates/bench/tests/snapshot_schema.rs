//! Schema and determinism tests for the `bench-snapshot` pipeline
//! (DESIGN.md §9): the emitted JSON must parse back against the
//! documented field set, and two consecutive builds must be
//! byte-for-byte identical.

use louvain_bench::snapshot::{build, Json, RANKS, SCHEMA_VERSION};

/// Required keys of each `workloads[i]` object, per DESIGN.md §9.
const WORKLOAD_KEYS: &[&str] = &[
    "name",
    "ranks",
    "vertices",
    "edges",
    "levels",
    "modularity",
    "teps_simulated",
    "sim_total_units",
    "sim_first_level_units",
    "phase_units",
    "messages",
    "packets",
    "syncs",
    "bytes_sent",
    "delta_messages",
    "dedup_hits",
    "trace_events",
];

/// Required keys of the `hash_table` object.
const HASH_KEYS: &[&str] = &[
    "operations",
    "probes",
    "collisions",
    "max_probe_length",
    "mean_probe_length",
    "load_factor",
    "clusters",
    "avg_cluster_length",
    "max_cluster_length",
    "slice_imbalance",
];

const PHASE_KEYS: &[&str] = &[
    "loading",
    "state_propagation",
    "find_best",
    "update",
    "modularity",
    "reconstruction",
];

#[test]
fn snapshot_roundtrips_and_matches_documented_schema() {
    let doc = build(true);
    let first = doc.render();
    // Determinism: a second build of the same snapshot is bit-identical.
    assert_eq!(
        first,
        build(true).render(),
        "bench-snapshot output is not bit-identical across builds"
    );

    // Round-trip: the rendered file parses back to an equal value.
    let parsed = Json::parse(&first).expect("BENCH_louvain.json must parse");
    assert_eq!(parsed, doc);

    // Top-level schema.
    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    assert!(parsed.get("seed").and_then(Json::as_u64).is_some());
    assert!(parsed.get("ns_per_unit").and_then(|v| v.as_f64()).is_some());

    let workloads = parsed
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads array");
    assert!(!workloads.is_empty());
    for w in workloads {
        for key in WORKLOAD_KEYS {
            assert!(w.get(key).is_some(), "workload entry missing {key:?}");
        }
        assert_eq!(w.get("ranks").and_then(Json::as_u64), Some(RANKS as u64));
        let q = w.get("modularity").and_then(|v| v.as_f64()).expect("Q");
        assert!(q > 0.0 && q < 1.0, "implausible modularity {q}");

        // Per-phase units are non-negative and sum to at most the whole
        // run (bookkeeping syncs belong to no phase).
        let phases = w.get("phase_units").expect("phase_units");
        let mut sum = 0.0;
        for key in PHASE_KEYS {
            let units = phases
                .get(key)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("phase_units missing {key:?}"));
            assert!(units >= 0.0, "{key} negative: {units}");
            sum += units;
        }
        let total = w
            .get("sim_total_units")
            .and_then(|v| v.as_f64())
            .expect("sim_total_units");
        assert!(
            sum <= total * (1.0 + 1e-9),
            "phase sum {sum} exceeds total {total}"
        );
        // The breakdown should attribute the bulk of the run.
        assert!(sum >= total * 0.5, "phase sum {sum} covers <50% of {total}");
    }

    let hash = parsed.get("hash_table").expect("hash_table");
    for key in HASH_KEYS {
        assert!(hash.get(key).is_some(), "hash_table missing {key:?}");
    }
    let probes = hash.get("probes").and_then(Json::as_u64).expect("probes");
    let ops = hash
        .get("operations")
        .and_then(Json::as_u64)
        .expect("operations");
    assert_eq!(
        hash.get("collisions").and_then(Json::as_u64),
        Some(probes - ops)
    );
}
