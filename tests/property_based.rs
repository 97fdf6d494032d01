//! Property-based tests over random graphs: the invariants of
//! DESIGN.md §6, checked across crates with proptest.

use parallel_louvain::core::coarsen::induced_edge_list;
use parallel_louvain::core::parallel::{ParallelConfig, ParallelLouvain};
use parallel_louvain::core::seq::{SeqConfig, SequentialLouvain};
use parallel_louvain::graph::edgelist::{EdgeList, EdgeListBuilder};
use parallel_louvain::graph::io::{read_edge_list, write_edge_list, IoError};
use parallel_louvain::metrics::similarity::SimilarityReport;
use parallel_louvain::metrics::{modularity, Partition};
use proptest::prelude::*;

/// Strategy: a random undirected weighted graph with up to `n_max`
/// vertices and `m_max` edges (self-loops allowed).
fn arb_graph(n_max: u32, m_max: usize) -> impl Strategy<Value = EdgeList> {
    (2..n_max).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 1u32..5), 1..m_max).prop_map(move |edges| {
            let mut b = EdgeListBuilder::new(n as usize);
            for (u, v, w) in edges {
                b.add_edge(u, v, f64::from(w));
            }
            b.build()
        })
    })
}

/// Hostile replacement tokens for the mutated-text property: ids at and
/// one below the `u32` id-space edge, a negative id, non-finite and
/// overflowing weights, junk, and a `# n K` header (`K` drawn per use).
const HOSTILE_TOKENS: [&str; 8] = [
    "4294967295",
    "4294967294",
    "-1",
    "nan",
    "inf",
    "1e309",
    "x",
    "# n K",
];

/// Header counts substituted for `K`: below any id, the largest `u32`,
/// one past it, and one past `u64`.
const HEADER_COUNTS: [&str; 4] = ["0", "4294967295", "4294967296", "18446744073709551616"];

/// Applies one mutation to `text`: `kind` 0 swaps a whitespace token for
/// `HOSTILE_TOKENS[tok]`, 1 deletes a character, 2 duplicates a line.
/// `pos` picks the line, token or character.
fn mutate(text: &str, kind: u8, pos: usize, tok: usize) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
    match kind {
        0 => {
            let li = pos % lines.len();
            let mut words: Vec<String> = lines[li].split_whitespace().map(str::to_owned).collect();
            if !words.is_empty() {
                let wi = (pos / lines.len()) % words.len();
                let k = HEADER_COUNTS[pos % HEADER_COUNTS.len()];
                words[wi] = HOSTILE_TOKENS[tok].replace('K', k);
                lines[li] = words.join(" ");
            }
            lines.join("\n")
        }
        1 if !text.is_empty() => {
            // Rendered text and every token are ASCII: bytes are chars.
            let at = pos % text.len();
            format!("{}{}", &text[..at], &text[at + 1..])
        }
        2 => {
            let li = pos % lines.len();
            let dup = lines[li].clone();
            lines.insert(li, dup);
            lines.join("\n")
        }
        _ => text.to_owned(),
    }
}

/// Strategy: a random dense-labelled partition of `n` vertices.
fn arb_partition(n: usize) -> impl Strategy<Value = Partition> {
    proptest::collection::vec(0u32..8, n).prop_map(|labels| Partition::from_labels(&labels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Q ∈ [-1/2, 1] for any graph and partition; the one-community
    /// partition always has Q = 0.
    #[test]
    fn modularity_bounds(el in arb_graph(24, 60)) {
        let g = el.to_csr();
        let n = g.num_vertices();
        let one = Partition::from_labels(&vec![0u32; n]);
        prop_assert!(modularity(&g, &one).abs() < 1e-12);
        let singles = Partition::singletons(n);
        let q = modularity(&g, &singles);
        prop_assert!((-0.5..=1.0).contains(&q), "Q={q}");
    }

    /// Coarsening invariance: Q(partition on G) equals Q(singletons on
    /// the induced super-graph), and total arc weight is preserved.
    #[test]
    fn coarsening_preserves_modularity(el in arb_graph(20, 50)) {
        let g = el.to_csr();
        let n = g.num_vertices();
        let labels: Vec<u32> = (0..n as u32).map(|v| v % 3).collect();
        let p = Partition::from_labels(&labels);
        let sup = induced_edge_list(&g, p.labels(), p.num_communities()).to_csr();
        prop_assert!((sup.total_arc_weight() - g.total_arc_weight()).abs() < 1e-9);
        let q1 = modularity(&g, &p);
        let q2 = modularity(&sup, &Partition::singletons(sup.num_vertices()));
        prop_assert!((q1 - q2).abs() < 1e-9, "{q1} vs {q2}");
    }

    /// The sequential solver's reported modularity always matches a
    /// recomputation from scratch and never loses to the singleton
    /// partition.
    #[test]
    fn sequential_reported_q_is_exact(el in arb_graph(24, 60)) {
        let g = el.to_csr();
        let r = SequentialLouvain::new(SeqConfig::default()).run(&g);
        let q = modularity(&g, &r.final_partition);
        prop_assert!((q - r.final_modularity).abs() < 1e-9 || r.levels.is_empty());
        let q0 = modularity(&g, &Partition::singletons(g.num_vertices()));
        prop_assert!(r.final_modularity >= q0 - 1e-12);
    }

    /// The distributed solver produces a valid partition whose Q matches
    /// recomputation, for arbitrary graphs and 1–5 ranks.
    #[test]
    fn parallel_reported_q_is_exact(el in arb_graph(20, 40), ranks in 1usize..5) {
        let g = el.to_csr();
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(ranks)).run(&el);
        let p = &r.result.final_partition;
        prop_assert!(p.is_valid());
        if !r.result.levels.is_empty() {
            let q = modularity(&g, p);
            prop_assert!((q - r.result.final_modularity).abs() < 1e-9);
        }
    }

    /// Similarity metrics: perfect on identical partitions, symmetric
    /// where they should be, and within bounds.
    #[test]
    fn similarity_metric_axioms(p in arb_partition(40), q in arb_partition(40)) {
        let same = SimilarityReport::compute(&p, &p.clone());
        prop_assert!((same.nmi - 1.0).abs() < 1e-12);
        prop_assert!(same.nvd.abs() < 1e-12);
        prop_assert!((same.rand - 1.0).abs() < 1e-12);

        let r = SimilarityReport::compute(&p, &q);
        for v in [r.nmi, r.f_measure, r.nvd, r.rand, r.jaccard] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "metric {v} out of bounds");
        }
        prop_assert!(r.adjusted_rand <= 1.0 + 1e-12);
        // Symmetric metrics.
        let rr = SimilarityReport::compute(&q, &p);
        prop_assert!((r.nmi - rr.nmi).abs() < 1e-9);
        prop_assert!((r.rand - rr.rand).abs() < 1e-9);
        prop_assert!((r.adjusted_rand - rr.adjusted_rand).abs() < 1e-9);
        prop_assert!((r.jaccard - rr.jaccard).abs() < 1e-9);
        prop_assert!((r.nvd - rr.nvd).abs() < 1e-9);
    }

    /// Edge-list round-trip through CSR is lossless.
    #[test]
    fn edgelist_csr_roundtrip(el in arb_graph(24, 60)) {
        let g = el.to_csr();
        let el2 = g.to_edge_list();
        prop_assert_eq!(el2.num_vertices(), el.num_vertices());
        prop_assert_eq!(el2.num_edges(), el.num_edges());
        prop_assert!((el2.total_weight() - el.total_weight()).abs() < 1e-9);
        let g2 = el2.to_csr();
        prop_assert_eq!(g2.num_arcs(), g.num_arcs());
        prop_assert!((g2.total_arc_weight() - g.total_arc_weight()).abs() < 1e-9);
    }
}

proptest! {
    // Parsing only, no solve: cheap enough for many cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile edge-list text never panics the parser: a rendered graph
    /// under random token swaps, character deletions and line
    /// duplications either parses to a well-formed edge list or is
    /// rejected with a parse error naming a line of the text. (The
    /// result is never turned into a CSR: a huge `# n` header is valid
    /// and would allocate.)
    #[test]
    fn mutated_edge_list_text_parses_or_is_rejected(
        el in arb_graph(8, 8),
        muts in proptest::collection::vec((0u8..3, 0usize..10_000, 0usize..HOSTILE_TOKENS.len()), 1..5),
    ) {
        let mut buf = Vec::new();
        write_edge_list(&el, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        for &(kind, pos, tok) in &muts {
            text = mutate(&text, kind, pos, tok);
        }
        match read_edge_list(text.as_bytes()) {
            Ok(parsed) => {
                let n = parsed.num_vertices();
                for e in parsed.edges() {
                    prop_assert!((e.u as usize) < n && (e.v as usize) < n, "{text:?}: {e:?} vs n={n}");
                    prop_assert!(e.w.is_finite() && e.w >= 0.0, "{text:?}: weight {}", e.w);
                }
            }
            Err(IoError::Parse(line, _)) => {
                prop_assert!((1..=text.lines().count()).contains(&line), "{text:?}: line {line}");
            }
            Err(other) => prop_assert!(false, "{text:?}: {other}"),
        }
    }
}
