//! Scale invariance: modularity, and so the partition, does not change
//! when every weight is multiplied by one factor. The solvers rescale a
//! graph whose largest weight lies outside [2^-64, 2^64] by an exact
//! power of two, so an LFR graph scaled by 2^k returns the labels and
//! the Q bits of k = 0, and weights near `f64::MAX` give a finite Q.

use parallel_louvain::core::labelprop::LabelPropagation;
use parallel_louvain::core::parallel::{ParallelConfig, ParallelLouvain};
use parallel_louvain::core::refine::refine_partition;
use parallel_louvain::core::seq::{SeqConfig, SequentialLouvain};
use parallel_louvain::core::smp::SmpLouvain;
use parallel_louvain::graph::edgelist::{EdgeList, EdgeListBuilder};
use parallel_louvain::graph::gen::lfr::{generate_lfr, LfrConfig};
use parallel_louvain::metrics::{modularity, Partition};

/// `el` with every weight multiplied by 2^k.
fn scaled(el: &EdgeList, k: i32) -> EdgeList {
    let f = 2f64.powi(k);
    let mut b = EdgeListBuilder::new(el.num_vertices());
    for e in el.edges() {
        b.add_edge(e.u, e.v, e.w * f);
    }
    b.build()
}

/// Each solver's labels and reported Q bits on `el`.
fn answers(el: &EdgeList) -> Vec<(&'static str, Vec<u32>, u64)> {
    let g = el.to_csr();
    let seq = SequentialLouvain::new(SeqConfig::default()).run(&g);
    let smp = SmpLouvain.run(&g);
    let mut out = vec![
        (
            "seq",
            seq.final_partition.labels().to_vec(),
            seq.final_modularity.to_bits(),
        ),
        (
            "smp",
            smp.final_partition.labels().to_vec(),
            smp.final_modularity.to_bits(),
        ),
    ];
    for (name, ranks) in [("parallel-1", 1), ("parallel-2", 2)] {
        let r = ParallelLouvain::new(ParallelConfig::with_ranks(ranks))
            .run(el)
            .result;
        out.push((
            name,
            r.final_partition.labels().to_vec(),
            r.final_modularity.to_bits(),
        ));
    }
    let refined = refine_partition(&g, &Partition::singletons(g.num_vertices()), 8);
    out.push((
        "refine",
        refined.partition.labels().to_vec(),
        refined.q_after.to_bits(),
    ));
    let lp = LabelPropagation::new(2).run(el);
    out.push(("labelprop", lp.partition.labels().to_vec(), 0));
    out
}

#[test]
fn lfr_answers_do_not_depend_on_the_weight_scale() {
    let el = generate_lfr(&LfrConfig::standard(1000, 0.3), 7).edges;
    let base = answers(&el);
    for k in [-1000, -600, 600, 1000] {
        for (want, got) in base.iter().zip(answers(&scaled(&el, k))) {
            assert_eq!(want.1, got.1, "{} labels differ at scale 2^{k}", want.0);
            assert_eq!(want.2, got.2, "{} Q bits differ at scale 2^{k}", want.0);
        }
    }
}

#[test]
fn near_max_weights_give_a_finite_q_equal_to_the_recomputation() {
    let mut b = EdgeListBuilder::new(3);
    for (u, v) in [(0, 1), (1, 2), (0, 2)] {
        b.add_edge(u, v, 1e308);
    }
    let el = b.build();
    let g = el.to_csr();
    let seq = SequentialLouvain::new(SeqConfig::default()).run(&g);
    let smp = SmpLouvain.run(&g);
    let par = ParallelLouvain::new(ParallelConfig::with_ranks(2))
        .run(&el)
        .result;
    for (name, r) in [("seq", seq), ("smp", smp), ("parallel", par)] {
        let q = modularity(&g, &r.final_partition);
        assert!(r.final_modularity.is_finite(), "{name}: Q is not finite");
        assert!(
            (q - r.final_modularity).abs() < 1e-12,
            "{name}: reported Q {} vs recomputed {q}",
            r.final_modularity
        );
    }
}
