//! Ablation — reduce-scatter algorithm choice (DESIGN.md §4.3).
//!
//! Sparker picks the ring; the MPI literature also uses recursive halving.
//! This harness runs split aggregation with both algorithms on the threaded
//! engine under BIC shaping and reports their times, plus the ring's
//! blocked-segment-range assignment against a hypothetical strided one
//! (computed analytically: strided assignment interleaves channels over
//! segments, which does not change traffic on the PDR — documented here for
//! completeness).

use sparker_bench::{fmt_secs, print_header, Table};
use sparker_engine::cluster::LocalCluster;
use sparker_engine::config::ClusterSpec;
use sparker_engine::ops::split_aggregate::{SelectorOpts, SplitAggOpts};
use sparker_net::codec::F64Array;
use sparker_tuner::Algo;

fn run(nodes: usize, elems: usize, algo: Algo) -> f64 {
    const SCALE: f64 = 16.0;
    let cluster = LocalCluster::new(ClusterSpec::bic(nodes, SCALE).with_shape(2, 2));
    let partitions = 2 * cluster.num_executors();
    let data = cluster
        .generate(partitions, move |p| vec![vec![p as f64; elems]; 1])
        .cache();
    data.count().unwrap();
    let seq = move |mut acc: F64Array, v: &Vec<f64>| {
        for (a, x) in acc.0.iter_mut().zip(v) {
            *a += *x;
        }
        acc
    };
    data.split_aggregate(
        F64Array(vec![0.0; elems]),
        seq,
        sparker::dense::merge,
        sparker::dense::split,
        sparker::dense::merge_segments,
        sparker::dense::concat,
        SplitAggOpts {
            parallelism: Some(4),
            selector: SelectorOpts::Forced(algo),
            ..Default::default()
        },
    )
    .unwrap()
    .1
    .reduce
    .as_secs_f64()
}

fn main() {
    print_header(
        "Ablation: reduce-scatter algorithm",
        "Ring (paper's choice) vs recursive halving, split-aggregation reduce time",
        "Both move (N-1)/N of one aggregator per executor; the ring sends smaller messages\n\
         over neighbours only (topology-friendly), halving sends log2(N) larger exchanges\n\
         across node boundaries.",
    );
    let mut t = Table::new(vec!["Paper size", "Nodes", "Ring reduce", "Halving reduce"]);
    for (label, paper_bytes) in [("8MB", 8.0 * 1024.0 * 1024.0), ("64MB", 64.0 * 1024.0 * 1024.0)]
    {
        for nodes in [2usize, 4] {
            let elems = (paper_bytes / 16.0 / 8.0) as usize;
            let ring = run(nodes, elems, Algo::FlatRing);
            let halving = run(nodes, elems, Algo::Halving);
            t.row(vec![
                label.to_string(),
                nodes.to_string(),
                fmt_secs(ring),
                fmt_secs(halving),
            ]);
        }
    }
    t.print();
    let path = t.write_csv("ablation_algorithms").expect("csv");
    println!("\nwrote {}", path.display());
}
