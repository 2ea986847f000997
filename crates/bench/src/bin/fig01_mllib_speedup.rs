//! Figure 1 — 8-node vs 1-node speedup of the nine MLlib workloads (BIC,
//! vanilla tree aggregation).
//!
//! Paper: all workloads fall far from the perfect speedup of 8; best is
//! LDA-N at 2.49x, worst LR-K at 0.73x, average 1.25x.

use sparker_bench::{print_header, Table};
use sparker_sim::aggsim::Strategy;
use sparker_sim::cluster::SimCluster;
use sparker_sim::mlrun::{geo_mean, simulate_training};
use sparker_sim::workloads::all_workloads;

fn main() {
    print_header(
        "Figure 1",
        "Speedup of MLlib workloads on 8 nodes w.r.t. 1-node performance",
        "Paper reference: geo-mean 1.25x; LDA-N best (2.49x); LR-K worst (0.73x).",
    );
    let mut t = Table::new(vec!["Workload", "1-node (s)", "8-node (s)", "Speedup"]);
    let mut speedups = Vec::new();
    for w in all_workloads() {
        let one = simulate_training(&SimCluster::bic().with_nodes(1), &w, Strategy::Tree, None);
        let eight = simulate_training(&SimCluster::bic(), &w, Strategy::Tree, None);
        let s = one.total() / eight.total();
        speedups.push(s);
        t.row(vec![
            w.name.to_string(),
            format!("{:.1}", one.total()),
            format!("{:.1}", eight.total()),
            format!("{s:.2}x"),
        ]);
    }
    t.print();
    println!(
        "\ngeo-mean speedup: {:.2}x  (paper: 1.25x; perfect would be 8x)",
        geo_mean(&speedups)
    );
    let path = t.write_csv("fig01_mllib_speedup").expect("csv");
    println!("wrote {}", path.display());
}
