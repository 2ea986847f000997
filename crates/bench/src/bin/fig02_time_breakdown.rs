//! Figure 2 — end-to-end time decomposed into aggregation, non-aggregation
//! and non-scalable (driver) computation per workload (8-node BIC, MLlib).
//!
//! Paper: tree aggregation occupies a geometric mean of ~67% of end-to-end
//! time, making it the hot-spot the rest of the paper attacks.

use sparker_bench::{print_header, Table};
use sparker_sim::aggsim::Strategy;
use sparker_sim::cluster::SimCluster;
use sparker_sim::mlrun::{geo_mean, simulate_training};
use sparker_sim::workloads::all_workloads;

fn main() {
    print_header(
        "Figure 2",
        "Time decomposition per workload on MLlib (8-node BIC)",
        "Paper reference: aggregation ~67% of end-to-end time (geo-mean).",
    );
    let mut t = Table::new(vec![
        "Workload",
        "Agg (s)",
        "Non-agg (s)",
        "Driver (s)",
        "Agg share",
    ]);
    let mut shares = Vec::new();
    for w in all_workloads() {
        let b = simulate_training(&SimCluster::bic(), &w, Strategy::Tree, None);
        let agg = b.agg_compute + b.agg_reduce;
        shares.push(b.agg_fraction());
        t.row(vec![
            w.name.to_string(),
            format!("{agg:.1}"),
            format!("{:.1}", b.non_agg),
            format!("{:.1}", b.driver),
            format!("{:.0}%", b.agg_fraction() * 100.0),
        ]);
    }
    t.print();
    println!(
        "\ngeo-mean aggregation share: {:.1}%  (paper: 67.2%)",
        geo_mean(&shares) * 100.0
    );
    let path = t.write_csv("fig02_time_breakdown").expect("csv");
    println!("wrote {}", path.display());
}
