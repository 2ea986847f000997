//! Figure 17 — end-to-end speedup of Sparker over vanilla Spark for the
//! nine workloads on both clusters.
//!
//! Paper reference: geo-mean 1.60× on BIC, 1.81× on AWS; best SVM-K at
//! 2.62× (BIC) and 3.69× (AWS); LDA-N/LR-K/SVM-K/SVM-K12 all above 2× on
//! AWS because their aggregators are large.

use sparker_bench::{print_header, Table};
use sparker_sim::aggsim::Strategy;
use sparker_sim::cluster::SimCluster;
use sparker_sim::mlrun::{geo_mean, simulate_training};
use sparker_sim::workloads::all_workloads;

fn main() {
    print_header(
        "Figure 17",
        "End-to-end speedup of Sparker over vanilla Spark (BIC and AWS)",
        "Paper reference: geo-mean 1.60x (BIC) / 1.81x (AWS); max 2.62x / 3.69x (SVM-K).",
    );
    let split = Strategy::Split { parallelism: 4, topology_aware: true };
    let mut t = Table::new(vec!["Workload", "BIC speedup", "AWS speedup"]);
    let mut bic_speedups = Vec::new();
    let mut aws_speedups = Vec::new();
    for w in all_workloads() {
        let bic = SimCluster::bic();
        let aws = SimCluster::aws();
        let s_bic = simulate_training(&bic, &w, Strategy::Tree, None).total()
            / simulate_training(&bic, &w, split, None).total();
        let s_aws = simulate_training(&aws, &w, Strategy::Tree, None).total()
            / simulate_training(&aws, &w, split, None).total();
        bic_speedups.push(s_bic);
        aws_speedups.push(s_aws);
        t.row(vec![
            w.name.to_string(),
            format!("{s_bic:.2}x"),
            format!("{s_aws:.2}x"),
        ]);
    }
    t.print();
    println!(
        "\ngeo-mean: BIC {:.2}x (paper 1.60x), AWS {:.2}x (paper 1.81x)",
        geo_mean(&bic_speedups),
        geo_mean(&aws_speedups)
    );
    println!(
        "max:      BIC {:.2}x (paper 2.62x), AWS {:.2}x (paper 3.69x)",
        bic_speedups.iter().copied().fold(0.0, f64::max),
        aws_speedups.iter().copied().fold(0.0, f64::max)
    );
    let path = t.write_csv("fig17_endtoend").expect("csv");
    println!("wrote {}", path.display());
}
