//! One-shot reproduction report: runs every simulator-backed experiment and
//! writes a consolidated markdown summary (`results/report.md`) with
//! paper-vs-measured values — the numbers EXPERIMENTS.md tracks, regenerated
//! in one command.
//!
//! (The wall-clock-measured figures — 12, 13, 16-threaded, ablations — run
//! real shaped transports and take minutes; run their binaries directly.)


use sparker_net::profile::TransportKind;
use sparker_sim::aggsim::{simulate_aggregation, simulate_reduce_scatter, Strategy};
use sparker_sim::cluster::SimCluster;
use sparker_sim::mlrun::{geo_mean, simulate_training};
use sparker_sim::p2p::latency;
use sparker_sim::workloads::{all_workloads, by_name};

struct Report {
    body: String,
    checks: Vec<(String, bool)>,
}

impl Report {
    fn new() -> Self {
        Self { body: String::new(), checks: Vec::new() }
    }

    fn line(&mut self, s: &str) {
        self.body.push_str(s);
        self.body.push('\n');
        println!("{s}");
    }

    fn check(&mut self, name: &str, paper: &str, measured: &str, ok: bool) {
        self.line(&format!(
            "| {name} | {paper} | {measured} | {} |",
            if ok { "✅" } else { "🟡" }
        ));
        self.checks.push((name.to_string(), ok));
    }
}

fn main() {
    let mut r = Report::new();
    r.line("# Sparker reproduction report (simulator-backed experiments)");
    r.line("");
    r.line("| experiment | paper | measured | shape |");
    r.line("|---|---|---|---|");

    let split = Strategy::Split { parallelism: 4, topology_aware: true };
    let mb = 1024.0 * 1024.0;

    // Figure 1.
    let speedups: Vec<f64> = all_workloads()
        .iter()
        .map(|w| {
            simulate_training(&SimCluster::bic().with_nodes(1), w, Strategy::Tree, None).total()
                / simulate_training(&SimCluster::bic(), w, Strategy::Tree, None).total()
        })
        .collect();
    let gm = geo_mean(&speedups);
    r.check("Fig 1: MLlib 8-node geo-mean speedup", "1.25x", &format!("{gm:.2}x"), (0.8..2.0).contains(&gm));

    // Figure 2.
    let shares: Vec<f64> = all_workloads()
        .iter()
        .map(|w| simulate_training(&SimCluster::bic(), w, Strategy::Tree, None).agg_fraction())
        .collect();
    let gm = geo_mean(&shares);
    r.check("Fig 2: aggregation share (geo-mean)", "67%", &format!("{:.0}%", gm * 100.0), (0.45..0.9).contains(&gm));

    // Figure 3.
    let w = by_name("LDA-N").unwrap();
    let one = simulate_training(&SimCluster::bic().with_nodes(1), &w, Strategy::Tree, Some(40));
    let eight = simulate_training(&SimCluster::bic(), &w, Strategy::Tree, Some(40));
    r.check(
        "Fig 3: LDA-N compute speedup 24->192 cores",
        "4.47x",
        &format!("{:.2}x", one.agg_compute / eight.agg_compute),
        one.agg_compute / eight.agg_compute > 3.0,
    );
    r.check(
        "Fig 3: LDA-N reduce anti-scales",
        "111s -> 187s",
        &format!("{:.0}s -> {:.0}s", one.agg_reduce, eight.agg_reduce),
        eight.agg_reduce > one.agg_reduce,
    );

    // Figure 12 (model side).
    let c = SimCluster::bic();
    let mpi = latency(&c, TransportKind::MpiRef) * 1e6;
    let sc = latency(&c, TransportKind::ScalableComm) * 1e6;
    let bm = latency(&c, TransportKind::BlockManager) * 1e6;
    r.check("Fig 12: MPI / SC / BM latency", "16 / 73 / 3861 us",
        &format!("{mpi:.0} / {sc:.0} / {bm:.0} us"),
        (sc / mpi) > 3.5 && (bm / mpi) > 150.0);

    // Figure 14.
    let p1 = simulate_reduce_scatter(&c, 256.0 * mb, 1, true);
    let p8 = simulate_reduce_scatter(&c, 256.0 * mb, 8, true);
    r.check("Fig 14: parallelism speedup P1->P8", "3.06x", &format!("{:.2}x", p1 / p8), (2.0..4.5).contains(&(p1 / p8)));
    let un = simulate_reduce_scatter(&c, 256.0 * mb, 4, false);
    let aw = simulate_reduce_scatter(&c, 256.0 * mb, 4, true);
    r.check("Fig 14: topology-awareness", "2.76x", &format!("{:.2}x", un / aw), (1.8..4.5).contains(&(un / aw)));

    // Figure 15.
    let s6 = simulate_reduce_scatter(&SimCluster::bic().with_total_executors(6), 256.0 * 1024.0, 4, true);
    let s48 = simulate_reduce_scatter(&SimCluster::bic(), 256.0 * 1024.0, 4, true);
    r.check("Fig 15: 256KB growth 6->48 execs", "5.30x", &format!("{:.2}x", s48 / s6), (3.0..9.0).contains(&(s48 / s6)));
    let l6 = simulate_reduce_scatter(&SimCluster::bic().with_total_executors(6), 256.0 * mb, 4, true);
    let l48 = simulate_reduce_scatter(&SimCluster::bic(), 256.0 * mb, 4, true);
    r.check("Fig 15: 256MB growth 6->48 execs", "1.27x", &format!("{:.2}x", l48 / l6), l48 / l6 < 2.0);

    // Figure 16.
    let parts = 4 * SimCluster::bic().executors();
    let tree = simulate_aggregation(&c, Strategy::Tree, 256.0 * mb, parts, 0.05).total();
    let imm = simulate_aggregation(&c, Strategy::TreeImm, 256.0 * mb, parts, 0.05).total();
    let spl = simulate_aggregation(&c, split, 256.0 * mb, parts, 0.05).total();
    r.check("Fig 16: split vs tree @256MB/8 nodes", "6.48x", &format!("{:.2}x", tree / spl), (4.0..13.0).contains(&(tree / spl)));
    r.check("Fig 16: IMM vs tree @256MB", "1.46x", &format!("{:.2}x", tree / imm), (1.1..2.2).contains(&(tree / imm)));
    let t1k = simulate_aggregation(&c, Strategy::Tree, 1024.0, parts, 0.05).total();
    let s1k = simulate_aggregation(&c, split, 1024.0, parts, 0.05).total();
    r.check("Fig 16: tie at 1KB", "~1x", &format!("{:.2}x", t1k / s1k), (0.7..1.5).contains(&(t1k / s1k)));

    // Figure 17.
    let mut bic_s = Vec::new();
    let mut aws_s = Vec::new();
    for w in all_workloads() {
        let b = SimCluster::bic();
        let a = SimCluster::aws();
        bic_s.push(
            simulate_training(&b, &w, Strategy::Tree, None).total()
                / simulate_training(&b, &w, split, None).total(),
        );
        aws_s.push(
            simulate_training(&a, &w, Strategy::Tree, None).total()
                / simulate_training(&a, &w, split, None).total(),
        );
    }
    r.check("Fig 17: end-to-end geo-mean (BIC)", "1.60x", &format!("{:.2}x", geo_mean(&bic_s)), geo_mean(&bic_s) > 1.2);
    r.check("Fig 17: end-to-end geo-mean (AWS)", "1.81x", &format!("{:.2}x", geo_mean(&aws_s)), geo_mean(&aws_s) > 1.2);

    // Figure 18.
    let aws8 = SimCluster::aws().with_executors(24, 4).shaped_for_cores(8);
    let sp8 = simulate_training(&aws8, &w, Strategy::Tree, Some(15));
    let sk8 = simulate_training(&aws8, &w, split, Some(15));
    r.check(
        "Fig 18: reduce speedup @8 cores",
        "4.19x",
        &format!("{:.2}x", sp8.agg_reduce / sk8.agg_reduce),
        (2.5..8.0).contains(&(sp8.agg_reduce / sk8.agg_reduce)),
    );
    let aws960 = SimCluster::aws();
    let sk960 = simulate_training(&aws960, &w, split, Some(15));
    r.check(
        "Fig 18/§6: driver dominates Sparker at 960 cores",
        "qualitative",
        &format!("driver {:.0}s vs reduce {:.0}s", sk960.driver, sk960.agg_reduce),
        sk960.driver > sk960.agg_reduce,
    );

    let ok = r.checks.iter().filter(|(_, ok)| *ok).count();
    let total = r.checks.len();
    r.line("");
    r.line(&format!("**{ok}/{total} shape checks within the expected bands.**"));

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/report.md", &r.body).expect("write report");
    println!("\nwrote results/report.md");
}
