//! Collective-algorithm ladder and tuner acceptance gate (PR 9's
//! `BENCH_9.json`).
//!
//! Two halves, both self-asserting so `--smoke` doubles as CI step 11 of
//! `tools/check_hermetic.sh`:
//!
//! * **DES ladder** — every algorithm in the tuner's menu
//!   ([`sparker_tuner::Algo`]) simulated over 1 KiB–4 MiB × dense/sparse
//!   densities at paper scale ([`SimCluster::aws`], 120 executors /
//!   960 cores; full mode adds BIC). Bounds: hierarchical beats the flat
//!   ring for ≥ 1 MiB dense on the multi-node cluster, and the calibrated
//!   selector is never worse than the best static choice by more than the
//!   ground-truth margin ([`sparker_sim::ground_truth_margin`]) anywhere
//!   on the ladder.
//! * **Calibrate → select → run** — a real threaded 2-node-emulated ring
//!   cluster runs flat rings under span tracing; the recorded `ring.step`
//!   spans are least-squares-fitted into a [`CostModel`]
//!   ([`calibrate_from_spans`]), the fitted selector picks an algorithm
//!   for a 4 MiB job, and the hierarchical path runs on the same cluster.
//!   Bounds: calibration yields samples for both link classes, the
//!   hierarchical result is bit-exact against the sequential oracle, and
//!   the `tuner.selected.*` counter plus `tuner.predict_vs_actual_permille`
//!   gauge are published.
//!
//! Emits machine-readable JSON (no commit hash, no timestamps) to
//! `results/bench_collectives.json` and the repo root `BENCH_9.json`.

use std::time::Instant;

use sparker_bench::{fmt_secs, print_header, Table};
use sparker_collectives::hierarchical::{hierarchical_reduce_scatter_chunked_by, node_topology_of};
use sparker_collectives::ring::ring_reduce_scatter_chunked;
use sparker_collectives::segment::{Segment, U64SumSegment};
use sparker_collectives::testing::{run_ring_cluster, RingClusterSpec};
use sparker_engine::reduction::segment_count;
use sparker_net::topology::{round_robin_layout, RingOrder, RingTopology};
use sparker_sim::{ground_truth_margin, model_for, simulate_algo, SimCluster};
use sparker_tuner::{calibrate_from_spans, Algo, CostModel, JobShape, Selector};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// One ladder entry: DES seconds per algorithm plus the selector's pick.
struct LadderRow {
    cluster: &'static str,
    bytes: u64,
    density_permille: u32,
    selected: Algo,
    selected_secs: f64,
    best: Algo,
    best_secs: f64,
    flat_secs: f64,
    hier_secs: f64,
}

/// Sweeps the full algorithm menu through the DES for one cluster, checking
/// the selector bound on every entry.
fn run_ladder(
    cluster: &SimCluster,
    sizes: &[u64],
    densities: &[u32],
    parallelism: usize,
) -> Vec<LadderRow> {
    let model = model_for(cluster, 150);
    let sel = Selector::new(model);
    let mut rows = Vec::new();
    for &bytes in sizes {
        for &density in densities {
            let shape = JobShape {
                bytes,
                density_permille: density,
                executors: cluster.executors(),
                nodes: cluster.nodes,
                parallelism,
            };
            // The DES sees the wire representation the density-adaptive
            // codec would put on the network.
            let wire = model.wire_bytes(&shape);
            let times: Vec<(Algo, f64)> = Algo::candidates()
                .into_iter()
                .map(|a| (a, simulate_algo(cluster, a, wire, parallelism)))
                .collect();
            let d = sel.select(&shape);
            let (best, best_secs) = times
                .iter()
                .copied()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            let of = |algo: Algo| times.iter().find(|(a, _)| *a == algo).unwrap().1;
            let selected_secs = of(d.algo);
            let margin = ground_truth_margin(&model, wire);
            assert!(
                selected_secs <= best_secs * margin,
                "{} {bytes} B d={density}: selected {:?} = {selected_secs:.4}s, \
                 best {best:?} = {best_secs:.4}s exceeds margin {margin:.2}",
                cluster.name,
                d.algo,
            );
            assert_eq!(
                d.sparse,
                model.prefers_sparse(&shape),
                "selector's wire-format choice must follow the model"
            );
            rows.push(LadderRow {
                cluster: cluster.name,
                bytes,
                density_permille: density,
                selected: d.algo,
                selected_secs,
                best,
                best_secs,
                flat_secs: of(Algo::FlatRing),
                hier_secs: of(Algo::Hierarchical(1)),
            });
        }
    }
    rows
}

/// Seeds `total` deterministic integer segments for `rank`.
fn seed_segments(rank: usize, total: usize, elems: usize) -> Vec<U64SumSegment> {
    (0..total)
        .map(|g| U64SumSegment(vec![(rank as u64 + 1) * 1000 + g as u64; elems]))
        .collect()
}

/// The sequential oracle for `seed_segments` summed over `n` ranks.
fn expected_sum(n: usize, g: usize) -> u64 {
    (1000 * n * (n + 1) / 2 + n * g) as u64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print_header(
        "bench_collectives",
        "auto-tuned collectives: DES algorithm ladder + calibrate/select/run",
        "Every section asserts its own acceptance bound; --smoke is CI step 11\n\
         of tools/check_hermetic.sh. JSON lands in results/bench_collectives.json\n\
         and BENCH_9.json.",
    );

    // --- DES ladder -----------------------------------------------------
    let parallelism = 4;
    let (sizes, densities): (Vec<u64>, Vec<u32>) = if smoke {
        (vec![4 * KB, 64 * KB, MB, 4 * MB], vec![1000, 10])
    } else {
        (
            vec![KB, 4 * KB, 16 * KB, 64 * KB, 256 * KB, MB, 4 * MB],
            vec![1000, 100, 10],
        )
    };
    let aws = SimCluster::aws();
    let mut rows = run_ladder(&aws, &sizes, &densities, parallelism);
    if !smoke {
        rows.extend(run_ladder(&SimCluster::bic(), &sizes, &densities, parallelism));
    }

    // Headline bound: two-level beats the flat ring for every >=1 MiB dense
    // entry at paper scale (10 nodes x 12 executors).
    for r in rows.iter().filter(|r| {
        r.cluster == "aws" && r.density_permille == 1000 && r.bytes >= MB
    }) {
        assert!(
            r.hier_secs < r.flat_secs,
            "aws {} B dense: hierarchical {:.4}s must beat flat ring {:.4}s",
            r.bytes,
            r.hier_secs,
            r.flat_secs
        );
    }

    let mut t = Table::new(vec!["cluster", "bytes", "density", "selected", "t(sel)", "best", "t(best)"]);
    for r in &rows {
        t.row(vec![
            r.cluster.to_string(),
            r.bytes.to_string(),
            r.density_permille.to_string(),
            format!("{:?}", r.selected),
            fmt_secs(r.selected_secs),
            format!("{:?}", r.best),
            fmt_secs(r.best_secs),
        ]);
    }
    t.print();

    // --- Calibrate -> select -> hierarchical run ------------------------
    let (nodes, epn, p, chunks, elems) = if smoke { (2, 4, 2, 2, 512) } else { (2, 4, 2, 2, 4096) };
    let spec = RingClusterSpec::unshaped(nodes, epn, p);
    let n = spec.total_executors();

    // 1. Trace flat-ring runs at spread-out sizes so the fit sees both link
    //    classes and a byte slope.
    sparker_obs::trace::enable();
    sparker_obs::trace::clear();
    for seed_elems in [64usize, 1024, 8 * 1024] {
        run_ring_cluster(&spec, move |comm| {
            let total = segment_count(Algo::FlatRing, comm.ring());
            let segs = seed_segments(comm.rank(), total, seed_elems);
            ring_reduce_scatter_chunked(&comm, segs, 1).unwrap()
        });
    }
    let spans = sparker_obs::trace::snapshot();
    sparker_obs::trace::disable();

    // 2. Fit link parameters, classifying ring hops through the same
    //    topology-aware ring the harness built.
    let ring = RingTopology::new(
        round_robin_layout(nodes, epn, 1),
        RingOrder::TopologyAware,
        p,
    );
    let topo = node_topology_of(&ring);
    let cal = calibrate_from_spans(&spans, |r, peer| {
        let (r, peer) = (r as usize, peer as usize);
        if r >= ring.size() || peer >= ring.size() || r == peer {
            return None;
        }
        Some(topo.link_class(ring.executor_at(r).id, ring.executor_at(peer).id))
    });
    assert!(
        cal.intra_samples > 0 && cal.inter_samples > 0,
        "calibration must see both link classes: intra {} inter {}",
        cal.intra_samples,
        cal.inter_samples
    );
    let fitted = cal.apply(&CostModel::default_model());
    let roundtrip = CostModel::from_text(&fitted.to_text()).expect("calibration text");
    assert_eq!(roundtrip, fitted, "calibration text must round-trip");

    // 3. Select for a 4 MiB dense job on this cluster shape.
    let sel = Selector::new(fitted);
    let shape = JobShape::dense(4 * MB, n, nodes, p);
    let decision = sel.select(&shape);

    // 4. Run the hierarchical path on the real cluster, bit-exact.
    let t0 = Instant::now();
    let per_rank = run_ring_cluster(&spec, move |comm| {
        let total = segment_count(Algo::Hierarchical(chunks as u8), comm.ring());
        let segs = seed_segments(comm.rank(), total, elems);
        hierarchical_reduce_scatter_chunked_by(
            &comm,
            segs,
            &|a: &mut U64SumSegment, b: U64SumSegment| a.merge_from(&b),
            chunks,
        )
        .unwrap()
    });
    let hier_secs = t0.elapsed().as_secs_f64();
    let mut owned: Vec<(usize, Vec<u64>)> = per_rank
        .into_iter()
        .flatten()
        .map(|o| (o.index, o.segment.0))
        .collect();
    owned.sort_by_key(|(i, _)| *i);
    assert_eq!(owned.len(), p * nodes * chunks, "every global chunk owned exactly once");
    for (g, vals) in &owned {
        let want = expected_sum(n, *g);
        assert!(
            vals.iter().all(|&v| v == want),
            "chunk {g}: got {:?}.., want {want}",
            &vals[..vals.len().min(3)]
        );
    }

    // 5. Feed the measured wall-clock back; both tuner metrics must exist.
    sel.observe(&decision, hier_secs);
    let snap = sparker_obs::metrics::snapshot();
    let counter = format!("tuner.selected.{}", decision.algo.name());
    assert!(
        snap.iter().any(|m| m.name == counter),
        "{counter} missing from metrics snapshot"
    );
    assert!(
        snap.iter().any(|m| m.name == "tuner.predict_vs_actual_permille"),
        "predict_vs_actual gauge missing from metrics snapshot"
    );

    let mut t = Table::new(vec!["stage", "value"]);
    t.row(vec!["calib intra samples".to_string(), cal.intra_samples.to_string()]);
    t.row(vec!["calib inter samples".to_string(), cal.inter_samples.to_string()]);
    t.row(vec!["selected".to_string(), format!("{:?}", decision.algo)]);
    t.row(vec!["predicted".to_string(), fmt_secs(decision.predicted_secs)]);
    t.row(vec!["hier run (wall)".to_string(), fmt_secs(hier_secs)]);
    t.row(vec!["bit-exact".to_string(), "yes".to_string()]);
    t.print();

    // --- Report ---------------------------------------------------------
    let mut json = Json::new();
    json.field("bench", "\"bench_collectives\"".to_string());
    json.field("smoke", smoke.to_string());
    let ladder: Vec<String> = rows
        .iter()
        .map(|r| {
            obj(&[
                ("cluster", format!("\"{}\"", r.cluster)),
                ("bytes", r.bytes.to_string()),
                ("density_permille", r.density_permille.to_string()),
                ("selected", format!("\"{}\"", r.selected.name())),
                ("selected_secs", format!("{:.6}", r.selected_secs)),
                ("best", format!("\"{}\"", r.best.name())),
                ("best_secs", format!("{:.6}", r.best_secs)),
                ("flat_secs", format!("{:.6}", r.flat_secs)),
                ("hier_secs", format!("{:.6}", r.hier_secs)),
            ])
        })
        .collect();
    json.field("ladder", format!("[{}]", ladder.join(", ")));
    json.field(
        "calibration",
        obj(&[
            ("intra_samples", cal.intra_samples.to_string()),
            ("inter_samples", cal.inter_samples.to_string()),
            ("intra_alpha_s", format!("{:.9}", fitted.intra.alpha_s)),
            ("inter_alpha_s", format!("{:.9}", fitted.inter.alpha_s)),
        ]),
    );
    json.field(
        "run",
        obj(&[
            ("executors", n.to_string()),
            ("nodes", nodes.to_string()),
            ("parallelism", p.to_string()),
            ("chunks", chunks.to_string()),
            ("selected", format!("\"{}\"", decision.algo.name())),
            ("hier_wall_secs", format!("{:.6}", hier_secs)),
            ("bit_exact", "true".to_string()),
        ]),
    );
    let body = json.finish();

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/bench_collectives.json", &body).expect("write results json");
    std::fs::write("BENCH_9.json", &body).expect("write BENCH_9.json");
    println!("\nwrote results/bench_collectives.json and BENCH_9.json");
    println!("all collective-ladder and tuner bounds held");
}

/// Minimal JSON writer (same shape as the other bench binaries — flat
/// enough that hand-rolling keeps the workspace dependency-free).
struct Json(String);

impl Json {
    fn new() -> Self {
        Json(String::from("{\n"))
    }
    fn field(&mut self, key: &str, value: String) -> &mut Self {
        if !self.0.ends_with("{\n") {
            self.0.push_str(",\n");
        }
        self.0.push_str(&format!("  \"{key}\": {value}"));
        self
    }
    fn finish(mut self) -> String {
        self.0.push_str("\n}\n");
        self.0
    }
}

fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}
