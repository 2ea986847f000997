//! Hot-path micro-benchmark and perf-regression gate (PR 5's `BENCH_5.json`).
//!
//! Measures the three reduction hot-path knobs this trajectory introduced
//! and asserts its own acceptance bounds, so `--smoke` doubles as CI step 7
//! of `tools/check_hermetic.sh`:
//!
//! * **pool** — the same chunk-pipelined reduce-scatter workload with the
//!   global [`sparker_net::FramePool`] enabled vs disabled. Frame
//!   allocations are the pool's *miss* counter (a disabled pool counts every
//!   acquire as a miss, so the two runs are directly comparable). Bound:
//!   pooled allocations ≥10× below unpooled, identical reduced values.
//! * **pipeline** — ring reduce-scatter with `C = 1` (classic) vs `C > 1`
//!   (chunk-pipelined sends overlap merges). Integer-valued segments, so
//!   any merge association is exact: results must match bitwise. Reports
//!   element throughput for both.
//! * **imm** — [`sparker_engine::objects::MutableObjectManager`] with 1
//!   stripe (the old single-lock slot) vs 8 stripes, hammered by 8 merge
//!   threads. Identical totals required; reports merges/s for both.
//!
//! Emits machine-readable JSON (no commit hash, no timestamps — fields are
//! diffable across PRs) to `results/bench_hotpath.json` and the repo root
//! `BENCH_5.json`.

use std::time::Instant;

use sparker_bench::{fmt_secs, print_header, Table};
use sparker_collectives::ring::ring_reduce_scatter_chunked;
use sparker_collectives::segment::U64SumSegment;
use sparker_collectives::testing::{run_ring_cluster, RingClusterSpec};
use sparker_engine::objects::{MutableObjectManager, ObjectId};
use sparker_engine::reduction::segment_count;
use sparker_net::pool;
use sparker_tuner::Algo;

/// One measured reduce-scatter pass: every rank seeds `P·N·C` integer
/// segments of `elems` elements and reduces; returns each rank's owned
/// values flattened as `(global_index, elements)` for bitwise comparison.
fn run_rs(
    spec: &RingClusterSpec,
    chunks: usize,
    elems: usize,
    rounds: usize,
) -> (Vec<(usize, Vec<u64>)>, f64) {
    let algo = Algo::ChunkedRing(chunks as u8);
    let t0 = Instant::now();
    let mut out: Vec<(usize, Vec<u64>)> = Vec::new();
    for round in 0..rounds {
        let per_rank = run_ring_cluster(spec, move |comm| {
            let total = segment_count(algo, comm.ring());
            let segs: Vec<U64SumSegment> = (0..total)
                .map(|g| {
                    U64SumSegment(vec![
                        (comm.rank() as u64 + 1) * 1000 + g as u64 + round as u64;
                        elems
                    ])
                })
                .collect();
            ring_reduce_scatter_chunked(&comm, segs, chunks).unwrap()
        });
        out = per_rank
            .into_iter()
            .flatten()
            .map(|o| (o.index, o.segment.0))
            .collect();
        out.sort_by_key(|(i, _)| *i);
    }
    let secs = t0.elapsed().as_secs_f64();
    (out, secs)
}

/// Concurrent merge workload against a manager; returns (total, merges/s).
fn run_imm(stripes: usize, threads: u64, per_thread: u64) -> (u64, f64) {
    let m = std::sync::Arc::new(MutableObjectManager::with_stripes(stripes));
    let id = ObjectId { op: 1, slot: 0 };
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let m = m.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    m.merge_in(id, t * per_thread + i, |a, b| *a += b);
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let total = m.take::<u64>(id).expect("merged value present");
    (total, (threads * per_thread) as f64 / secs)
}

/// Minimal JSON writer: the schema is flat enough that hand-rolling keeps
/// the workspace dependency-free.
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
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    print_header(
        "bench_hotpath",
        "hot-path knobs: frame pool, chunk-pipelined ring, striped IMM",
        "Every section asserts its own acceptance bound; --smoke is CI step 7\n\
         of tools/check_hermetic.sh. JSON lands in results/bench_hotpath.json\n\
         and BENCH_5.json.",
    );
    let (nodes, epn, parallelism, chunks, elems, rounds, imm_per_thread) = if smoke {
        (2, 2, 2, 4, 256, 2, 20_000u64)
    } else {
        (2, 4, 4, 4, 4096, 4, 200_000u64)
    };
    let spec = RingClusterSpec::unshaped(nodes, epn, parallelism);
    let n = spec.total_executors();
    let elements_moved = (parallelism * n * chunks * elems * rounds) as f64;

    // --- Pool A/B -------------------------------------------------------
    // Warm up first so the pooled measurement sees steady state (the claim
    // is "zero allocation in steady state", not "on the first frame").
    let g = pool::global();
    g.set_enabled(true);
    let _ = run_rs(&spec, chunks, elems, 1);
    g.reset_stats();
    let (pooled_vals, pooled_secs) = run_rs(&spec, chunks, elems, rounds);
    let pooled = g.stats();

    g.set_enabled(false);
    g.reset_stats();
    let (unpooled_vals, unpooled_secs) = run_rs(&spec, chunks, elems, rounds);
    let unpooled = g.stats();
    g.set_enabled(true);

    assert_eq!(pooled_vals, unpooled_vals, "pooling changed the reduced values");
    assert!(
        pooled.misses * 10 <= unpooled.misses,
        "pooling must cut hot-path frame allocations >=10x: pooled {} vs unpooled {}",
        pooled.misses,
        unpooled.misses
    );

    // --- Pipeline A/B ---------------------------------------------------
    // Same physical segmentation both ways: the unpipelined run uses width
    // P·C with C=1, the pipelined run width P with C chunks, so both reduce
    // the same P·N·C integer segments and must agree bitwise.
    let wide = RingClusterSpec::unshaped(nodes, epn, parallelism * chunks);
    let (unpiped_vals, unpiped_secs) = run_rs(&wide, 1, elems, rounds);
    let (piped_vals, piped_secs) = run_rs(&spec, chunks, elems, rounds);
    let piped_sorted: Vec<Vec<u64>> = piped_vals.iter().map(|(_, v)| v.clone()).collect();
    let mut unpiped_sorted: Vec<Vec<u64>> =
        unpiped_vals.iter().map(|(_, v)| v.clone()).collect();
    let mut piped_sorted = piped_sorted;
    piped_sorted.sort();
    unpiped_sorted.sort();
    assert_eq!(
        piped_sorted, unpiped_sorted,
        "pipelined reduction diverged from unpipelined"
    );

    // --- IMM A/B --------------------------------------------------------
    let threads = 8u64;
    let (locked_total, locked_rate) = run_imm(1, threads, imm_per_thread);
    let (sharded_total, sharded_rate) = run_imm(8, threads, imm_per_thread);
    assert_eq!(locked_total, sharded_total, "striping changed the merged total");

    // --- Report ---------------------------------------------------------
    let mut t = Table::new(vec!["Knob", "Off", "On", "Bound"]);
    t.row(vec![
        "pool (frame allocs)".to_string(),
        unpooled.misses.to_string(),
        pooled.misses.to_string(),
        format!("{:.0}x fewer (>=10x)", unpooled.misses as f64 / pooled.misses.max(1) as f64),
    ]);
    t.row(vec![
        "pipeline (wall)".to_string(),
        fmt_secs(unpiped_secs),
        fmt_secs(piped_secs),
        "bit-exact".to_string(),
    ]);
    t.row(vec![
        "imm (merges/s)".to_string(),
        format!("{locked_rate:.0}"),
        format!("{sharded_rate:.0}"),
        "equal totals".to_string(),
    ]);
    t.print();

    let mut json = Json::new();
    json.field("bench", "\"bench_hotpath\"".to_string());
    json.field("smoke", smoke.to_string());
    json.field(
        "shape",
        obj(&[
            ("executors", n.to_string()),
            ("parallelism", parallelism.to_string()),
            ("chunks", chunks.to_string()),
            ("elems_per_segment", elems.to_string()),
            ("rounds", rounds.to_string()),
        ]),
    );
    json.field(
        "pool",
        obj(&[
            ("on_frame_allocs", pooled.misses.to_string()),
            ("on_hits", pooled.hits.to_string()),
            ("on_bytes_reused", pooled.bytes_reused.to_string()),
            ("on_elems_per_sec", format!("{:.1}", elements_moved / pooled_secs)),
            ("off_frame_allocs", unpooled.misses.to_string()),
            ("off_elems_per_sec", format!("{:.1}", elements_moved / unpooled_secs)),
            (
                "alloc_ratio",
                format!("{:.1}", unpooled.misses as f64 / pooled.misses.max(1) as f64),
            ),
        ]),
    );
    json.field(
        "pipeline",
        obj(&[
            ("on_elems_per_sec", format!("{:.1}", elements_moved / piped_secs)),
            ("off_elems_per_sec", format!("{:.1}", elements_moved / unpiped_secs)),
            (
                "bytes_per_round",
                ((parallelism * n * chunks * elems * 8) as u64).to_string(),
            ),
            ("bit_exact", "true".to_string()),
        ]),
    );
    json.field(
        "imm",
        obj(&[
            ("sharded_merges_per_sec", format!("{sharded_rate:.1}")),
            ("locked_merges_per_sec", format!("{locked_rate:.1}")),
            ("threads", threads.to_string()),
            ("merges_per_thread", imm_per_thread.to_string()),
            ("equal_totals", "true".to_string()),
        ]),
    );
    let body = json.finish();

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/bench_hotpath.json", &body).expect("write results json");
    std::fs::write("BENCH_5.json", &body).expect("write BENCH_5.json");
    println!("\nwrote results/bench_hotpath.json and BENCH_5.json");
    println!("all hot-path bounds held");
}
