//! The training workloads: full-batch gradient descent through the public
//! trainers, one `train` call per op on a cached dataset.
//!
//! The untraced run times `LogisticRegression::train` / `LinearSvm::train`
//! as a user calls them. The traced run rebuilds each iteration from the
//! public pieces the trainer uses (`LocalCluster::broadcast`, the
//! `Dataset` aggregation actions, the `ml::aggregator` callbacks and
//! `GradientKind::accumulate`) with timers around every call, and must
//! reproduce the trainer's weights and losses bit for bit.

use std::time::{Duration, Instant};

use sparker_collectives::segment::SumSegment;
use sparker_data::synth::ClassificationGen;
use sparker_engine::dataset::Dataset;
use sparker_engine::ops::tree_aggregate::TreeAggOpts;
use sparker_engine::task::EngineResult;
use sparker_engine::{AggMetrics, ClusterSpec, LocalCluster};
use sparker_ml::aggregator::{concat_dense, merge_dense, merge_segments, split_dense, zeros};
use sparker_ml::glm::GradientKind;
use sparker_ml::linalg::norm2;
use sparker_ml::{AggregationMode, DenseAgg, LabeledPoint, LinearSvm, LogisticRegression};
use sparker_net::codec::F64Array;
use sparker_net::pool;

use crate::ledger::{self, Callback};
use crate::stats::{ms, peak_rss_mib, summarize, Outcome};
use crate::Args;

/// Executors of the measured cluster, one task slot each.
const EXECUTORS: usize = 4;
/// Dataset partitions (two per executor).
const PARTITIONS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Train calls run after each set-up and before timing, counted in
/// `setup_s`.
const WARMUP_OPS: usize = 2;
/// Peak RSS is read after this many timed ops, so that it measures the
/// same work on every run whatever the throughput: the process grows a
/// little with every op the cluster runs.
const RSS_OPS: usize = 20;
/// Iterations of the gate runs, so that the checked arithmetic includes
/// non-zero weights.
const GATE_ITERATIONS: usize = 3;
/// Relative tolerance of the single-worker baseline (another summation
/// order, so equal only to rounding).
const BASELINE_RTOL: f64 = 1e-9;

/// One training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainWorkload {
    pub name: &'static str,
    pub kind: GradientKind,
    pub mode: AggregationMode,
    pub reg_param: f64,
    /// Feature dimension; the aggregator holds `dim + 2` doubles.
    pub dim: usize,
    pub samples: u64,
    pub nnz: usize,
    /// Gradient-descent iterations per `train` call.
    pub iterations: usize,
}

/// Reduce-bound: an 8 MiB dense aggregator and an 8 MiB broadcast per
/// iteration over few samples, reduced with split aggregation (ring).
pub fn lr_wide_split() -> TrainWorkload {
    TrainWorkload {
        name: "lr-wide-split",
        kind: GradientKind::Logistic,
        mode: AggregationMode::split(),
        reg_param: 0.0,
        dim: 1 << 20,
        samples: 8_000,
        nnz: 15,
        iterations: 1,
    }
}

/// Compute-bound: a small aggregator over many samples, reduced with
/// Spark's tree aggregation, so the collectives are bypassed. Four
/// iterations per op keep one op near the length of an `lr-wide-split` op,
/// so a short stall on the shared machine moves the tail less.
pub fn svm_tall_tree() -> TrainWorkload {
    TrainWorkload {
        name: "svm-tall-tree",
        kind: GradientKind::Hinge,
        mode: AggregationMode::Tree,
        reg_param: 0.01,
        dim: 4_096,
        samples: 200_000,
        nnz: 30,
        iterations: 4,
    }
}

/// Weights and per-iteration losses of one training op.
#[derive(Debug, Clone, PartialEq)]
struct Trained {
    weights: Vec<f64>,
    losses: Vec<f64>,
}

impl Trained {
    /// Compares in place: the check runs between timed ops, and an
    /// aggregator-sized allocation there would change the allocator state
    /// the next op starts from.
    fn bits_equal(&self, other: &Trained) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        same(&self.weights, &other.weights) && same(&self.losses, &other.losses)
    }

    /// Largest relative difference to `other` over losses and weights.
    fn max_rel_diff(&self, other: &Trained) -> f64 {
        if self.weights.len() != other.weights.len() || self.losses.len() != other.losses.len() {
            return f64::INFINITY;
        }
        self.weights
            .iter()
            .zip(&other.weights)
            .chain(self.losses.iter().zip(&other.losses))
            .map(|(a, b)| (a - b).abs() / a.abs().max(b.abs()).max(1.0))
            .fold(0.0, f64::max)
    }
}

/// Wall-time layers and counters of one traced op.
#[derive(Debug, Clone, Copy, Default)]
struct OpLayers {
    wall: Duration,
    broadcast: Duration,
    aggregate: Duration,
    update: Duration,
    agg: AggTotals,
    callbacks: ledger::Attribution,
    sc_bytes: u64,
    sc_messages: u64,
    pool_hits: u64,
    pool_misses: u64,
    imm_merges: u64,
}

/// Sums of the engine's [`AggMetrics`] over an op's iterations.
#[derive(Debug, Clone, Copy, Default)]
struct AggTotals {
    compute: Duration,
    reduce: Duration,
    driver_merge: Duration,
    ser_bytes: u64,
    bytes_to_driver: u64,
    messages: u64,
    downgrades: u64,
}

impl OpLayers {
    fn add(&mut self, o: &OpLayers) {
        self.wall += o.wall;
        self.broadcast += o.broadcast;
        self.aggregate += o.aggregate;
        self.update += o.update;
        let (a, b) = (&mut self.agg, &o.agg);
        a.compute += b.compute;
        a.reduce += b.reduce;
        a.driver_merge += b.driver_merge;
        a.ser_bytes += b.ser_bytes;
        a.bytes_to_driver += b.bytes_to_driver;
        a.messages += b.messages;
        a.downgrades += b.downgrades;
        self.callbacks.add(&o.callbacks);
        self.sc_bytes += o.sc_bytes;
        self.sc_messages += o.sc_messages;
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.imm_merges += o.imm_merges;
    }
}

impl AggTotals {
    fn add(&mut self, m: &AggMetrics) {
        self.compute += m.compute;
        self.reduce += m.reduce;
        self.driver_merge += m.driver_merge;
        self.ser_bytes += m.ser_bytes;
        self.bytes_to_driver += m.bytes_to_driver;
        self.messages += m.messages;
        self.downgrades += u64::from(m.downgraded);
    }
}

impl TrainWorkload {
    /// Boots the cluster, generates the dataset on the executors and
    /// caches it.
    fn setup(&self, seed: u64, executors: usize) -> EngineResult<Dataset<LabeledPoint>> {
        let cluster = LocalCluster::new(ClusterSpec::local(executors, 1));
        let gen = ClassificationGen::new(seed, self.dim, self.nnz);
        let samples = self.samples;
        let ds = cluster
            .generate(PARTITIONS, move |p| {
                gen.partition(p, PARTITIONS, samples)
                    .into_iter()
                    .map(LabeledPoint::from)
                    .collect()
            })
            .cache();
        let n = ds.count()?;
        assert_eq!(n, samples, "cached dataset lost samples");
        Ok(ds)
    }

    /// One op as a user runs it: a `train` call of the public trainer.
    fn train(&self, ds: &Dataset<LabeledPoint>) -> EngineResult<Trained> {
        let (weights, records) = match self.kind {
            GradientKind::Logistic => {
                let lr = LogisticRegression {
                    iterations: self.iterations,
                    step_size: 1.0,
                    reg_param: self.reg_param,
                    mode: self.mode,
                };
                let (model, records) = lr.train(ds, self.dim)?;
                (model.weights, records)
            }
            GradientKind::Hinge => {
                let svm = LinearSvm {
                    iterations: self.iterations,
                    step_size: 1.0,
                    reg_param: self.reg_param,
                    mini_batch_fraction: 1.0,
                    mode: self.mode,
                };
                let (model, records) = svm.train(ds, self.dim)?;
                (model.weights, records)
            }
        };
        Ok(Trained {
            weights,
            losses: records.iter().map(|r| r.loss).collect(),
        })
    }

    /// One op rebuilt from the trainer's public pieces, with every layer
    /// call timed from outside. Mirrors `glm::run_gradient_descent` with a
    /// mini-batch fraction of 1 and a step size of 1.
    fn traced_op(&self, ds: &Dataset<LabeledPoint>) -> EngineResult<(Trained, OpLayers)> {
        let cluster = ds.cluster();
        let (dim, kind) = (self.dim, self.kind);
        let mut layers = OpLayers::default();
        let sc0 = cluster.sc_stats();
        let pool0 = pool::global().stats();
        let imm = sparker_obs::metrics::counter("engine.imm.merges");
        let imm0 = imm.get();

        let t_op = Instant::now();
        let mut w = vec![0.0f64; dim];
        let mut losses = Vec::with_capacity(self.iterations);
        for it in 0..self.iterations {
            let t = Instant::now();
            let bc = cluster.broadcast(F64Array(w.clone()))?;
            layers.broadcast += t.elapsed();
            let weights = bc.clone();
            let seq = move |mut acc: DenseAgg, p: &LabeledPoint| {
                ledger::seq_mark();
                kind.accumulate(&weights.value().0, p, &mut acc.0);
                acc
            };

            let t = Instant::now();
            let (agg, metrics) = match self.mode {
                AggregationMode::Tree | AggregationMode::TreeImm => ds.tree_aggregate(
                    zeros(dim + 2),
                    seq,
                    |mut a, b| {
                        ledger::timed(Callback::Merge, || merge_dense(&mut a, b));
                        a
                    },
                    TreeAggOpts {
                        depth: 2,
                        imm: matches!(self.mode, AggregationMode::TreeImm),
                    },
                )?,
                AggregationMode::Split(opts) => {
                    let (seg, metrics) = ds.split_aggregate(
                        zeros(dim + 2),
                        seq,
                        |a, b| ledger::timed(Callback::Merge, || merge_dense(a, b)),
                        |u, i, n| ledger::timed(Callback::Split, || split_dense(u, i, n)),
                        |a, b| ledger::timed(Callback::Reduce, || merge_segments(a, b)),
                        |segs: Vec<SumSegment>| {
                            ledger::timed(Callback::Concat, || SumSegment(concat_dense(segs).0))
                        },
                        opts,
                    )?;
                    (F64Array(seg.0), metrics)
                }
            };
            layers.aggregate += t.elapsed();
            layers.agg.add(&metrics);

            let t = Instant::now();
            bc.destroy();
            layers.broadcast += t.elapsed();

            let t = Instant::now();
            let grad = &agg.0[..dim];
            let (loss_sum, count) = (agg.0[dim], agg.0[dim + 1]);
            let mut loss = 0.0;
            if count > 0.0 {
                let step = 1.0 / ((it + 1) as f64).sqrt();
                for i in 0..dim {
                    w[i] -= step * (grad[i] / count + self.reg_param * w[i]);
                }
                let n = norm2(&w);
                loss = loss_sum / count + 0.5 * self.reg_param * n * n;
            }
            losses.push(loss);
            layers.update += t.elapsed();
        }
        layers.wall = t_op.elapsed();

        layers.callbacks = ledger::attribute();
        let sc1 = cluster.sc_stats();
        layers.sc_bytes = sc1.bytes - sc0.bytes;
        layers.sc_messages = sc1.messages - sc0.messages;
        let pool1 = pool::global().stats();
        layers.pool_hits = pool1.hits - pool0.hits;
        layers.pool_misses = pool1.misses - pool0.misses;
        layers.imm_merges = imm.get() - imm0;
        Ok((Trained { weights: w, losses }, layers))
    }
}

/// One set-up: boots the cluster, caches the dataset and runs the warm-up
/// ops. Returns the dataset and the seconds all of it took. Every warm-up
/// result must equal `reference` (set by the first) bit for bit, across
/// set-ups too.
fn prepare(
    wl: &TrainWorkload,
    args: &Args,
    reference: &mut Option<Trained>,
    out: &mut Outcome,
) -> EngineResult<(Dataset<LabeledPoint>, f64)> {
    let t = Instant::now();
    let ds = wl.setup(args.seed, EXECUTORS)?;
    for _ in 0..WARMUP_OPS {
        let got = wl.train(&ds)?;
        match reference {
            None => *reference = Some(got),
            Some(r) if !got.bits_equal(r) => {
                out.errors
                    .push("warm-up op differs from the first warm-up op".into());
            }
            Some(_) => {}
        }
    }
    Ok((ds, t.elapsed().as_secs_f64()))
}

/// The correctness gates run after the timed window, on a
/// [`GATE_ITERATIONS`]-iteration train call: the traced loop is
/// bit-identical to the trainer, and a single-worker run of the same task
/// agrees on every iteration's loss and the final weights to rounding.
fn gates(wl: &TrainWorkload, args: &Args, ds: &Dataset<LabeledPoint>, out: &mut Outcome) {
    let wl = &TrainWorkload {
        iterations: GATE_ITERATIONS,
        ..*wl
    };
    let reference = match wl.train(ds) {
        Ok(r) => r,
        Err(e) => return out.check(false, || format!("gate reference op failed: {e}")),
    };
    let reference = &reference;
    match wl.traced_op(ds) {
        Ok((traced, _)) => {
            let same = traced.bits_equal(reference);
            println!("gate traced-loop-bit-identical: {}", verdict(same));
            out.check(same, || "traced loop differs from the trainer".into());
        }
        Err(e) => out.check(false, || format!("traced op failed: {e}")),
    }
    let baseline = wl.setup(args.seed, 1).and_then(|ds1| wl.train(&ds1));
    match baseline {
        Ok(single) => {
            let diff = single.max_rel_diff(reference);
            let ok = diff <= BASELINE_RTOL;
            println!(
                "gate single-worker-baseline: {} (max relative difference {diff:.3e}, tolerance {BASELINE_RTOL:e})",
                verdict(ok)
            );
            out.check(ok, || format!("single-worker baseline differs by {diff:e}"));
        }
        Err(e) => out.check(false, || format!("single-worker baseline failed: {e}")),
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "pass"
    } else {
        "FAIL"
    }
}

/// Times one `train` call and checks its result; returns milliseconds.
fn timed_op(
    wl: &TrainWorkload,
    ds: &Dataset<LabeledPoint>,
    reference: &Trained,
    out: &mut Outcome,
) -> f64 {
    let t = Instant::now();
    let got = wl.train(ds);
    let lat = ms(t.elapsed());
    match got {
        Ok(g) => out.check(g.bits_equal(reference), || {
            "op result differs from the reference".into()
        }),
        Err(e) => out.check(false, || format!("op failed: {e}")),
    }
    lat
}

pub fn run(wl: &TrainWorkload, args: &Args) -> EngineResult<Outcome> {
    let mut out = Outcome::default();
    println!(
        "workload {}: {:?} via {} aggregation, dim {}, {} samples x {} nnz, {} iteration(s) per op, \
         ClusterSpec::local({EXECUTORS}, 1), {PARTITIONS} partitions",
        wl.name,
        wl.kind,
        wl.mode.name(),
        wl.dim,
        wl.samples,
        wl.nnz,
        wl.iterations
    );
    if args.trace {
        return traced_run(wl, args, out);
    }
    let mut reference = None;
    let (ds, first) = prepare(wl, args, &mut reference, &mut out)?;
    let reference = reference.expect("warm-up ops ran");
    let mut lat = Vec::new();
    let mut rss = None;
    let start = Instant::now();
    while start.elapsed() < args.window() || lat.len() < RSS_OPS {
        lat.push(timed_op(wl, &ds, &reference, &mut out));
        if lat.len() == RSS_OPS {
            rss = peak_rss_mib(None);
        }
    }
    let rss = rss.unwrap_or(0.0);
    // The other set-up samples come after the window, so that peak RSS
    // holds one cluster's data.
    drop(ds);
    let mut times = vec![first];
    let mut last = None;
    for _ in 1..SETUPS {
        drop(last.take());
        let (ds, t) = prepare(wl, args, &mut Some(reference.clone()), &mut out)?;
        times.push(t);
        last = Some(ds);
    }
    let setup_s = summarize(&times).p50;
    gates(wl, args, &last.expect("more than one set-up"), &mut out);

    let s = summarize(&lat);
    let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
    let ops_per_s = s.count as f64 / busy_s;
    let samples_per_s = ops_per_s * (wl.samples as f64) * (wl.iterations as f64);
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("setup_s            = {setup_s:.4} s (median of {SETUPS} set-ups, {WARMUP_OPS} warm-up ops each)");
    println!("train_ms_p50       = {:.3} ms ({} ops)", s.p50, s.count);
    println!(
        "train_ms_tail      = {:.3} ms (p{} of {} ops)",
        s.tail, s.tail_pct, s.count
    );
    println!("samples_per_s      = {samples_per_s:.0} samples/s");
    println!(
        "failed_ratio       = {failed_ratio} ({} of {})",
        out.failed, out.attempted
    );
    println!("peak_rss_mib       = {rss:.1} MiB (after set-up and {RSS_OPS} timed ops)");
    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("op_ms_p50", s.p50, "ms");
    m.put("op_ms_tail", s.tail, "ms");
    m.put("ops_per_s", ops_per_s, "1/s");
    m.put("peak_rss_mib", rss, "MiB");
    Ok(out)
}

/// The traced run: untraced and traced ops in turn, then the ledger.
fn traced_run(wl: &TrainWorkload, args: &Args, mut out: Outcome) -> EngineResult<Outcome> {
    let mut reference = None;
    let (ds, _) = prepare(wl, args, &mut reference, &mut out)?;
    let reference = reference.expect("warm-up ops ran");
    // Untraced and traced ops alternate, so that drift over the run does
    // not show up as tracing overhead.
    let mut untraced = Vec::new();
    let mut sum = OpLayers::default();
    let mut ops = 0u32;
    let history = ds.cluster().history();
    let stages0 = history.snapshot().len();
    let start = Instant::now();
    while start.elapsed() < args.window() {
        untraced.push(timed_op(wl, &ds, &reference, &mut out));
        match wl.traced_op(&ds) {
            Ok((got, l)) => {
                out.check(got.bits_equal(&reference), || {
                    "traced op differs from the trainer".into()
                });
                ops += 1;
                sum.add(&l);
            }
            Err(e) => out.check(false, || format!("traced op failed: {e}")),
        }
    }
    if ops == 0 {
        out.errors.push("no traced op completed".into());
        return Ok(out);
    }
    // Task retries of every op in the window, traced and untraced, read
    // from the stage history once so that no op pays for the copy.
    let retries: u64 = history.snapshot()[stages0..]
        .iter()
        .map(|e| u64::from(e.attempts.saturating_sub(e.tasks)))
        .sum();
    let retries_per_op = retries as f64 / (untraced.len() + ops as usize) as f64;
    let untraced_mean = summarize(&untraced).mean;
    let n = f64::from(ops);
    let per = |d: Duration| ms(d) / n;
    let per_count = |c: u64| c as f64 / n;
    let share = |k: Callback| sum.callbacks.share_s[k as usize] * 1e3 / n;

    let wall = per(sum.wall);
    let broadcast = per(sum.broadcast);
    let aggregate = per(sum.aggregate);
    let update = per(sum.update);
    let aggregate_self = aggregate - sum.callbacks.covered_s * 1e3 / n;
    let unattributed = wall - broadcast - aggregate - update;
    let overhead_pct = (wall - untraced_mean) / untraced_mean * 100.0;
    let hit_ratio = sum.pool_hits as f64 / ((sum.pool_hits + sum.pool_misses) as f64).max(1.0);

    let m = &mut out.metrics;
    m.put("engine.broadcast_ms", broadcast, "ms");
    m.put("ml.seq_op_ms", share(Callback::Seq), "ms");
    m.put(
        "ml.seq_op_calls",
        per_count(sum.callbacks.calls[Callback::Seq as usize]),
        "count",
    );
    m.put("engine.agg_compute_ms", per(sum.agg.compute), "ms");
    m.put("ml.merge_op_ms", share(Callback::Merge), "ms");
    m.put("ml.split_op_ms", share(Callback::Split), "ms");
    m.put("ml.reduce_op_ms", share(Callback::Reduce), "ms");
    m.put("ml.concat_op_ms", share(Callback::Concat), "ms");
    m.put("engine.agg_reduce_ms", per(sum.agg.reduce), "ms");
    m.put("engine.driver_merge_ms", per(sum.agg.driver_merge), "ms");
    m.put("engine.aggregate_self_ms", aggregate_self, "ms");
    m.put("ml.update_ms", update, "ms");
    m.put("engine.ser_bytes", per_count(sum.agg.ser_bytes), "B");
    m.put(
        "engine.bytes_to_driver",
        per_count(sum.agg.bytes_to_driver),
        "B",
    );
    m.put("engine.messages", per_count(sum.agg.messages), "count");
    m.put("net.sc_bytes", per_count(sum.sc_bytes), "B");
    m.put("net.sc_messages", per_count(sum.sc_messages), "count");
    m.put("net.pool_hits", per_count(sum.pool_hits), "count");
    m.put("net.pool_misses", per_count(sum.pool_misses), "count");
    m.put("net.pool_hit_ratio", hit_ratio, "ratio");
    m.put("engine.imm_merges", per_count(sum.imm_merges), "count");
    m.put("engine.task_retries", retries_per_op, "count");
    m.put("engine.downgrades", per_count(sum.agg.downgrades), "count");
    crate::put_unused(m, crate::TCP_LAYERS);
    m.put("ledger.op_ms", wall, "ms");
    m.put("ledger.unattributed_ms", unattributed, "ms");
    m.put("ledger.tracing_overhead_pct", overhead_pct, "%");

    println!(
        "ledger {} (mean of {ops} traced ops, {} iteration(s) each; untraced mean {untraced_mean:.3} ms over {} ops)",
        wl.name,
        wl.iterations,
        untraced.len()
    );
    let rows = [
        ("engine.broadcast_ms", broadcast),
        ("ml.seq_op_ms", share(Callback::Seq)),
        ("ml.merge_op_ms", share(Callback::Merge)),
        ("ml.split_op_ms", share(Callback::Split)),
        ("ml.reduce_op_ms", share(Callback::Reduce)),
        ("ml.concat_op_ms", share(Callback::Concat)),
        ("engine.aggregate_self_ms", aggregate_self),
        ("ml.update_ms", update),
        ("ledger.unattributed_ms", unattributed),
    ];
    crate::print_ledger(&rows, wall);
    println!(
        "  overlapping engine view: agg_compute {:.3} ms, agg_reduce {:.3} ms (driver_merge {:.3} ms)",
        per(sum.agg.compute),
        per(sum.agg.reduce),
        per(sum.agg.driver_merge)
    );
    println!("  tracing overhead: {overhead_pct:.1}% of the untraced op time");
    stress_check(wl, &out);
    Ok(out)
}

/// States whether the workload stresses the layer it was chosen for.
fn stress_check(wl: &TrainWorkload, out: &Outcome) {
    let g = |name: &str| out.metrics.get(name);
    let reduce_side = g("engine.agg_reduce_ms") + g("engine.broadcast_ms");
    let compute_side = g("engine.agg_compute_ms").max(g("ml.seq_op_ms"));
    let others = g("ml.update_ms").max(g("ledger.unattributed_ms"));
    let (met, what) = if matches!(wl.mode, AggregationMode::Split(_)) {
        (
            reduce_side > compute_side && reduce_side > others,
            format!(
                "agg_reduce + broadcast = {reduce_side:.3} ms vs compute {compute_side:.3} ms: reduction is the largest share"
            ),
        )
    } else {
        (
            compute_side > reduce_side && compute_side > others && g("ml.reduce_op_ms") == 0.0,
            format!(
                "seq_op/agg_compute = {compute_side:.3} ms vs agg_reduce + broadcast {reduce_side:.3} ms, \
                 reduce_op {:.3} ms: compute is the largest share",
                g("ml.reduce_op_ms")
            ),
        )
    };
    println!(
        "stress-check {}: {} ({what})",
        wl.name,
        if met { "met" } else { "NOT MET" }
    );
}
