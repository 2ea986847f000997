//! The `tcp-sparse-jobs` workload: sparse split-aggregate jobs over real
//! sockets. Executor processes are re-executed from this binary, meet the
//! driver through the rendezvous coordinator, and serve jobs that
//! `sched::Scheduler` (FIFO) dispatches over `MultiProcBackend`.

use std::collections::HashMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sparker_engine::multiproc::{oracle, serve, JobOutcome, JobSpec, MultiProcDriver};
use sparker_net::sync::Mutex;
use sparker_net::tcp::rendezvous::{self, Coordinator};
use sparker_net::tcp::TcpConfig;
use sparker_obs::metrics::{self as obs_metrics, MetricValue};
use sparker_sched::{Backend, Fifo, JobCtx, JobRequest, MultiProcBackend, SchedConfig, Scheduler};

use crate::stats::{ms, peak_rss_mib, summarize, Outcome};
use crate::{children, Args};

const EXECUTORS: usize = 3;
/// Ring channels of the data-plane mesh.
const CHANNELS: usize = 2;
/// Closed-loop clients, each waiting for its job before the next.
const CLIENTS: u32 = 2;
/// Large enough that a job's own work outweighs the wake-up latency of the
/// polling TCP threads, which follows the other load on the machine.
const DIM: usize = 524_288;
const PARTS: usize = 6;
const DENSITY: f64 = 0.01;
/// Set-ups per run; `setup_s` is their median. The untraced window is
/// split among the clusters they start.
const SETUPS: usize = 3;
/// Jobs each client runs after set-up and before timing.
const WARMUP_JOBS: usize = 10;
/// Peak RSS is read once this many timed jobs have completed, so that it
/// measures the same work on every run whatever the throughput.
const RSS_JOBS: usize = 100;
const JOIN_TIMEOUT: Duration = Duration::from_secs(30);
/// A job not answered within this counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// The traced run alternates untraced and traced slices of this length.
const TRACE_SLICE: Duration = Duration::from_secs(1);
/// How long an executor may take to exit after shutdown before it is killed.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);
/// An executor exits on its own after this, whatever the driver does.
const EXECUTOR_LIMIT: Duration = Duration::from_secs(170);
/// Heartbeat round-trip histogram the transport keeps.
const RTT_HISTOGRAM: &str = "net.heartbeat.rtt_us";

/// Start and duration of each backend run, by scheduler job id; `None`
/// while tracing is off.
type RunLog = Arc<std::sync::Mutex<Option<HashMap<u64, (Instant, Duration)>>>>;

/// Scheduler backend that times `MultiProcBackend::run` from outside when
/// tracing is on.
struct TimedBackend {
    inner: MultiProcBackend,
    runs: RunLog,
}

impl Backend for TimedBackend {
    type Job = JobSpec;
    type Output = JobOutcome;

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn run(&self, lane: usize, ctx: JobCtx, job: &JobSpec) -> Result<JobOutcome, String> {
        let start = Instant::now();
        let result = self.inner.run(lane, ctx, job);
        if let Some(runs) = self.runs.lock().expect("run log poisoned").as_mut() {
            runs.insert(ctx.job_id, (start, start.elapsed()));
        }
        result
    }
}

/// Reads the cluster's peak RSS when the `at`-th job completes.
struct RssProbe {
    at: usize,
    done: AtomicUsize,
    value: OnceLock<f64>,
}

impl RssProbe {
    fn new(at: usize) -> Self {
        Self {
            at,
            done: AtomicUsize::new(0),
            value: OnceLock::new(),
        }
    }

    fn pending(&self) -> bool {
        self.value.get().is_none()
    }

    fn job_done(&self, cluster: &TcpCluster) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.value.set(cluster.peak_rss_mib());
        }
    }
}

/// What one client saw of one job.
struct JobRecord {
    job_id: u64,
    /// Seed of the job's data, to recompute the expected result.
    seed: u64,
    submitted: Instant,
    latency: Duration,
    outcome: Result<JobStats, String>,
}

/// The parts of a [`JobOutcome`] the report needs. The value itself is
/// kept only as a digest of its bits, checked against the oracle by
/// [`verify`] after the jobs have run.
struct JobStats {
    digest: u64,
    attempts: u32,
    used_fallback: bool,
    result_bytes: u64,
    wire_segments: usize,
}

/// Counters an executor prints when it leaves: data-plane sends and the
/// heartbeat round-trip histogram.
#[derive(Debug)]
struct ExecStats {
    messages: u64,
    bytes: u64,
    rtt_buckets: Vec<(u64, u64)>,
}

/// A running cluster: executor processes, the driver and the scheduler.
struct TcpCluster {
    pids: Vec<u32>,
    driver: Arc<Mutex<MultiProcDriver>>,
    sched: Scheduler<TimedBackend>,
    runs: RunLog,
    /// Jobs submitted so far, warm-up included.
    jobs_run: usize,
}

impl TcpCluster {
    fn start() -> Result<Self, String> {
        let mut coordinator = Coordinator::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = coordinator
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut pids = Vec::with_capacity(EXECUTORS);
        for _ in 0..EXECUTORS {
            let child = Command::new(&exe)
                .args(["--executor", "--driver", &addr])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn executor: {e}"))?;
            pids.push(child.id());
            children()
                .lock()
                .expect("child registry poisoned")
                .push(child);
        }
        let controls = coordinator
            .wait_for(EXECUTORS, CHANNELS, JOIN_TIMEOUT)
            .map_err(|e| format!("rendezvous: {e}"))?;
        let mut driver = MultiProcDriver::new(controls);
        driver.reply_timeout = JOB_TIMEOUT;
        let driver = Arc::new(Mutex::new(driver));
        let runs = RunLog::default();
        let backend = TimedBackend {
            inner: MultiProcBackend::new(driver.clone()),
            runs: runs.clone(),
        };
        let sched = Scheduler::new(backend, Box::new(Fifo), SchedConfig::default());
        Ok(Self {
            pids,
            driver,
            sched,
            runs,
            jobs_run: 0,
        })
    }

    /// Runs `CLIENTS` closed-loop clients until `until`, or `jobs` jobs
    /// each when given; with a `probe`, also until it has read the RSS.
    /// The results still have to go through [`verify`].
    fn run_clients(
        &mut self,
        seed: u64,
        until: Instant,
        jobs: Option<usize>,
        probe: Option<&RssProbe>,
    ) -> Vec<JobRecord> {
        let cluster = &*self;
        let records: Vec<JobRecord> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = 0u64;
                        let more = |done: usize| match jobs {
                            Some(n) => done < n,
                            None => Instant::now() < until || probe.is_some_and(RssProbe::pending),
                        };
                        while more(out.len()) {
                            let job_seed = crate::mix(seed, u64::from(client) << 40 | i);
                            i += 1;
                            out.push(one_job(&cluster.sched, client, job_seed));
                            if let Some(p) = probe {
                                p.job_done(cluster);
                            }
                            if out.last().is_some_and(|r| r.outcome.is_err()) && jobs.is_some() {
                                break;
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.jobs_run += records.len();
        records
    }

    fn start_tracing(&self) {
        *self.runs.lock().expect("run log poisoned") = Some(HashMap::new());
    }

    /// Stops tracing and returns the backend runs it logged.
    fn take_runs(&self) -> HashMap<u64, (Instant, Duration)> {
        self.runs
            .lock()
            .expect("run log poisoned")
            .take()
            .unwrap_or_default()
    }

    /// Sums the named counters over every executor's metric registry.
    fn executor_counters(&self, names: &[&str]) -> Vec<u64> {
        let per_exec = self.driver.lock().collect_metrics();
        names
            .iter()
            .map(|name| {
                per_exec
                    .iter()
                    .flat_map(|(_, pairs)| pairs.iter())
                    .filter(|(n, _)| n == name)
                    .map(|(_, v)| v)
                    .sum()
            })
            .collect()
    }

    fn peak_rss_mib(&self) -> f64 {
        let own = peak_rss_mib(None).unwrap_or(0.0);
        own + self
            .pids
            .iter()
            .filter_map(|&p| peak_rss_mib(Some(p)))
            .sum::<f64>()
    }

    /// Shuts everything down and reaps the executors, killing any that do
    /// not exit in time. Returns the executors' own counters.
    fn stop(self) -> Result<Vec<ExecStats>, String> {
        self.sched.shutdown();
        drop(self.sched);
        self.driver.lock().shutdown();
        let mut stats = Vec::new();
        let mut problems = Vec::new();
        for pid in self.pids {
            match reap(pid) {
                Ok(s) => stats.push(s),
                Err(e) => problems.push(e),
            }
        }
        if problems.is_empty() {
            Ok(stats)
        } else {
            Err(problems.join("; "))
        }
    }
}

fn spec(seed: u64) -> JobSpec {
    JobSpec::sparse(0, seed, DIM, PARTS, DENSITY)
}

fn one_job(sched: &Scheduler<TimedBackend>, client: u32, seed: u64) -> JobRecord {
    let submitted = Instant::now();
    let result = sched.submit(JobRequest::new(client, spec(seed)));
    let (job_id, outcome) = match result {
        Err(e) => (0, Err(format!("rejected: {e}"))),
        Ok(handle) => {
            let id = handle.job_id;
            let got = match handle.wait_timeout(JOB_TIMEOUT) {
                None => Err(format!("no result within {JOB_TIMEOUT:?}")),
                Some(Err(e)) => Err(e.to_string()),
                Some(Ok(o)) => Ok(o),
            };
            (id, got)
        }
    };
    let latency = submitted.elapsed();
    JobRecord {
        job_id,
        seed,
        submitted,
        latency,
        outcome: outcome.map(|o| JobStats {
            digest: digest(&o.value),
            attempts: o.attempts,
            used_fallback: o.used_fallback,
            result_bytes: o.result_bytes,
            wire_segments: o.wire_segments,
        }),
    }
}

/// FNV-1a over the length and the bits of every element: equal digests
/// mean bit-identical vectors, up to a 2^-64 chance of collision.
fn digest(v: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325 ^ v.len() as u64;
    for x in v {
        h = (h ^ x.to_bits()).wrapping_mul(PRIME);
    }
    h
}

/// Compares every job's result with `engine::multiproc::oracle`, on two
/// threads, once the jobs have run: the oracle costs as much CPU as a job,
/// and computing it between jobs would compete with the job in flight.
fn verify(records: &mut [JobRecord]) {
    let half = records.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        for chunk in records.chunks_mut(half) {
            s.spawn(move || {
                for r in chunk {
                    let wrong = r
                        .outcome
                        .as_ref()
                        .is_ok_and(|o| o.digest != digest(&oracle(&spec(r.seed))));
                    if wrong {
                        r.outcome = Err("result differs from the oracle".to_string());
                    }
                }
            });
        }
    });
}

/// Waits for executor `pid` to exit, killing it after [`REAP_TIMEOUT`],
/// and parses the counters it printed.
fn reap(pid: u32) -> Result<ExecStats, String> {
    let deadline = Instant::now() + REAP_TIMEOUT;
    loop {
        let mut reg = children().lock().expect("child registry poisoned");
        let Some(pos) = reg.iter().position(|c| c.id() == pid) else {
            return Err(format!("executor {pid} is not registered"));
        };
        let exited = reg[pos].try_wait().map_err(|e| e.to_string())?;
        if exited.is_none() && Instant::now() < deadline {
            drop(reg);
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        let mut child = reg.swap_remove(pos);
        drop(reg);
        let status = match exited {
            Some(s) => s,
            None => {
                let _ = child.kill();
                child.wait().map_err(|e| e.to_string())?;
                return Err(format!(
                    "executor {pid} did not exit within {REAP_TIMEOUT:?}; killed"
                ));
            }
        };
        let mut text = String::new();
        if let Some(mut out) = child.stdout.take() {
            out.read_to_string(&mut text).map_err(|e| e.to_string())?;
        }
        if !status.success() {
            return Err(format!("executor {pid} exited with {status}"));
        }
        return parse_exec_stats(&text).ok_or_else(|| format!("executor {pid} printed no stats"));
    }
}

fn parse_exec_stats(text: &str) -> Option<ExecStats> {
    let line = text.lines().find_map(|l| l.strip_prefix("exec-stats "))?;
    let mut fields = line.split_whitespace();
    let messages = fields.next()?.parse().ok()?;
    let bytes = fields.next()?.parse().ok()?;
    let rtt_buckets = fields
        .map(|f| {
            let (lo, n) = f.split_once(':')?;
            Some((lo.parse().ok()?, n.parse().ok()?))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ExecStats {
        messages,
        bytes,
        rtt_buckets,
    })
}

/// Median of log2-bucketed samples, interpolated linearly inside the
/// bucket that holds it.
fn bucket_median(buckets: &[(u64, u64)]) -> f64 {
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for &(lo, n) in buckets {
        match merged.iter_mut().find(|(l, _)| *l == lo) {
            Some((_, m)) => *m += n,
            None => merged.push((lo, n)),
        }
    }
    merged.sort_unstable();
    let total: u64 = merged.iter().map(|&(_, n)| n).sum();
    let half = total as f64 / 2.0;
    let mut seen = 0.0;
    for (lo, n) in merged {
        let next = seen + n as f64;
        if next >= half && n > 0 {
            let width = lo.max(1) as f64;
            return lo as f64 + width * (half - seen) / n as f64;
        }
        seen = next;
    }
    0.0
}

/// Executor process: joins the driver, serves jobs until shutdown, then
/// prints its transport counters for the benchmark to collect.
pub fn executor_main(driver_addr: &str) -> i32 {
    std::thread::spawn(|| {
        std::thread::sleep(EXECUTOR_LIMIT);
        eprintln!("perfbench executor: still running after {EXECUTOR_LIMIT:?}; exiting");
        std::process::exit(86);
    });
    let joined = match rendezvous::join_with(driver_addr, JOIN_TIMEOUT, TcpConfig::default()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench executor: join failed: {e}");
            return 1;
        }
    };
    let transport = joined.transport.clone();
    if let Err(e) = serve(joined) {
        eprintln!("perfbench executor: serve failed: {e}");
        return 1;
    }
    let s = transport.stats();
    let rtt = obs_metrics::snapshot()
        .into_iter()
        .find(|m| m.name == RTT_HISTOGRAM)
        .and_then(|m| match m.value {
            MetricValue::Histogram(_, _, buckets) => Some(buckets),
            _ => None,
        })
        .unwrap_or_default();
    let buckets: Vec<String> = rtt.iter().map(|(lo, n)| format!("{lo}:{n}")).collect();
    println!(
        "exec-stats {} {} {}",
        s.messages,
        s.bytes,
        buckets.join(" ")
    );
    0
}

/// Starts a cluster and runs the warm-up jobs; the time both take is one
/// set-up sample.
fn setup(args: &Args, round: usize, out: &mut Outcome) -> Result<(TcpCluster, f64), String> {
    let t = Instant::now();
    let mut cluster = TcpCluster::start()?;
    let mut warm = cluster.run_clients(
        crate::mix(args.seed, 0xFACE + round as u64),
        Instant::now(),
        Some(WARMUP_JOBS),
        None,
    );
    verify(&mut warm);
    for r in &warm {
        if let Err(e) = &r.outcome {
            out.errors.push(format!("warm-up job: {e}"));
        }
    }
    Ok((cluster, t.elapsed().as_secs_f64()))
}

fn check_records(records: &[JobRecord], out: &mut Outcome) {
    for r in records {
        out.check(r.outcome.is_ok(), || {
            format!(
                "job {}: {}",
                r.job_id,
                r.outcome.as_ref().err().cloned().unwrap_or_default()
            )
        });
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    println!(
        "workload tcp-sparse-jobs: {EXECUTORS} executor processes over TCP ({CHANNELS} channels), \
         FIFO scheduler over MultiProcBackend, {CLIENTS} closed-loop clients, \
         JobSpec::sparse(dim {DIM}, {PARTS} parts, density {DENSITY})"
    );
    if !args.trace {
        untraced_window(args, &mut out)?;
        return Ok(out);
    }
    let (mut cluster, _) = setup(args, 0, &mut out)?;
    let result = traced_window(&mut cluster, args, &mut out);
    let jobs_run = cluster.jobs_run;
    let stopped = cluster.stop();
    if let Err(e) = result {
        out.errors.push(e);
    }
    match stopped {
        Err(e) => out.errors.push(e),
        Ok(stats) => report_executors(&stats, jobs_run, &mut out),
    }
    Ok(out)
}

/// Per-job data-plane traffic and heartbeat round trips, from the counters
/// the executors printed on exit (warm-up jobs included).
fn report_executors(stats: &[ExecStats], jobs_run: usize, out: &mut Outcome) {
    let jobs = jobs_run.max(1) as f64;
    let messages: u64 = stats.iter().map(|s| s.messages).sum();
    let bytes: u64 = stats.iter().map(|s| s.bytes).sum();
    let buckets: Vec<(u64, u64)> = stats.iter().flat_map(|s| s.rtt_buckets.clone()).collect();
    let rtt = bucket_median(&buckets);
    let m = &mut out.metrics;
    m.put("net.tcp_send_bytes", bytes as f64 / jobs, "B");
    m.put("net.tcp_send_messages", messages as f64 / jobs, "count");
    m.put("net.heartbeat_rtt_us_p50", rtt, "us");
    println!(
        "  executor data plane: {:.0} B and {:.1} messages sent per job ({jobs_run} jobs incl. warm-up), \
         heartbeat rtt p50 {rtt:.1} us",
        bytes as f64 / jobs,
        messages as f64 / jobs,
    );
}

/// The timed window with tracing off: the end-to-end metrics. The window
/// is split evenly among [`SETUPS`] clusters, each started afresh and
/// stopped before the next starts. Job latency depends on how the
/// executors' polling threads happen to share the cores, which holds for a
/// cluster's lifetime and differs from one cluster to the next; pooling
/// the jobs of several clusters keeps one cluster's luck from setting a
/// run's figures. Peak RSS is read on the first cluster.
fn untraced_window(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let probe = RssProbe::new(RSS_JOBS);
    let slice = args.window() / SETUPS as u32;
    let (mut records, mut setups, mut wall) = (Vec::new(), Vec::new(), 0.0);
    for round in 0..SETUPS {
        let (mut cluster, t) = setup(args, round, out)?;
        setups.push(t);
        let start = Instant::now();
        let got = cluster.run_clients(
            crate::mix(args.seed, round as u64),
            start + slice,
            None,
            (round == 0).then_some(&probe),
        );
        wall += start.elapsed().as_secs_f64();
        let p50 = summarize(&got.iter().map(|r| ms(r.latency)).collect::<Vec<_>>()).p50;
        println!("  cluster {round}: {} jobs, p50 {p50:.3} ms", got.len());
        records.extend(got);
        cluster.stop()?;
    }
    let rss = probe.value.get().copied().unwrap_or(0.0);
    verify(&mut records);
    check_records(&records, out);
    let lat: Vec<f64> = records.iter().map(|r| ms(r.latency)).collect();
    if lat.is_empty() {
        return Err("no job completed".into());
    }
    let s = summarize(&lat);
    let setup_s = summarize(&setups).p50;
    let jobs_per_s = records.iter().filter(|r| r.outcome.is_ok()).count() as f64 / wall;
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "setup_s            = {setup_s:.4} s (median of {SETUPS} set-ups: spawn, rendezvous, {} warm-up jobs)",
        WARMUP_JOBS * CLIENTS as usize
    );
    println!("job_ms_p50         = {:.3} ms ({} jobs)", s.p50, s.count);
    println!(
        "job_ms_tail        = {:.3} ms (p{} of {} jobs)",
        s.tail, s.tail_pct, s.count
    );
    println!("jobs_per_s         = {jobs_per_s:.1} jobs/s");
    println!(
        "failed_ratio       = {failed_ratio} ({} of {})",
        out.failed, out.attempted
    );
    println!(
        "peak_rss_mib       = {rss:.1} MiB (driver plus {EXECUTORS} executors, after set-up and {RSS_JOBS} timed jobs)"
    );
    println!(
        "gate oracle-bit-exact: {} ({} jobs checked)",
        if out.failed == 0 { "pass" } else { "FAIL" },
        records.len()
    );
    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("op_ms_p50", s.p50, "ms");
    m.put("op_ms_tail", s.tail, "ms");
    m.put("ops_per_s", jobs_per_s, "1/s");
    m.put("peak_rss_mib", rss, "MiB");
    Ok(())
}

/// The traced run: untraced slices alternate with slices in which the
/// backend is timed; executor counters are read around the whole window.
fn traced_window(cluster: &mut TcpCluster, args: &Args, out: &mut Outcome) -> Result<(), String> {
    const COUNTERS: [&str; 4] = [
        "sparse.wire_bytes",
        "sparse.dense_equiv_bytes",
        "net.pool.hits",
        "net.pool.misses",
    ];
    let before = cluster.executor_counters(&COUNTERS);
    let rejected0 = obs_metrics::counter("sched.rejected.queue_full").get()
        + obs_metrics::counter("sched.rejected.backpressure").get();
    // Untraced and traced slices alternate, so that drift over the run
    // does not show up as tracing overhead.
    let (mut untraced, mut records, mut runs) = (Vec::new(), Vec::new(), HashMap::new());
    let start = Instant::now();
    let mut slice = 0u64;
    while start.elapsed() < args.window() {
        slice += 1;
        let traced = slice.is_multiple_of(2);
        if traced {
            cluster.start_tracing();
        }
        let got = cluster.run_clients(
            crate::mix(args.seed, slice),
            Instant::now() + TRACE_SLICE,
            None,
            None,
        );
        if traced {
            runs.extend(cluster.take_runs());
            records.extend(got);
        } else {
            untraced.extend(got);
        }
    }
    let rejected = obs_metrics::counter("sched.rejected.queue_full").get()
        + obs_metrics::counter("sched.rejected.backpressure").get()
        - rejected0;
    let after = cluster.executor_counters(&COUNTERS);
    verify(&mut untraced);
    verify(&mut records);
    check_records(&untraced, out);
    check_records(&records, out);
    let untraced_mean = summarize(&untraced.iter().map(|r| ms(r.latency)).collect::<Vec<_>>()).mean;
    let all_jobs = (untraced.len() + records.len()).max(1) as f64;

    let n = records.len().max(1) as f64;
    let (mut wall, mut queue, mut run, mut bytes, mut segs) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut retries, mut fallbacks) = (0u64, 0u64);
    for r in &records {
        wall += ms(r.latency);
        if let Some(&(start, dur)) = runs.get(&r.job_id) {
            queue += ms(start.saturating_duration_since(r.submitted));
            run += ms(dur);
        }
        if let Ok(o) = &r.outcome {
            bytes += o.result_bytes as f64;
            segs += o.wire_segments as f64;
            retries += u64::from(o.attempts.saturating_sub(1));
            fallbacks += u64::from(o.used_fallback);
        }
    }
    let (wall, queue, run) = (wall / n, queue / n, run / n);
    let unattributed = wall - queue - run;
    let delta = |i: usize| after[i].saturating_sub(before[i]) as f64;
    let wire = delta(0) / all_jobs;
    let dense = delta(1) / all_jobs;
    let hit_ratio = delta(2) / (delta(2) + delta(3)).max(1.0);
    let overhead_pct = (wall - untraced_mean) / untraced_mean * 100.0;

    let m = &mut out.metrics;
    crate::put_unused(m, crate::TRAIN_LAYERS);
    m.put("sched.queue_wait_ms", queue, "ms");
    m.put("multiproc.run_job_ms", run, "ms");
    m.put("multiproc.result_bytes", bytes / n, "B");
    m.put("multiproc.wire_segments", segs / n, "count");
    m.put("sparse.wire_bytes", wire, "B");
    m.put("sparse.dense_equiv_bytes", dense, "B");
    m.put(
        "sparse.wire_ratio",
        if dense > 0.0 { wire / dense } else { 0.0 },
        "ratio",
    );
    m.put("net.exec_pool_hit_ratio", hit_ratio, "ratio");
    m.put("multiproc.retries", retries as f64, "count");
    m.put("multiproc.fallbacks", fallbacks as f64, "count");
    m.put("sched.rejected", rejected as f64, "count");
    m.put("ledger.op_ms", wall, "ms");
    m.put("ledger.unattributed_ms", unattributed, "ms");
    m.put("ledger.tracing_overhead_pct", overhead_pct, "%");

    println!(
        "ledger tcp-sparse-jobs (mean of {} traced jobs; untraced mean {untraced_mean:.3} ms over {} jobs)",
        records.len(),
        untraced.len()
    );
    crate::print_ledger(
        &[
            ("sched.queue_wait_ms", queue),
            ("multiproc.run_job_ms", run),
            ("ledger.unattributed_ms", unattributed),
        ],
        wall,
    );
    println!(
        "  sparse segments: {wire:.0} B on the wire vs {dense:.0} B dense per job; executor frame pool hit ratio {hit_ratio:.3}"
    );
    println!("  tracing overhead: {overhead_pct:.1}% of the untraced job time");
    Ok(())
}
