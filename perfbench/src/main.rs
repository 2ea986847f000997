//! Wall-clock benchmark of the Sparker engine with emulation off
//! (`ClusterSpec::local`, `CostModel::free()`, unshaped links), with a
//! per-layer ledger measured from outside the program.
//!
//! ```text
//! perfbench --workload <lr-wide-split|svm-tall-tree|tcp-sparse-jobs|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics, and the lines before it print the ledger. `all` runs every
//! workload in its own process. A wrong result, an error or a hang makes
//! the exit code non-zero.

mod ledger;
mod stats;
mod tcp;
mod train;

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use stats::{Metrics, Outcome};

const WORKLOADS: [&str; 3] = ["lr-wide-split", "svm-tall-tree", "tcp-sparse-jobs"];

/// A run still going after this is stopped and counted as failed, so the
/// process exits well inside its 180-second budget.
const WATCHDOG: Duration = Duration::from_secs(150);

/// Exit code of a run with a wrong result or an error.
const EXIT_FAILED: i32 = 1;
/// Exit code of a run the watchdog stopped.
const EXIT_HUNG: i32 = 3;
/// Exit code of a bad command line.
const EXIT_USAGE: i32 = 2;

/// Per-layer metrics of the training workloads (zero on the TCP workload).
pub const TRAIN_LAYERS: &[(&str, &str)] = &[
    ("engine.broadcast_ms", "ms"),
    ("ml.seq_op_ms", "ms"),
    ("ml.seq_op_calls", "count"),
    ("engine.agg_compute_ms", "ms"),
    ("ml.merge_op_ms", "ms"),
    ("ml.split_op_ms", "ms"),
    ("ml.reduce_op_ms", "ms"),
    ("ml.concat_op_ms", "ms"),
    ("engine.agg_reduce_ms", "ms"),
    ("engine.driver_merge_ms", "ms"),
    ("engine.aggregate_self_ms", "ms"),
    ("ml.update_ms", "ms"),
    ("engine.ser_bytes", "B"),
    ("engine.bytes_to_driver", "B"),
    ("engine.messages", "count"),
    ("net.sc_bytes", "B"),
    ("net.sc_messages", "count"),
    ("net.pool_hits", "count"),
    ("net.pool_misses", "count"),
    ("net.pool_hit_ratio", "ratio"),
    ("engine.imm_merges", "count"),
    ("engine.task_retries", "count"),
    ("engine.downgrades", "count"),
];

/// Per-layer metrics of the TCP workload (zero on the training workloads).
pub const TCP_LAYERS: &[(&str, &str)] = &[
    ("sched.queue_wait_ms", "ms"),
    ("multiproc.run_job_ms", "ms"),
    ("multiproc.result_bytes", "B"),
    ("multiproc.wire_segments", "count"),
    ("sparse.wire_bytes", "B"),
    ("sparse.dense_equiv_bytes", "B"),
    ("sparse.wire_ratio", "ratio"),
    ("net.exec_pool_hit_ratio", "ratio"),
    ("multiproc.retries", "count"),
    ("multiproc.fallbacks", "count"),
    ("sched.rejected", "count"),
    ("net.tcp_send_bytes", "B"),
    ("net.tcp_send_messages", "count"),
    ("net.heartbeat_rtt_us_p50", "us"),
];

/// Records the layers a workload does not use, as zero.
pub fn put_unused(m: &mut Metrics, layers: &[(&str, &'static str)]) {
    for &(name, unit) in layers {
        m.put(name, 0.0, unit);
    }
}

/// Prints ledger rows with their share of the op's wall time.
pub fn print_ledger(rows: &[(&str, f64)], wall_ms: f64) {
    for (name, v) in rows {
        println!("  {name:<28} {v:>10.3} ms {:>6.1}%", v / wall_ms * 100.0);
    }
    let sum: f64 = rows.iter().map(|(_, v)| v).sum();
    println!("  {:<28} {sum:>10.3} ms (op wall {wall_ms:.3} ms)", "sum");
}

/// SplitMix64 of `a` and `b`: per-job and per-set-up seeds from the run's.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Child processes of this run, reaped on every exit path.
pub fn children() -> &'static Mutex<Vec<Child>> {
    static CHILDREN: OnceLock<Mutex<Vec<Child>>> = OnceLock::new();
    CHILDREN.get_or_init(|| Mutex::new(Vec::new()))
}

fn kill_children() {
    let mut reg = children().lock().unwrap_or_else(|p| p.into_inner());
    for mut c in reg.drain(..) {
        let _ = c.kill();
        let _ = c.wait();
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    pub seed: u64,
    seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; one of {WORKLOADS:?} or all"
            ));
        }
        let seconds = seconds.unwrap_or(10);
        if !(1..=60).contains(&seconds) {
            return Err("--seconds must be 1 to 60".into());
        }
        Ok(Self {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "lr-wide-split" => train::run(&train::lr_wide_split(), args).map_err(|e| e.to_string()),
        "svm-tall-tree" => train::run(&train::svm_tall_tree(), args).map_err(|e| e.to_string()),
        "tcp-sparse-jobs" => tcp::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs every workload in a process of its own, so peak RSS, the global
/// frame pool and the metric registry start fresh for each. Passes each
/// workload's output through and ends with the combined verdict.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("current executable path");
    let mut combined = Outcome::default();
    for wl in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", wl])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .and_then(|mut child| {
                let mut last = String::new();
                if let Some(out) = child.stdout.take() {
                    for line in std::io::BufReader::new(out).lines().map_while(Result::ok) {
                        println!("{line}");
                        last = line;
                    }
                }
                child.wait().map(|status| (status, last))
            });
        match status {
            Ok((status, last)) => match parse_verdict(&last) {
                Some((attempted, failed)) => {
                    combined.attempted += attempted;
                    combined.failed += failed;
                    if !status.success() {
                        combined.errors.push(format!("{wl}: {status}"));
                    }
                }
                None => combined.errors.push(format!("{wl}: no result ({status})")),
            },
            Err(e) => combined.errors.push(format!("{wl}: {e}")),
        }
    }
    for e in &combined.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", combined.json_line());
    if combined.correct() {
        0
    } else {
        EXIT_FAILED
    }
}

/// `attempted` and `failed` of a result line this program printed.
fn parse_verdict(line: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        rest[..rest.find([',', '}'])?].trim().parse().ok()
    };
    Some((field("attempted")?, field("failed")?))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--executor") {
        let code = match argv.get(1..3) {
            Some([flag, addr]) if flag == "--driver" => tcp::executor_main(addr),
            _ => EXIT_USAGE,
        };
        std::process::exit(code);
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(EXIT_USAGE);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }

    let started = Instant::now();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "perfbench: run still going after {:?}; stopping it",
            started.elapsed()
        );
        kill_children();
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(EXIT_HUNG);
    });

    let result = std::panic::catch_unwind(|| run_workload(&args));
    kill_children();
    let out = match result {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => Outcome {
            attempted: 1,
            failed: 1,
            errors: vec![e],
            ..Default::default()
        },
        Err(_) => Outcome {
            attempted: 1,
            failed: 1,
            errors: vec!["panicked".into()],
            ..Default::default()
        },
    };
    for e in &out.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", out.json_line());
    std::process::exit(if out.correct() { 0 } else { EXIT_FAILED });
}
