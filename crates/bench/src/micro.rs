//! Std-only micro-benchmark harness: the workspace's in-repo replacement
//! for Criterion, so `cargo bench` needs no external dependencies.
//!
//! Scope is deliberately small — the benches under `benches/` measure
//! operations in the microseconds-and-up range, where a plain
//! [`std::time::Instant`] sample per iteration is accurate. Each benchmark
//! runs a fixed warmup, then N timed iterations, and reports min / mean /
//! median / p95 plus derived throughput when a byte count is given. Results
//! print as an aligned table and land as JSON under `results/micro/` for
//! diffing across commits.
//!
//! ```no_run
//! let mut b = sparker_bench::micro::Bench::new("codec");
//! b.run("encode/1024", Some(8 * 1024), || {
//!     // ... the operation under test ...
//! });
//! b.finish().unwrap();
//! ```

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use crate::{fmt_secs, Table};

/// Per-benchmark summary statistics, in seconds.
#[derive(Debug, Clone)]
pub struct Stats {
    pub name: String,
    pub samples: usize,
    pub min: f64,
    pub mean: f64,
    pub median: f64,
    pub p95: f64,
    /// Bytes processed per iteration, if the caller declared them.
    pub bytes: Option<u64>,
}

impl Stats {
    /// MB/s at the median, when a byte count was declared.
    pub fn throughput_mbps(&self) -> Option<f64> {
        self.bytes.map(|b| b as f64 / self.median / 1e6)
    }

    fn from_samples(name: &str, mut secs: Vec<f64>, bytes: Option<u64>) -> Self {
        assert!(!secs.is_empty());
        secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = secs.len();
        let median = if n % 2 == 1 {
            secs[n / 2]
        } else {
            (secs[n / 2 - 1] + secs[n / 2]) / 2.0
        };
        // Nearest-rank percentile: smallest sample >= 95% of the mass.
        let p95 = secs[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
        Self {
            name: name.to_string(),
            samples: n,
            min: secs[0],
            mean: secs.iter().sum::<f64>() / n as f64,
            median,
            p95,
            bytes,
        }
    }
}

/// A named group of micro-benchmarks; mirrors a Criterion benchmark group.
pub struct Bench {
    group: String,
    warmup: u32,
    samples: u32,
    /// Sample count from `SPARKER_BENCH_SAMPLES`; beats [`Bench::samples`].
    forced_samples: Option<u32>,
    results: Vec<Stats>,
}

/// Parses a `SPARKER_BENCH_SAMPLES` value: a positive count, else `None`.
fn parse_samples(value: Option<&str>) -> Option<u32> {
    value.and_then(|s| s.trim().parse().ok()).filter(|&n| n > 0)
}

impl Bench {
    /// Defaults: 5 warmup iterations, 30 timed samples. A positive
    /// `SPARKER_BENCH_SAMPLES` overrides the sample count, including one a
    /// bench sets with [`Bench::samples`], for quicker smoke runs.
    pub fn new(group: &str) -> Self {
        let env = std::env::var("SPARKER_BENCH_SAMPLES").ok();
        Self::with_forced_samples(group, parse_samples(env.as_deref()))
    }

    fn with_forced_samples(group: &str, forced_samples: Option<u32>) -> Self {
        Self {
            group: group.to_string(),
            warmup: 5,
            samples: 30,
            forced_samples,
            results: Vec::new(),
        }
    }

    pub fn warmup(mut self, iters: u32) -> Self {
        self.warmup = iters;
        self
    }

    /// The bench's own sample count; `SPARKER_BENCH_SAMPLES` still wins.
    pub fn samples(mut self, n: u32) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Runs one benchmark: warmup, then one timed sample per iteration.
    /// `bytes` is the payload size an iteration processes (for throughput).
    pub fn run<T>(&mut self, name: &str, bytes: Option<u64>, mut f: impl FnMut() -> T) {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let secs: Vec<f64> = (0..self.forced_samples.unwrap_or(self.samples))
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        self.results.push(Stats::from_samples(name, secs, bytes));
    }

    /// Prints the group table and writes `results/micro/<group>.json`.
    pub fn finish(self) -> std::io::Result<()> {
        let mut t = Table::new(vec!["benchmark", "min", "median", "p95", "throughput"]);
        for s in &self.results {
            t.row(vec![
                s.name.clone(),
                fmt_secs(s.min),
                fmt_secs(s.median),
                fmt_secs(s.p95),
                s.throughput_mbps().map(|m| format!("{m:.0} MB/s")).unwrap_or_else(|| "-".into()),
            ]);
        }
        println!("group: {}", self.group);
        t.print();

        let dir = std::path::Path::new("results").join("micro");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.group));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.to_json())?;
        println!("wrote {}", path.display());
        Ok(())
    }

    /// Hand-rolled JSON: flat enough that pulling in a serializer would be
    /// all cost and no benefit (names are straight from the source, no
    /// escaping needed beyond quotes).
    fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"group\":\"{}\",\"results\":[", self.group.replace('"', "\\\"")));
        for (i, s) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"samples\":{},\"min_s\":{:e},\"mean_s\":{:e},\"median_s\":{:e},\"p95_s\":{:e}",
                s.name.replace('"', "\\\""),
                s.samples,
                s.min,
                s.mean,
                s.median,
                s.p95,
            ));
            if let Some(b) = s.bytes {
                out.push_str(&format!(",\"bytes\":{b}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        let s = Stats::from_samples("t", vec![5.0, 1.0, 3.0, 2.0, 4.0], Some(1_000_000));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p95, 5.0);
        // 1 MB at 3 s median = 1/3 MB/s.
        assert!((s.throughput_mbps().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn even_sample_count_interpolates_median() {
        let s = Stats::from_samples("t", vec![1.0, 2.0, 3.0, 4.0], None);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.p95, 4.0);
        assert!(s.throughput_mbps().is_none());
    }

    #[test]
    fn bench_runs_and_records() {
        let mut b = Bench::with_forced_samples("test_group", None).warmup(1).samples(3);
        let mut calls = 0u32;
        b.run("noop", None, || calls += 1);
        assert_eq!(calls, 4); // 1 warmup + 3 samples
        assert_eq!(b.results.len(), 1);
        assert_eq!(b.results[0].samples, 3);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut b = Bench::with_forced_samples("g", None).warmup(0).samples(2);
        b.run("op", Some(64), || ());
        let j = b.to_json();
        assert!(j.starts_with("{\"group\":\"g\",\"results\":[{\"name\":\"op\""));
        assert!(j.contains("\"bytes\":64"));
        assert!(j.ends_with("}]}"));
    }

    #[test]
    fn env_sample_count_beats_the_bench_default() {
        let mut b = Bench::with_forced_samples("g", Some(2)).warmup(0).samples(50);
        let mut calls = 0u32;
        b.run("op", None, || calls += 1);
        assert_eq!(calls, 2);
        assert_eq!(b.results[0].samples, 2);
    }

    #[test]
    fn sample_env_value_parses_positive_counts_only() {
        assert_eq!(parse_samples(Some("1")), Some(1));
        assert_eq!(parse_samples(Some(" 12 ")), Some(12));
        assert_eq!(parse_samples(Some("0")), None);
        assert_eq!(parse_samples(Some("many")), None);
        assert_eq!(parse_samples(None), None);
    }
}
