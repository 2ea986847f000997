//! Summary statistics, peak-RSS probes and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Percentiles the tail is picked from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be the tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, tail and sample count of a set of latencies.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// The highest ladder percentile with at least ten samples beyond it;
    /// with fewer than twenty samples, the maximum (`tail_pct` 100).
    pub tail: f64,
    pub tail_pct: f64,
    pub mean: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= TAIL_MIN_BEYOND
        })
        .unwrap_or(100.0);
    Summary {
        count: n,
        p50: percentile(&sorted, 50.0),
        tail: percentile(&sorted, tail_pct),
        tail_pct,
        mean: sorted.iter().sum::<f64>() / n as f64,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of a process in MiB, read from procfs.
/// `None` when the process is gone or procfs is unavailable.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Verdict of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failure.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.errors.is_empty()
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// The machine-readable last line of standard output.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.tail_pct, s.tail, s.p50), (90.0, 90.0, 50.0));
        let s = summarize(&xs[..40]);
        assert_eq!(s.tail_pct, 75.0);
        let s = summarize(&xs[..5]);
        assert_eq!((s.tail_pct, s.tail), (100.0, 5.0));
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metrics.put("setup_s", 0.25, "s");
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
