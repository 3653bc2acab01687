//! The result line and the small statistics it needs.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value, printed with every digit.
    pub value: f64,
}

/// The outcome of one run: what was tried, what failed, and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: set-up queries, timed queries, ingest batches
    /// and final-world checks.
    pub attempted: u64,
    /// Operations that failed: a transport or typed error (`busy`
    /// included), a `Degraded` route, or an answer unequal to its oracle.
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Count one operation; `Err` counts it as failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Add a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Whether every operation succeeded and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // A non-finite value is not JSON; it can only come from a
            // broken measurement, and `correct` is false for it.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The `p`-th percentile (0–100) by nearest rank on a sorted copy; 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Buckets of [`RttLog`]: 1% wide from 1 µs, up to about 20 minutes.
const RTT_BUCKETS: usize = 2100;

/// Round-trip times in a fixed amount of memory, so that recording a run's
/// queries, however many, does not grow the VmRSS that `rss_mb` reads: a
/// count, and buckets 1% wide on a log scale, each holding how many times
/// fell into it and their sum.
#[derive(Debug, Clone)]
pub struct RttLog {
    count: Vec<u64>,
    sum_ms: Vec<f64>,
    total: usize,
}

impl Default for RttLog {
    fn default() -> Self {
        RttLog {
            count: vec![0; RTT_BUCKETS],
            sum_ms: vec![0.0; RTT_BUCKETS],
            total: 0,
        }
    }
}

impl RttLog {
    /// Record one round trip of `ms` milliseconds.
    pub fn record(&mut self, ms: f64) {
        let us = (ms * 1e3).max(1.0);
        let bucket = ((us.ln() / 1.01_f64.ln()) as usize).min(RTT_BUCKETS - 1);
        self.count[bucket] += 1;
        self.sum_ms[bucket] += ms;
        self.total += 1;
    }

    /// Round trips recorded.
    pub fn len(&self) -> usize {
        self.total
    }

    /// The `p`-th percentile (0–100) by nearest rank, in ms, to within the
    /// 1% width of a bucket: the mean of the times in the bucket that holds
    /// that rank. 0 when nothing was recorded.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&n, &sum) in self.count.iter().zip(&self.sum_ms) {
            seen += n;
            if n > 0 && seen >= rank {
                return sum / n as f64;
            }
        }
        0.0
    }
}

/// Resident set size of this process in MB, from `/proc/self/status`.
pub fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rtt_log_percentiles_are_within_a_bucket() {
        let mut log = RttLog::default();
        assert_eq!(log.percentile(50.0), 0.0);
        for i in 1..=1000 {
            log.record(f64::from(i) / 100.0);
        }
        assert_eq!(log.len(), 1000);
        for (p, exact) in [(50.0, 5.0), (99.0, 9.9), (100.0, 10.0)] {
            let got = log.percentile(p);
            assert!(
                (got - exact).abs() <= 0.01 * exact,
                "p{p}: {got} vs {exact}"
            );
        }
        // A long tail lands in the last bucket and is still counted.
        log.record(1e9);
        assert_eq!(log.len(), 1001);
        assert_eq!(log.percentile(100.0), 1e9);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.record(Ok(()));
        o.push("qps", "1/s", 12.5);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        o.record(Err("x".into()));
        assert!(!o.correct());
    }
}
