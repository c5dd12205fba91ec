//! Measurement plumbing shared by the workloads: the layer ledger, the
//! correctness gates, exact order statistics, the alert fingerprint and
//! the process's peak resident set.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Milliseconds in a duration, with every digit the clock gives.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

/// Per-layer accumulator of the traced run. A ledger that is off runs
/// the closures untimed, so the untraced path reads no extra clocks.
#[derive(Debug, Default)]
pub struct Ledger {
    on: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn new(on: bool) -> Self {
        Ledger { on, values: BTreeMap::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Adds `value` to the layer metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.values.entry(name).or_insert(0.0) += value;
        }
    }

    /// Runs `f`, charging its wall time in milliseconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let result = f();
        self.add(name, ms(started.elapsed()));
        result
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the named layers.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }

    /// Divides every entry by `n` (per-operation means).
    pub fn scale(&mut self, n: f64) {
        for value in self.values.values_mut() {
            *value /= n;
        }
    }

    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// Correctness gates: every failed check is reported on stderr and turns
/// the run's `correct` flag false.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
    checked: usize,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            let message = what();
            eprintln!("[ddsbench] gate failed: {message}");
            self.failures.push(message);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn checked(&self) -> usize {
        self.checked
    }
}

/// The median of exact samples (mean of the two middle values for an
/// even count).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank quantile of exact samples: the smallest sample with
/// at least `q` of all samples at or below it.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99, p90 and p50 that leaves at least ten samples
/// above it (the median when even p50 does not), with the quantile used.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    for q in [0.99, 0.9, 0.5] {
        let rank = (q * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return (nearest_rank(samples, q), q);
        }
    }
    (median(samples), 0.5)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// FNV-1a over rendered alert lines: a compact byte-identity witness for
/// alert streams too large to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn line(&mut self, line: &str) {
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), read from the OS.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kib| kib.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit the checkout was made from, read from `.git` in the
/// working directory (no process is spawned, nothing outside the
/// checkout is read); `unknown` when there is none, as in an exported
/// tree.
pub fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_are_exact() {
        let samples: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(median(&samples), 50.5);
        assert_eq!(nearest_rank(&samples, 0.99), 99.0);
        assert_eq!(nearest_rank(&samples, 0.5), 50.0);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(tail(&samples), (90.0, 0.9));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 0.5));
        let many: Vec<f64> = (1..=1344).map(f64::from).collect();
        assert_eq!(tail(&many), (1331.0, 0.99));
    }

    #[test]
    fn ledger_off_records_nothing() {
        let mut off = Ledger::new(false);
        assert_eq!(off.time("x", || 7), 7);
        off.add("y", 1.0);
        assert_eq!(off.entries().count(), 0);
        let mut on = Ledger::new(true);
        on.add("y", 1.5);
        on.add("y", 1.0);
        assert_eq!(on.get("y"), 2.5);
    }
}
