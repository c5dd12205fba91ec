//! Stage profiling: a subscriber that aggregates per-span wall time and
//! allocation counts into a per-stage breakdown table.
//!
//! [`StageProfiler`] listens to span ends and accumulates, per span
//! *name*, the call count, total wall time and total allocation delta.
//! Attached around an [`Analysis::run`] or a `FleetMonitor::replay`, it
//! yields the per-stage breakdown that previously required ad-hoc
//! `Instant` plumbing in the benchmark binaries.
//!
//! [`Analysis::run`]: ../../dds_core/pipeline/struct.Analysis.html
//!
//! # Example
//!
//! ```
//! use dds_obs::profile::StageProfiler;
//! use dds_obs::trace::{self, Level};
//! use std::sync::Arc;
//!
//! let profiler = Arc::new(StageProfiler::new(Level::Trace));
//! trace::install(profiler.clone());
//! {
//!     let _stage = dds_obs::span!(Level::Info, "demo.compute");
//! }
//! trace::reset();
//! let stats = profiler.stats();
//! assert_eq!(stats["demo.compute"].calls, 1);
//! println!("{}", profiler.render_table());
//! ```

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::trace::{EventInfo, Level, SpanInfo, SpanTiming, Subscriber};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Accumulated cost of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// How many spans with this name closed.
    pub calls: u64,
    /// Total wall time across those spans.
    pub total: Duration,
    /// Total heap-allocation delta across those spans (`0` unless the
    /// binary installs [`CountingAllocator`](crate::CountingAllocator)).
    pub allocations: u64,
    /// Per-span durations in seconds, feeding the quantile columns.
    pub durations: HistogramSnapshot,
}

impl StageStats {
    /// Mean wall time per call, if any calls were recorded.
    pub fn mean(&self) -> Option<Duration> {
        (self.calls > 0).then(|| self.total / u32::try_from(self.calls).unwrap_or(u32::MAX))
    }

    /// Estimated `q`-quantile of the per-span duration, from the bucket
    /// distribution (so accurate to bucket resolution — a factor of two).
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.durations.quantile(q).map(Duration::from_secs_f64)
    }
}

/// What the profiler accumulates per span name; [`StageStats`] is its
/// point-in-time copy.
#[derive(Debug, Default)]
struct Stage {
    total: Duration,
    allocations: u64,
    durations: Histogram,
}

/// A subscriber that aggregates span timings by span name.
///
/// Stats are keyed by the spans' `&'static str` names and sorted
/// alphabetically in [`render_table`](StageProfiler::render_table);
/// dotted names (`pipeline.categorize`) therefore group naturally.
#[derive(Debug)]
pub struct StageProfiler {
    min_level: Level,
    stages: Mutex<BTreeMap<&'static str, Stage>>,
}

impl StageProfiler {
    /// Creates a profiler aggregating spans at `min_level` and above.
    pub fn new(min_level: Level) -> Self {
        StageProfiler { min_level, stages: Mutex::new(BTreeMap::new()) }
    }

    /// A copy of the per-stage stats accumulated so far.
    pub fn stats(&self) -> BTreeMap<&'static str, StageStats> {
        let Ok(stages) = self.stages.lock() else { return BTreeMap::new() };
        stages
            .iter()
            .map(|(&name, stage)| {
                let durations = stage.durations.snapshot();
                let stats = StageStats {
                    calls: durations.count,
                    total: stage.total,
                    allocations: stage.allocations,
                    durations,
                };
                (name, stats)
            })
            .collect()
    }

    /// Renders the stats as an aligned text table (stage, calls, total
    /// wall time, mean, bucket-estimated p50/p95/p99, allocations), one
    /// row per span name.
    pub fn render_table(&self) -> String {
        let stats = self.stats();
        let name_width =
            stats.keys().map(|name| name.len()).chain(std::iter::once("stage".len())).max();
        let name_width = name_width.unwrap_or(5);
        let mut out = format!(
            "{:<name_width$}  {:>7}  {:>12}  {:>12}  {:>10}  {:>10}  {:>10}  {:>12}\n",
            "stage", "calls", "total", "mean", "p50", "p95", "p99", "allocs"
        );
        let fmt_q = |stat: &StageStats, q: f64| {
            stat.quantile(q).map_or_else(|| "-".to_string(), |d| format!("{d:.1?}"))
        };
        for (name, stat) in &stats {
            let mean = stat.mean().map_or_else(|| "-".to_string(), |m| format!("{m:.1?}"));
            out.push_str(&format!(
                "{name:<name_width$}  {:>7}  {:>12}  {mean:>12}  {:>10}  {:>10}  {:>10}  {:>12}\n",
                stat.calls,
                format!("{:.1?}", stat.total),
                fmt_q(stat, 0.50),
                fmt_q(stat, 0.95),
                fmt_q(stat, 0.99),
                stat.allocations,
            ));
        }
        out
    }

    /// Serializes the stats as a JSON object keyed by stage name, each
    /// value carrying `calls`, `total_ms`, `mean_ms`, `p50_ms`, `p95_ms`,
    /// `p99_ms` and `allocations` — the `/profile` endpoint's payload.
    pub fn to_json(&self) -> String {
        let stats = self.stats();
        let mut out = String::from("{");
        for (i, (name, stat)) in stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let quantile_ms = |q: f64| {
                stat.quantile(q).map_or_else(
                    || "null".to_string(),
                    |d| crate::json::number(d.as_secs_f64() * 1e3),
                )
            };
            out.push_str(&format!(
                "\"{}\": {{\"calls\": {}, \"total_ms\": {}, \"mean_ms\": {}, \
                 \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \"allocations\": {}}}",
                crate::json::escape(name),
                stat.calls,
                crate::json::number(stat.total.as_secs_f64() * 1e3),
                stat.mean().map_or_else(
                    || "null".to_string(),
                    |m| crate::json::number(m.as_secs_f64() * 1e3)
                ),
                quantile_ms(0.50),
                quantile_ms(0.95),
                quantile_ms(0.99),
                stat.allocations,
            ));
        }
        out.push('}');
        out
    }
}

impl Subscriber for StageProfiler {
    fn min_level(&self) -> Level {
        self.min_level
    }

    fn on_span_start(&self, _span: &SpanInfo<'_>) {}

    fn on_span_end(&self, span: &SpanInfo<'_>, timing: &SpanTiming) {
        if let Ok(mut stages) = self.stages.lock() {
            let stage = stages.entry(span.name).or_default();
            stage.total += timing.elapsed;
            stage.allocations += timing.allocations;
            stage.durations.observe(timing.elapsed.as_secs_f64());
        }
    }

    fn on_event(&self, _event: &EventInfo<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::obs_lock;
    use crate::trace;
    use std::sync::Arc;

    #[test]
    fn aggregates_by_span_name() {
        let _guard = obs_lock();
        let profiler = Arc::new(StageProfiler::new(Level::Trace));
        trace::install(profiler.clone());
        for _ in 0..3 {
            let _span = crate::span!(Level::Info, "p.repeat");
        }
        {
            let _span = crate::span!(Level::Debug, "p.once");
        }
        trace::reset();

        let stats = profiler.stats();
        assert_eq!(stats["p.repeat"].calls, 3);
        assert_eq!(stats["p.once"].calls, 1);
        assert!(stats["p.once"].mean().is_some());

        let table = profiler.render_table();
        assert!(table.starts_with("stage"));
        assert!(table.contains("p.repeat"));
        assert!(table.contains("p.once"));
    }

    #[test]
    fn quantiles_and_json_come_from_duration_buckets() {
        let _guard = obs_lock();
        let profiler = Arc::new(StageProfiler::new(Level::Trace));
        trace::install(profiler.clone());
        for _ in 0..4 {
            let _span = crate::span!(Level::Info, "p.q");
        }
        trace::reset();

        let stats = profiler.stats();
        let stat = &stats["p.q"];
        assert_eq!(stat.durations.buckets.iter().sum::<u64>(), 4, "one bucket entry per span");
        let p50 = stat.quantile(0.50).expect("p50");
        let p99 = stat.quantile(0.99).expect("p99");
        assert!(p50 <= p99);

        let table = profiler.render_table();
        assert!(table.contains("p50") && table.contains("p95") && table.contains("p99"));

        let json = profiler.to_json();
        crate::json::validate(&json).expect("profile JSON is well-formed");
        assert!(json.contains("\"p.q\""));
        assert!(json.contains("\"p99_ms\""));
    }

    #[test]
    fn respects_min_level() {
        let _guard = obs_lock();
        let profiler = Arc::new(StageProfiler::new(Level::Info));
        trace::install(profiler.clone());
        {
            let _quiet = crate::span!(Level::Debug, "p.quiet");
            let _loud = crate::span!(Level::Info, "p.loud");
        }
        trace::reset();
        let stats = profiler.stats();
        assert!(!stats.contains_key("p.quiet"));
        assert_eq!(stats["p.loud"].calls, 1);
    }
}
