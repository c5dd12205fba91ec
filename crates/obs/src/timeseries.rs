//! Sliding-window time series over the metrics registry: a ring buffer of
//! periodic [`MetricsSnapshot`]s exposing window rates (alerts/min,
//! ingests/sec) and windowed latency quantiles.
//!
//! The raw registry only ever accumulates: counters and histogram buckets
//! are lifetime totals, which is the right exchange format for Prometheus
//! (it differentiates server-side) but useless for a watchdog that must
//! ask "what happened in the last minute?". [`TimeSeriesStore`] fills that
//! gap: a sampler [`push`](TimeSeriesStore::push)es a timestamped snapshot
//! on a fixed tick, the store keeps the last `capacity` snapshots, and window
//! queries subtract the snapshot at the window's left edge from the
//! newest one — counters become rates, cumulative histogram buckets
//! become a windowed histogram whose quantiles describe only recent
//! observations.
//!
//! A store need not mirror the global registry. `dds serve` also keeps
//! one store per shard and pushes a snapshot built from each shard's
//! status at the same instants, so per-shard windows answer through the
//! same queries (and the same watchdog rules) as the fleet's.
//!
//! # Example
//!
//! ```
//! use dds_obs::metrics::Registry;
//! use dds_obs::timeseries::TimeSeriesStore;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let store = TimeSeriesStore::new(8);
//! registry.counter("dds_demo_events_total").add(10);
//! store.push(Duration::from_secs(0), registry.snapshot());
//! registry.counter("dds_demo_events_total").add(30);
//! store.push(Duration::from_secs(10), registry.snapshot());
//!
//! let rate = store.rate_per_sec("dds_demo_events_total", Duration::from_secs(60)).unwrap();
//! assert!((rate - 3.0).abs() < 1e-9); // 30 events over 10 s
//! ```

use crate::metrics::MetricsSnapshot;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// One retained sample: the metrics state at `elapsed` on the sampler's
/// clock.
#[derive(Debug, Clone)]
pub struct TimePoint {
    /// The sampler's clock reading when the sample was taken.
    pub elapsed: Duration,
    /// The metrics state at that instant.
    pub snapshot: MetricsSnapshot,
}

/// A bounded ring buffer of registry snapshots with window queries.
///
/// All methods take `&self`; the store is safe to share between a sampler
/// thread, the watchdog and HTTP scrape handlers.
#[derive(Debug)]
pub struct TimeSeriesStore {
    capacity: usize,
    points: Mutex<VecDeque<TimePoint>>,
}

impl TimeSeriesStore {
    /// Creates a store retaining the most recent `capacity` samples
    /// (minimum 2 — a window needs two edges).
    pub fn new(capacity: usize) -> Self {
        TimeSeriesStore { capacity: capacity.max(2), points: Mutex::new(VecDeque::new()) }
    }

    /// Appends a snapshot taken at `elapsed` on the sampler's clock.
    /// Samples must be pushed in non-decreasing `elapsed` order.
    pub fn push(&self, elapsed: Duration, snapshot: MetricsSnapshot) {
        let mut points = self.points.lock().expect("timeseries poisoned");
        if points.len() == self.capacity {
            points.pop_front();
        }
        points.push_back(TimePoint { elapsed, snapshot });
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.points.lock().map(|p| p.len()).unwrap_or(0)
    }

    /// Whether no samples have been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<TimePoint> {
        self.points.lock().ok()?.back().cloned()
    }

    /// The newest sample and the oldest retained sample no older than
    /// `window` before it. `None` until two samples span a nonzero
    /// interval.
    fn window_edges(&self, window: Duration) -> Option<(TimePoint, TimePoint)> {
        let points = self.points.lock().ok()?;
        let newest = points.back()?.clone();
        let left_edge = newest.elapsed.saturating_sub(window);
        let oldest = points.iter().find(|p| p.elapsed >= left_edge)?.clone();
        (newest.elapsed > oldest.elapsed).then_some((oldest, newest))
    }

    /// The increase of counter `name` over the trailing `window`, divided
    /// by the actually-covered interval, in events per second. A counter
    /// absent from the window's left edge was zero then (counters are
    /// born at zero); `None` until the newest sample covers the counter.
    pub fn rate_per_sec(&self, name: &str, window: Duration) -> Option<f64> {
        let (oldest, newest) = self.window_edges(window)?;
        let new = newest.snapshot.counter_value(name)?;
        let old = oldest.snapshot.counter_value(name).unwrap_or(0);
        let dt = (newest.elapsed - oldest.elapsed).as_secs_f64();
        (dt > 0.0).then(|| new.saturating_sub(old) as f64 / dt)
    }

    /// [`rate_per_sec`](TimeSeriesStore::rate_per_sec) scaled to events
    /// per minute — the natural unit for alert rates.
    pub fn rate_per_min(&self, name: &str, window: Duration) -> Option<f64> {
        self.rate_per_sec(name, window).map(|r| r * 60.0)
    }

    /// The number of observations histogram `name` received over the
    /// trailing `window`. A histogram absent from the window's left edge
    /// had zero observations then.
    pub fn window_count(&self, name: &str, window: Duration) -> Option<u64> {
        let (oldest, newest) = self.window_edges(window)?;
        let new = newest.snapshot.histogram(name)?;
        Some(new.since(oldest.snapshot.histogram(name)).count)
    }

    /// The estimated `q`-quantile of histogram `name` over the trailing
    /// `window`: bucket counts at the window's left edge are subtracted
    /// from the newest ones, so old observations stop dragging the
    /// estimate. A histogram absent from the left edge had empty buckets
    /// then. `None` when the window saw no observations.
    pub fn window_quantile(&self, name: &str, window: Duration, q: f64) -> Option<f64> {
        let (oldest, newest) = self.window_edges(window)?;
        let new = newest.snapshot.histogram(name)?;
        new.since(oldest.snapshot.histogram(name)).quantile(q)
    }

    /// Per-interval rates of counter `name` over the most recent `n`
    /// consecutive sample pairs, oldest first — the fleet sparkline feed.
    /// Intervals where the counter is absent (or time stands still)
    /// contribute `0.0`; a store with fewer than two samples yields an
    /// empty series.
    pub fn rate_series(&self, name: &str, n: usize) -> Vec<f64> {
        let Ok(points) = self.points.lock() else { return Vec::new() };
        let points: Vec<&TimePoint> = points.iter().collect();
        let skip = points.len().saturating_sub(n + 1);
        points[skip..]
            .windows(2)
            .map(|pair| {
                let dt = (pair[1].elapsed.saturating_sub(pair[0].elapsed)).as_secs_f64();
                if dt <= 0.0 {
                    return 0.0;
                }
                let new = pair[1].snapshot.counter_value(name).unwrap_or(0);
                let old = pair[0].snapshot.counter_value(name).unwrap_or(0);
                new.saturating_sub(old) as f64 / dt
            })
            .collect()
    }

    /// Per-interval `q`-quantiles of histogram `name` over the most
    /// recent `n` consecutive sample pairs, oldest first. Intervals with
    /// no observations contribute `0.0` (a flat-zero sparkline segment,
    /// not a hole).
    pub fn quantile_series(&self, name: &str, n: usize, q: f64) -> Vec<f64> {
        let Ok(points) = self.points.lock() else { return Vec::new() };
        let points: Vec<&TimePoint> = points.iter().collect();
        let skip = points.len().saturating_sub(n + 1);
        points[skip..]
            .windows(2)
            .map(|pair| {
                let Some(new) = pair[1].snapshot.histogram(name) else { return 0.0 };
                new.since(pair[0].snapshot.histogram(name)).quantile(q).unwrap_or(0.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn snapshot_with_counter(name: &str, value: u64) -> MetricsSnapshot {
        let registry = Registry::new();
        registry.counter(name).add(value);
        registry.snapshot()
    }

    #[test]
    fn rates_use_the_covered_interval() {
        let store = TimeSeriesStore::new(16);
        for (t, v) in [(0u64, 0u64), (5, 10), (10, 40)] {
            store.push(Duration::from_secs(t), snapshot_with_counter("c_total", v));
        }
        // Full window: 40 events over 10 s.
        let r = store.rate_per_sec("c_total", Duration::from_secs(60)).unwrap();
        assert!((r - 4.0).abs() < 1e-12);
        // 5 s window: 30 events over the last 5 s.
        let r = store.rate_per_sec("c_total", Duration::from_secs(5)).unwrap();
        assert!((r - 6.0).abs() < 1e-12);
        assert!(
            (store.rate_per_min("c_total", Duration::from_secs(5)).unwrap() - 360.0).abs() < 1e-9
        );
        // Unknown counters and single-sample stores yield None.
        assert_eq!(store.rate_per_sec("missing_total", Duration::from_secs(5)), None);
        let single = TimeSeriesStore::new(4);
        single.push(Duration::ZERO, snapshot_with_counter("c_total", 1));
        assert_eq!(single.rate_per_sec("c_total", Duration::from_secs(5)), None);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let store = TimeSeriesStore::new(3);
        for t in 0..10u64 {
            store.push(Duration::from_secs(t), snapshot_with_counter("c_total", t * 10));
        }
        assert_eq!(store.len(), 3);
        // Only samples at t = 7, 8, 9 remain; a huge window clamps to them.
        let r = store.rate_per_sec("c_total", Duration::from_secs(3600)).unwrap();
        assert!((r - 10.0).abs() < 1e-12);
        assert_eq!(store.latest().unwrap().elapsed, Duration::from_secs(9));
    }

    #[test]
    fn window_quantiles_ignore_old_observations() {
        let registry = Registry::new();
        let h = registry.histogram("h_seconds");
        // Epoch 1: slow observations.
        for _ in 0..100 {
            h.observe(1.5e-3);
        }
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(0), registry.snapshot());
        // Epoch 2: fast observations only.
        for _ in 0..100 {
            h.observe(3e-6);
        }
        store.push(Duration::from_secs(10), registry.snapshot());

        // Lifetime p99 is slow; the 10 s window's p99 is fast.
        let lifetime = registry.snapshot().histogram("h_seconds").unwrap().quantile(0.99).unwrap();
        assert!(lifetime > 1e-3);
        let windowed = store.window_quantile("h_seconds", Duration::from_secs(10), 0.99).unwrap();
        assert!(windowed <= 4e-6, "windowed p99 {windowed}");
        assert_eq!(store.window_count("h_seconds", Duration::from_secs(10)), Some(100));
    }

    // --- edge cases: empty windows, single samples, saturation, time ---

    #[test]
    fn empty_store_answers_none_everywhere() {
        let store = TimeSeriesStore::new(8);
        let w = Duration::from_secs(60);
        assert!(store.is_empty());
        assert_eq!(store.rate_per_sec("c_total", w), None);
        assert_eq!(store.rate_per_min("c_total", w), None);
        assert_eq!(store.window_count("h_seconds", w), None);
        assert_eq!(store.window_quantile("h_seconds", w, 0.99), None);
        assert!(store.latest().is_none());
        assert!(store.rate_series("c_total", 8).is_empty());
        assert!(store.quantile_series("h_seconds", 8, 0.5).is_empty());
    }

    #[test]
    fn single_sample_yields_no_window_but_quantiles_need_only_one_observation() {
        // A single snapshot cannot span a window: every windowed query is
        // None, even though the snapshot itself holds data.
        let registry = Registry::new();
        registry.counter("c_total").add(10);
        registry.histogram("h_seconds").observe(1e-4);
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(5), registry.snapshot());
        let w = Duration::from_secs(60);
        assert_eq!(store.rate_per_sec("c_total", w), None);
        assert_eq!(store.window_quantile("h_seconds", w, 0.5), None);
        // With a second (empty-at-birth) edge, one observation is enough
        // for every quantile: p0 through p100 all land in its bucket.
        let fresh = TimeSeriesStore::new(8);
        fresh.push(Duration::from_secs(0), Registry::new().snapshot());
        fresh.push(Duration::from_secs(5), registry.snapshot());
        let p50 = fresh.window_quantile("h_seconds", w, 0.5).unwrap();
        let p99 = fresh.window_quantile("h_seconds", w, 0.99).unwrap();
        assert_eq!(p50, p99, "a single observation pins every quantile to its bucket");
        assert_eq!(fresh.window_count("h_seconds", w), Some(1));
    }

    #[test]
    fn window_clamps_to_retained_samples_after_ring_saturation() {
        // 100 samples through a 4-slot ring: only t = 96..=99 survive.
        let store = TimeSeriesStore::new(4);
        for t in 0..100u64 {
            store.push(Duration::from_secs(t), snapshot_with_counter("c_total", t * 7));
        }
        assert_eq!(store.len(), 4);
        // A window wider than the retained span clamps to what is left —
        // the rate reflects the survivors, not the evicted history.
        let r = store.rate_per_sec("c_total", Duration::from_secs(1_000_000)).unwrap();
        assert!((r - 7.0).abs() < 1e-12);
        // A narrow window still selects inside the retained tail.
        let r = store.rate_per_sec("c_total", Duration::from_secs(1)).unwrap();
        assert!((r - 7.0).abs() < 1e-12);
        // Series requests clamp the same way: at most len-1 intervals.
        assert_eq!(store.rate_series("c_total", 50).len(), 3);
    }

    #[test]
    fn stalled_clocks_and_counter_regressions_never_panic_or_go_negative() {
        // Two samples at the same instant: no interval, no rate.
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(3), snapshot_with_counter("c_total", 10));
        store.push(Duration::from_secs(3), snapshot_with_counter("c_total", 20));
        assert_eq!(store.rate_per_sec("c_total", Duration::from_secs(60)), None);
        assert_eq!(store.rate_series("c_total", 8), vec![0.0]);

        // A counter that goes backwards (process restart behind the same
        // store) clamps to zero instead of reporting a negative rate.
        let store = TimeSeriesStore::new(8);
        store.push(Duration::from_secs(0), snapshot_with_counter("c_total", 1_000));
        store.push(Duration::from_secs(10), snapshot_with_counter("c_total", 50));
        let r = store.rate_per_sec("c_total", Duration::from_secs(60)).unwrap();
        assert_eq!(r, 0.0);
        assert!(store.rate_series("c_total", 8).iter().all(|&v| v >= 0.0));
    }
}
