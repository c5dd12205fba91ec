//! The SLO watchdog: window predicates over the metrics time series that
//! degrade the service's health state and emit self-alerts.
//!
//! The monitor watches disks; the watchdog watches the monitor. Each
//! [`SloRule`] is a predicate over a [`TimeSeriesStore`] window — an
//! ingest-latency p99 ceiling, an alert-rate spike against a trailing
//! baseline, an error budget. [`Watchdog::evaluate`] runs every rule,
//! fires a `Warn`-level [`event!`](crate::event!) per violation (so
//! `--trace-level warn` surfaces them like any other event), counts them
//! in `dds_watchdog_violations_total`, and flips the shared
//! [`HealthState`] to degraded; a clean evaluation clears the degradation
//! again. `/healthz` reads the same [`HealthState`].
//! [`Watchdog::evaluate_shards`] runs the same rules on one store per
//! shard ([`Watchdog::shard_rules`] in `dds serve`) and reports through
//! the same path, prefixing each message with the shard it names; that
//! pass only ever degrades.
//!
//! # Example
//!
//! ```
//! use dds_obs::metrics::Registry;
//! use dds_obs::timeseries::TimeSeriesStore;
//! use dds_obs::watchdog::{SloRule, Watchdog};
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let store = TimeSeriesStore::new(16);
//! let watchdog = Watchdog::new(vec![SloRule::LatencyCeiling {
//!     histogram: "svc_seconds".into(),
//!     quantile: 0.99,
//!     ceiling_seconds: 1e-3,
//!     window: Duration::from_secs(60),
//! }]);
//!
//! registry.histogram("svc_seconds").observe(5e-3); // over the ceiling
//! store.push(Duration::from_secs(0), Registry::new().snapshot());
//! store.push(Duration::from_secs(1), registry.snapshot());
//! let violations = watchdog.evaluate(&store);
//! assert_eq!(violations.len(), 1);
//! assert!(watchdog.health().is_degraded());
//! ```

use crate::timeseries::TimeSeriesStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Shared liveness/readiness/degradation state, written by the serving
/// loop and the watchdog, read by the `/healthz` and `/readyz` endpoints.
///
/// *Ready* means the model bundle is loaded and the service can ingest;
/// *degraded* means an SLO rule is currently violated. The two are
/// independent: a service is typically ready long before it has enough
/// samples to be judged degraded.
#[derive(Debug, Default)]
pub struct HealthState {
    ready: AtomicBool,
    degraded: AtomicBool,
    reason: Mutex<String>,
}

impl HealthState {
    /// A fresh state: not ready, not degraded.
    pub fn new() -> Arc<Self> {
        Arc::new(HealthState::default())
    }

    /// Marks the model bundle as loaded (or unloaded).
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::SeqCst);
    }

    /// Whether the service can ingest records.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Whether an SLO rule is currently violated.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// The message of the most recent degradation, if degraded.
    pub fn degraded_reason(&self) -> Option<String> {
        if !self.is_degraded() {
            return None;
        }
        self.reason.lock().ok().map(|r| r.clone())
    }

    /// Degrades the state with a reason.
    pub fn degrade(&self, reason: &str) {
        if let Ok(mut slot) = self.reason.lock() {
            *slot = reason.to_string();
        }
        self.degraded.store(true, Ordering::SeqCst);
    }

    /// Clears a degradation.
    pub fn clear_degraded(&self) {
        self.degraded.store(false, Ordering::SeqCst);
    }
}

/// One SLO predicate evaluated per watchdog tick.
#[derive(Debug, Clone, PartialEq)]
pub enum SloRule {
    /// The `quantile` of `histogram` over the trailing `window` must stay
    /// below `ceiling_seconds`.
    LatencyCeiling {
        /// Histogram metric name (e.g. `dds_monitor_ingest_seconds`).
        histogram: String,
        /// Quantile to bound, e.g. `0.99`.
        quantile: f64,
        /// Ceiling in the histogram's unit (seconds by convention).
        ceiling_seconds: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
    /// The rate of `counter` over the trailing `window` must not exceed
    /// `factor` × its rate over the longer `baseline_window` (and
    /// `min_per_sec`, which suppresses spikes off a near-zero baseline).
    RateSpike {
        /// Counter metric name (e.g. `dds_monitor_alerts_total`).
        counter: String,
        /// Short window whose rate is under suspicion.
        window: Duration,
        /// Longer trailing window supplying the baseline rate.
        baseline_window: Duration,
        /// Spike factor over baseline that trips the rule.
        factor: f64,
        /// Rates below this (events/sec) never trip, whatever the factor.
        min_per_sec: f64,
    },
    /// Over the trailing `window`, `errors` must stay below `max_ratio`
    /// of `total` (both counters). Windows with no `total` growth pass.
    ErrorBudget {
        /// Error counter name.
        errors: String,
        /// Total-attempts counter name.
        total: String,
        /// Maximum tolerated error fraction in `0..=1`.
        max_ratio: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
    /// Over the trailing `window`, quarantined records must stay below
    /// `max_ratio` of everything offered (`quarantined + accepted` —
    /// the two counters partition the ingest stream, so their sum is the
    /// offered-record denominator). Windows where neither counter grows
    /// pass vacuously.
    QuarantineBudget {
        /// Quarantined-records counter name.
        quarantined: String,
        /// Accepted-records counter name.
        accepted: String,
        /// Maximum tolerated quarantine fraction in `0..=1`.
        max_ratio: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
    /// Over the trailing `window`, records shed at the ingest gateway
    /// (bounded-queue overflow under backpressure) must stay below
    /// `max_ratio` of everything offered (`shed + accepted` partition the
    /// offered stream). Windows where neither counter grows pass
    /// vacuously: an idle gateway is not a degraded one.
    ShedBudget {
        /// Shed-records counter name.
        shed: String,
        /// Accepted-records counter name.
        accepted: String,
        /// Maximum tolerated shed fraction in `0..=1`.
        max_ratio: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
    /// Over the trailing `window`, records the drift detector flags
    /// beyond the serving model's training baseline must stay below
    /// `max_ratio` of everything examined (`drifted + clean` partition
    /// the examined stream — both counters come from the same detector).
    /// Windows where neither counter grows pass vacuously: no traffic is
    /// no evidence of drift.
    DriftBudget {
        /// Drifted-records counter name.
        drifted: String,
        /// Clean-records counter name.
        clean: String,
        /// Maximum tolerated drift fraction in `0..=1`.
        max_ratio: f64,
        /// Trailing window to evaluate over.
        window: Duration,
    },
}

impl SloRule {
    /// A short stable name for events and violation reports.
    pub fn name(&self) -> &'static str {
        match self {
            SloRule::LatencyCeiling { .. } => "latency_ceiling",
            SloRule::RateSpike { .. } => "rate_spike",
            SloRule::ErrorBudget { .. } => "error_budget",
            SloRule::QuarantineBudget { .. } => "quarantine_budget",
            SloRule::ShedBudget { .. } => "shed_budget",
            SloRule::DriftBudget { .. } => "drift_budget",
        }
    }

    /// Evaluates the rule, returning a violation message if it trips.
    /// Rules whose metrics have no samples yet pass vacuously.
    fn check(&self, store: &TimeSeriesStore) -> Option<String> {
        match self {
            SloRule::LatencyCeiling { histogram, quantile, ceiling_seconds, window } => {
                let observed = store.window_quantile(histogram, *window, *quantile)?;
                (observed > *ceiling_seconds).then(|| {
                    format!(
                        "{histogram} p{:.0} = {observed:.6}s over {:.0}s window exceeds \
                         ceiling {ceiling_seconds:.6}s",
                        quantile * 100.0,
                        window.as_secs_f64(),
                    )
                })
            }
            SloRule::RateSpike { counter, window, baseline_window, factor, min_per_sec } => {
                let current = store.rate_per_sec(counter, *window)?;
                let baseline = store.rate_per_sec(counter, *baseline_window)?;
                (current > *min_per_sec && current > factor * baseline.max(f64::MIN_POSITIVE)).then(
                    || {
                        format!(
                            "{counter} rate {current:.2}/s spikes {:.1}x over trailing \
                             baseline {baseline:.2}/s (limit {factor:.1}x)",
                            current / baseline.max(f64::MIN_POSITIVE),
                        )
                    },
                )
            }
            SloRule::ErrorBudget { errors, total, max_ratio, window } => {
                let error_rate = store.rate_per_sec(errors, *window)?;
                let total_rate = store.rate_per_sec(total, *window)?;
                if total_rate <= 0.0 {
                    return None;
                }
                let ratio = error_rate / total_rate;
                (ratio > *max_ratio).then(|| {
                    format!("{errors}/{total} error ratio {ratio:.4} exceeds budget {max_ratio:.4}")
                })
            }
            SloRule::QuarantineBudget { quarantined, accepted, max_ratio, window } => {
                ratio_over_budget(store, quarantined, accepted, *max_ratio, *window).map(|ratio| {
                    format!(
                        "{quarantined} ratio {ratio:.4} of offered records exceeds \
                         quarantine budget {max_ratio:.4}"
                    )
                })
            }
            SloRule::ShedBudget { shed, accepted, max_ratio, window } => {
                ratio_over_budget(store, shed, accepted, *max_ratio, *window).map(|ratio| {
                    format!(
                        "{shed} ratio {ratio:.4} of offered records exceeds \
                         shed budget {max_ratio:.4}"
                    )
                })
            }
            SloRule::DriftBudget { drifted, clean, max_ratio, window } => {
                ratio_over_budget(store, drifted, clean, *max_ratio, *window).map(|ratio| {
                    format!(
                        "{drifted} ratio {ratio:.4} of examined records exceeds \
                         drift budget {max_ratio:.4}"
                    )
                })
            }
        }
    }
}

/// The ratio test shared by the quarantine, shed and drift budgets: the
/// windowed rate of `part` as a share of `part + rest` (the two counters
/// partition one stream), returned when it exceeds `max_ratio`.
///
/// A missing series counts as a zero rate rather than a vacuous pass: a
/// stream where every record lands in `part` may never register `rest`,
/// and must still trip. A window where neither counter grows passes.
fn ratio_over_budget(
    store: &TimeSeriesStore,
    part: &str,
    rest: &str,
    max_ratio: f64,
    window: Duration,
) -> Option<f64> {
    let part_rate = store.rate_per_sec(part, window).unwrap_or(0.0);
    let total = part_rate + store.rate_per_sec(rest, window).unwrap_or(0.0);
    if total <= 0.0 {
        return None;
    }
    let ratio = part_rate / total;
    (ratio > max_ratio).then_some(ratio)
}

/// One tripped rule from an evaluation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// [`SloRule::name`] of the tripped rule.
    pub rule: &'static str,
    /// Human-readable description with the observed and limit values.
    pub message: String,
}

/// Evaluates a fixed rule set against the time series and maintains the
/// shared [`HealthState`].
#[derive(Debug)]
pub struct Watchdog {
    rules: Vec<SloRule>,
    health: Arc<HealthState>,
}

impl Watchdog {
    /// Creates a watchdog with its own (not-ready) [`HealthState`].
    pub fn new(rules: Vec<SloRule>) -> Self {
        Watchdog { rules, health: HealthState::new() }
    }

    /// The shared health state `/healthz` and `/readyz` should read.
    pub fn health(&self) -> Arc<HealthState> {
        Arc::clone(&self.health)
    }

    /// The configured rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// The standard `dds serve` rule set: a 50 ms per-record ingest-latency
    /// p99 ceiling, an 8× alert-rate spike over the trailing minute, a
    /// 1% ingest-error budget, a 10% data-quality quarantine budget over
    /// the trailing 30 seconds, a 10% ingest-gateway shed budget over the
    /// same window (overload that sheds more than a tenth of offered
    /// records flips `/healthz`), and a 5% model-drift budget over the
    /// same window (a live stream drifting past the serving model's
    /// training baseline flips `/healthz` until a refit candidate is
    /// promoted).
    pub fn standard_rules() -> Vec<SloRule> {
        vec![
            SloRule::LatencyCeiling {
                histogram: "dds_monitor_ingest_seconds".into(),
                quantile: 0.99,
                ceiling_seconds: 0.05,
                window: Duration::from_secs(60),
            },
            SloRule::RateSpike {
                counter: "dds_monitor_alerts_total".into(),
                window: Duration::from_secs(10),
                baseline_window: Duration::from_secs(60),
                factor: 8.0,
                min_per_sec: 5.0,
            },
            SloRule::ErrorBudget {
                errors: "dds_serve_ingest_errors_total".into(),
                total: "dds_monitor_records_ingested_total".into(),
                max_ratio: 0.01,
                window: Duration::from_secs(60),
            },
            SloRule::QuarantineBudget {
                quarantined: "dds_records_quarantined_total".into(),
                accepted: "dds_monitor_records_ingested_total".into(),
                max_ratio: 0.10,
                window: Duration::from_secs(30),
            },
            SloRule::ShedBudget {
                shed: "dds_shed_records_total".into(),
                accepted: "dds_ingest_records_total".into(),
                max_ratio: 0.10,
                window: Duration::from_secs(30),
            },
            SloRule::DriftBudget {
                drifted: "dds_drift_drifted_total".into(),
                clean: "dds_drift_clean_total".into(),
                max_ratio: 0.05,
                window: Duration::from_secs(30),
            },
        ]
    }

    /// The per-shard rule set: a 5 s batch-duration p99 ceiling and a 10%
    /// quarantine budget, both over the trailing minute, run on every
    /// shard's own store by [`Watchdog::evaluate_shards`]. A shard's store
    /// carries the fleet's metric names, each holding that shard's share.
    /// The batch ceiling is deliberately generous — a serving-path batch
    /// is thousands of records, not one — so only a genuinely wedged
    /// shard trips it.
    pub fn shard_rules() -> Vec<SloRule> {
        vec![
            SloRule::LatencyCeiling {
                histogram: "dds_ingest_batch_seconds".into(),
                quantile: 0.99,
                ceiling_seconds: 5.0,
                window: Duration::from_secs(60),
            },
            SloRule::QuarantineBudget {
                quarantined: "dds_records_quarantined_total".into(),
                accepted: "dds_monitor_records_ingested_total".into(),
                max_ratio: 0.10,
                window: Duration::from_secs(60),
            },
        ]
    }

    /// Runs every rule against `store`. Violations degrade the health
    /// state, fire one `Warn` event each and increment
    /// `dds_watchdog_violations_total`; a pass with no violations clears
    /// the degradation (the service self-heals when the window drains).
    pub fn evaluate(&self, store: &TimeSeriesStore) -> Vec<Violation> {
        let violations: Vec<Violation> = check_rules(&self.rules, store).collect();
        if violations.is_empty() {
            self.health.clear_degraded();
        }
        self.report(&violations);
        violations
    }

    /// Runs `rules` against every shard's own store (one per shard, in
    /// shard order), so each violation message begins with the shard it
    /// names (`shard 3: …`). Violations are reported exactly as in
    /// [`Watchdog::evaluate`], but a clean pass never *clears* the health
    /// state: call `evaluate` first each tick (it clears on a clean fleet
    /// pass) and this afterwards. Shards with too few samples to span a
    /// window pass vacuously.
    pub fn evaluate_shards(&self, shards: &[TimeSeriesStore], rules: &[SloRule]) -> Vec<Violation> {
        let violations: Vec<Violation> = shards
            .iter()
            .enumerate()
            .flat_map(|(shard, store)| {
                check_rules(rules, store).map(move |violation| Violation {
                    message: format!("shard {shard}: {}", violation.message),
                    ..violation
                })
            })
            .collect();
        self.report(&violations);
        violations
    }

    /// Counts each violation in `dds_watchdog_violations_total`, fires its
    /// `Warn` event and degrades the health state with the first message.
    fn report(&self, violations: &[Violation]) {
        let Some(first) = violations.first() else { return };
        let registry = crate::metrics::global();
        for violation in violations {
            registry.counter("dds_watchdog_violations_total").inc();
            crate::event!(
                crate::Level::Warn,
                "watchdog.slo_violation",
                rule = violation.rule,
                detail = violation.message.clone(),
            );
        }
        self.health.degrade(&first.message);
    }
}

/// The violations `rules` find in `store`, in rule order.
fn check_rules<'a>(
    rules: &'a [SloRule],
    store: &'a TimeSeriesStore,
) -> impl Iterator<Item = Violation> + 'a {
    rules.iter().filter_map(|rule| {
        rule.check(store).map(|message| Violation { rule: rule.name(), message })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn seeded_store(fill: impl Fn(&Registry)) -> (Registry, TimeSeriesStore) {
        let registry = Registry::new();
        let store = TimeSeriesStore::new(16);
        store.push(Duration::from_secs(0), registry.snapshot());
        fill(&registry);
        store.push(Duration::from_secs(10), registry.snapshot());
        (registry, store)
    }

    #[test]
    fn latency_ceiling_trips_and_recovers() {
        let watchdog = Watchdog::new(vec![SloRule::LatencyCeiling {
            histogram: "w_seconds".into(),
            quantile: 0.99,
            ceiling_seconds: 1e-4,
            window: Duration::from_secs(60),
        }]);
        watchdog.health().set_ready(true);

        let (registry, store) = seeded_store(|r| {
            for _ in 0..50 {
                r.histogram("w_seconds").observe(5e-3);
            }
        });
        let violations = watchdog.evaluate(&store);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "latency_ceiling");
        assert!(watchdog.health().is_degraded());
        assert!(watchdog.health().degraded_reason().unwrap().contains("w_seconds"));

        // A later window of fast observations clears the degradation.
        for _ in 0..500 {
            registry.histogram("w_seconds").observe(2e-6);
        }
        store.push(Duration::from_secs(70), registry.snapshot());
        assert!(watchdog.evaluate(&store).is_empty());
        assert!(!watchdog.health().is_degraded());
        assert!(watchdog.health().degraded_reason().is_none());
    }

    #[test]
    fn rate_spike_needs_both_factor_and_floor() {
        let rule = SloRule::RateSpike {
            counter: "w_total".into(),
            window: Duration::from_secs(10),
            baseline_window: Duration::from_secs(60),
            factor: 4.0,
            min_per_sec: 2.0,
        };
        // Steady growth: 10/s in both windows — no spike.
        let registry = Registry::new();
        let store = TimeSeriesStore::new(16);
        let counter = registry.counter("w_total");
        for t in 0..7u64 {
            store.push(Duration::from_secs(t * 10), registry.snapshot());
            counter.add(100);
        }
        assert_eq!(rule.check(&store), None);
        // A 100× burst in the final window trips it.
        counter.add(10_000);
        store.push(Duration::from_secs(70), registry.snapshot());
        let message = rule.check(&store).expect("spike detected");
        assert!(message.contains("w_total"), "{message}");
        // The same burst below the floor stays quiet.
        let quiet = SloRule::RateSpike {
            counter: "w_total".into(),
            window: Duration::from_secs(10),
            baseline_window: Duration::from_secs(60),
            factor: 4.0,
            min_per_sec: 1e9,
        };
        assert_eq!(quiet.check(&store), None);
    }

    #[test]
    fn error_budget_uses_windowed_ratio() {
        let watchdog = Watchdog::new(vec![SloRule::ErrorBudget {
            errors: "w_errors_total".into(),
            total: "w_requests_total".into(),
            max_ratio: 0.01,
            window: Duration::from_secs(60),
        }]);
        let (_registry, store) = seeded_store(|r| {
            r.counter("w_requests_total").add(1_000);
            r.counter("w_errors_total").add(100); // 10% — way over budget
        });
        let violations = watchdog.evaluate(&store);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "error_budget");
    }

    #[test]
    fn quarantine_budget_uses_offered_denominator() {
        let rule = SloRule::QuarantineBudget {
            quarantined: "w_quarantined_total".into(),
            accepted: "w_accepted_total".into(),
            max_ratio: 0.10,
            window: Duration::from_secs(60),
        };
        // 5% quarantine rate: within budget.
        let (registry, store) = seeded_store(|r| {
            r.counter("w_accepted_total").add(950);
            r.counter("w_quarantined_total").add(50);
        });
        assert_eq!(rule.check(&store), None);
        // A corrupt burst pushes the windowed ratio past 10%.
        registry.counter("w_quarantined_total").add(400);
        registry.counter("w_accepted_total").add(600);
        store.push(Duration::from_secs(20), registry.snapshot());
        let message = rule.check(&store).expect("budget breached");
        assert!(message.contains("quarantine budget"), "{message}");

        // Quarantines with a missing accepted counter still trip: the
        // denominator falls back to the quarantine rate alone.
        let (_r2, poisoned) = seeded_store(|r| {
            r.counter("w_quarantined_total").add(100);
        });
        assert!(rule.check(&poisoned).is_some());

        // No growth on either counter passes vacuously.
        let idle = TimeSeriesStore::new(4);
        assert_eq!(rule.check(&idle), None);
    }

    #[test]
    fn shed_budget_trips_on_overload_and_clears_when_idle() {
        let rule = SloRule::ShedBudget {
            shed: "w_shed_total".into(),
            accepted: "w_ingest_total".into(),
            max_ratio: 0.10,
            window: Duration::from_secs(60),
        };
        // 2% shed: a healthy gateway under mild bursts.
        let (registry, store) = seeded_store(|r| {
            r.counter("w_ingest_total").add(980);
            r.counter("w_shed_total").add(20);
        });
        assert_eq!(rule.check(&store), None);
        // Sustained overload sheds a third of offered records.
        registry.counter("w_shed_total").add(500);
        registry.counter("w_ingest_total").add(1_000);
        store.push(Duration::from_secs(20), registry.snapshot());
        let message = rule.check(&store).expect("budget breached");
        assert!(message.contains("shed budget"), "{message}");

        // A gateway shedding everything (accepted never grows) still trips.
        let (_r2, drowned) = seeded_store(|r| {
            r.counter("w_shed_total").add(100);
        });
        assert!(rule.check(&drowned).is_some());

        // No traffic at all passes vacuously.
        let idle = TimeSeriesStore::new(4);
        assert_eq!(rule.check(&idle), None);
    }

    #[test]
    fn drift_budget_trips_beyond_baseline_and_recovers() {
        let rule = SloRule::DriftBudget {
            drifted: "w_drifted_total".into(),
            clean: "w_clean_total".into(),
            max_ratio: 0.05,
            window: Duration::from_secs(60),
        };
        // 2% drifted records: within budget.
        let (registry, store) = seeded_store(|r| {
            r.counter("w_clean_total").add(980);
            r.counter("w_drifted_total").add(20);
        });
        assert_eq!(rule.check(&store), None);
        // A shifted stream drifts a quarter of examined records.
        registry.counter("w_drifted_total").add(250);
        registry.counter("w_clean_total").add(750);
        store.push(Duration::from_secs(20), registry.snapshot());
        let message = rule.check(&store).expect("budget breached");
        assert!(message.contains("drift budget"), "{message}");

        // A stream where everything drifts (clean never grows) still trips.
        let (_r2, drowned) = seeded_store(|r| {
            r.counter("w_drifted_total").add(100);
        });
        assert!(rule.check(&drowned).is_some());

        // No traffic passes vacuously, and the standard rule set carries
        // the drift budget.
        let idle = TimeSeriesStore::new(4);
        assert_eq!(rule.check(&idle), None);
        assert!(Watchdog::standard_rules().iter().any(|r| r.name() == "drift_budget"));
    }

    #[test]
    fn missing_metrics_pass_vacuously() {
        let watchdog = Watchdog::new(Watchdog::standard_rules());
        let store = TimeSeriesStore::new(4);
        assert!(watchdog.evaluate(&store).is_empty());
        assert!(!watchdog.health().is_degraded());
    }

    #[test]
    fn shard_evaluation_names_the_offending_shard() {
        let watchdog = Watchdog::new(Vec::new());
        // One store per shard, seeded at t=0 with an empty snapshot.
        let shards: Vec<TimeSeriesStore> = (0..3).map(|_| TimeSeriesStore::new(8)).collect();
        for store in &shards {
            store.push(Duration::from_secs(0), Registry::new().snapshot());
        }
        // Shard 0 and 2 are healthy; shard 1 is wedged (slow batches,
        // heavy quarantine).
        let shard_view = |accepted: u64, quarantined: u64, batch_seconds: f64| {
            let registry = Registry::new();
            registry.counter("dds_monitor_records_ingested_total").add(accepted);
            registry.counter("dds_records_quarantined_total").add(quarantined);
            for _ in 0..4 {
                registry.histogram("dds_ingest_batch_seconds").observe(batch_seconds);
            }
            registry.snapshot()
        };
        shards[0].push(Duration::from_secs(10), shard_view(1_000, 0, 1e-3));
        shards[1].push(Duration::from_secs(10), shard_view(100, 900, 20.0));
        shards[2].push(Duration::from_secs(10), shard_view(1_000, 0, 1e-3));

        let violations = watchdog.evaluate_shards(&shards, &Watchdog::shard_rules());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().all(|v| v.message.starts_with("shard 1: ")), "{violations:?}");
        assert_eq!(violations[0].rule, "latency_ceiling");
        assert_eq!(violations[1].rule, "quarantine_budget");
        assert!(watchdog.health().is_degraded());
        assert!(watchdog.health().degraded_reason().unwrap().starts_with("shard 1"));
    }

    #[test]
    fn shard_evaluation_is_degrade_only() {
        let watchdog = Watchdog::new(Vec::new());
        watchdog.health().degrade("pre-existing fleet violation");
        // Empty shard stores pass vacuously — but must NOT clear a
        // degradation set by the fleet-level pass.
        let shards = [TimeSeriesStore::new(4), TimeSeriesStore::new(4)];
        assert!(watchdog.evaluate_shards(&shards, &Watchdog::shard_rules()).is_empty());
        assert!(watchdog.health().is_degraded());
    }

    #[test]
    fn health_state_defaults_to_not_ready() {
        let health = HealthState::new();
        assert!(!health.is_ready());
        health.set_ready(true);
        assert!(health.is_ready());
        health.set_ready(false);
        assert!(!health.is_ready());
    }
}
