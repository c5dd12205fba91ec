//! Sharded serving: hash-partition a fleet across N independent
//! [`FleetMonitor`] workers behind one deterministic coordinator.
//!
//! A single monitor serializes every record through one escalation map —
//! fine for the paper's 23 k drives, a bottleneck at the ROADMAP's
//! millions. [`ShardedFleetMonitor`] splits the fleet by drive id
//! ([`shard_for`], FNV-1a) onto per-shard worker threads, each owning a
//! full `FleetMonitor` (models, sanitizer, escalation state). Because a
//! drive's entire history lands on exactly one shard, per-drive semantics
//! (debounce, hysteresis, quality watermarks) are untouched, and the
//! coordinator's merge — a stable sort by `(hour, drive)` — reproduces
//! the single-monitor alert stream byte for byte at any shard count.
//!
//! [`IngestQueue`] is the bounded intake in front of the coordinator:
//! HTTP batches are queued if there is room and **shed** (counted, 429)
//! if not, so overload degrades the ingest SLO instead of deadlocking the
//! serve loop; the watchdog's shed budget flips `/healthz` when shedding
//! exceeds its ratio.

use crate::alert::Alert;
use crate::bundle::ModelBundle;
use crate::history::AlertHistory;
use crate::monitor::{FleetMonitor, HealthStatus, MonitorConfig};
use dds_core::quality::QualityStats;
use dds_obs::journal::{BatchSpan, FlightRecorder, ShardSpan};
use dds_obs::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
use dds_smartsim::{DriveId, HealthRecord};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// The shard a drive belongs to, by FNV-1a over the id's little-endian
/// bytes. Stable across runs, platforms and shard-count-preserving
/// restarts: the same `(drive, shards)` always maps to the same shard.
///
/// # Example
///
/// ```
/// use dds_monitor::shard::shard_for;
/// use dds_smartsim::DriveId;
///
/// // One shard degenerates to a single monitor.
/// assert_eq!(shard_for(DriveId(12345), 1), 0);
///
/// // The assignment is a pure function of (drive, shards)...
/// assert_eq!(shard_for(DriveId(7), 8), shard_for(DriveId(7), 8));
///
/// // ...and spreads a contiguous id range over every shard.
/// let mut hit = [false; 4];
/// for id in 0..64 {
///     hit[shard_for(DriveId(id), 4)] = true;
/// }
/// assert_eq!(hit, [true; 4]);
/// ```
pub fn shard_for(drive: DriveId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in drive.0.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    (hash % shards as u64) as usize
}

/// One batch's result from a shard worker, including the span fields the
/// flight recorder assembles into a [`BatchSpan`]. The count fields are
/// always filled (they fall out of the accept/quarantine branch anyway);
/// the stage clocks are only non-zero for timed jobs.
struct ShardBatch {
    alerts: Vec<Alert>,
    records: u64,
    accepted: u64,
    quarantined: u64,
    sanitize_seconds: f64,
    ingest_seconds: f64,
    drives_tracked: usize,
    latched: [usize; 3],
}

/// Point-in-time state of one shard, for the `/shards` endpoint, the
/// per-shard time series behind `/timeseries` and the shard SLOs, and the
/// scaling handbook's sizing checks.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// Drives with escalation state on this shard.
    pub drives_tracked: usize,
    /// Drives latched at (watch, warning, critical) on this shard.
    pub latched: [usize; 3],
    /// This shard's sanitizer tallies.
    pub quality: QualityStats,
    /// Lifetime alerts this shard emitted.
    pub alerts_emitted: u64,
    /// This shard's per-batch worker wall times in seconds, over its
    /// lifetime; the count is the number of batches it processed.
    pub batch_seconds: HistogramSnapshot,
}

impl ShardStatus {
    /// This shard's share of the fleet metrics, under the fleet's names:
    /// accepted records (`dds_monitor_records_ingested_total`),
    /// quarantined records (`dds_records_quarantined_total`), alerts
    /// (`dds_monitor_alerts_total`) and batch durations
    /// (`dds_ingest_batch_seconds`). Every counter is present even at
    /// zero, so a window over a quiet shard answers a `0` rate, not
    /// nothing. `dds serve` pushes one per fleet-hour into the shard's
    /// own `TimeSeriesStore`, where the shard SLO rules read it.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        for (name, value) in [
            ("dds_monitor_records_ingested_total", self.quality.accepted),
            ("dds_records_quarantined_total", self.quality.quarantined),
            ("dds_monitor_alerts_total", self.alerts_emitted),
        ] {
            snapshot.counters.insert(name.to_string(), value);
        }
        snapshot
            .histograms
            .insert("dds_ingest_batch_seconds".to_string(), self.batch_seconds.clone());
        snapshot
    }

    /// The `/shards` endpoint document: shard count plus each status.
    pub fn shards_json(statuses: &[ShardStatus]) -> String {
        let per_shard: Vec<String> = statuses.iter().map(ShardStatus::to_json).collect();
        format!("{{\"shards\": {}, \"per_shard\": [{}]}}", statuses.len(), per_shard.join(", "))
    }

    /// Serializes the status as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shard\": {}, \"drives_tracked\": {}, \"latched_watch\": {}, \
             \"latched_warning\": {}, \"latched_critical\": {}, \"accepted\": {}, \
             \"quarantined\": {}, \"imputed_attrs\": {}, \"alerts_emitted\": {}, \
             \"batches\": {}}}",
            self.shard,
            self.drives_tracked,
            self.latched[0],
            self.latched[1],
            self.latched[2],
            self.quality.accepted,
            self.quality.quarantined,
            self.quality.imputed_attrs,
            self.alerts_emitted,
            self.batch_seconds.count,
        )
    }
}

enum Job {
    Batch {
        records: Vec<(DriveId, HealthRecord)>,
        /// Whether to run the per-record stage clocks (sanitize/ingest
        /// wall time). Only true when a flight recorder is attached, so
        /// the unattached path pays zero per-record timing overhead.
        timed: bool,
        reply: SyncSender<(usize, ShardBatch)>,
    },
    NewSession {
        reply: SyncSender<()>,
    },
    /// Hot-swap the shard's model bundle (promotion). Boxed: the bundle
    /// carries whole regression trees and would otherwise dominate the
    /// job enum's size for every queued batch.
    SwapBundle {
        bundle: Box<ModelBundle>,
        reply: SyncSender<()>,
    },
    Status {
        reply: SyncSender<ShardStatus>,
    },
}

struct Worker {
    sender: Option<mpsc::Sender<Job>>,
    handle: Option<thread::JoinHandle<()>>,
}

fn worker_loop(shard: usize, bundle: ModelBundle, config: MonitorConfig, jobs: Receiver<Job>) {
    let mut monitor = FleetMonitor::new(bundle, config).with_quiet_gauges();
    // Cheap per-shard lifetime tallies behind `/shards` and the
    // per-shard time series: two clock reads per *batch* (not per
    // record) and a handful of atomic adds, so they stay on even when
    // no recorder is attached.
    let batch_seconds = Histogram::default();
    let mut alerts_emitted = 0u64;
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Batch { records, timed, reply } => {
                let started = Instant::now();
                let mut alerts = Vec::new();
                let total = records.len() as u64;
                let mut accepted = 0u64;
                let mut quarantined = 0u64;
                let mut sanitize_seconds = 0.0;
                let mut ingest_seconds = 0.0;
                // The same sanitize→ingest composition as `try_ingest`.
                // The per-record stage clocks feed the flight recorder and
                // run only when `timed`, so the untimed path reads no
                // clock per record.
                let clock = || timed.then(Instant::now);
                let lap = |since: Option<Instant>| since.map_or(0.0, |t| t.elapsed().as_secs_f64());
                for (drive, record) in &records {
                    let gate = clock();
                    let admitted = monitor.sanitize(*drive, record);
                    sanitize_seconds += lap(gate);
                    match admitted {
                        Ok(cleaned) => {
                            accepted += 1;
                            let score = clock();
                            alerts.append(&mut monitor.ingest_sanitized(*drive, &cleaned));
                            ingest_seconds += lap(score);
                        }
                        Err(_) => quarantined += 1,
                    }
                }
                batch_seconds.observe(started.elapsed().as_secs_f64());
                alerts_emitted += alerts.len() as u64;
                let status = monitor.health_status();
                let _ = reply.send((
                    shard,
                    ShardBatch {
                        alerts,
                        records: total,
                        accepted,
                        quarantined,
                        sanitize_seconds,
                        ingest_seconds,
                        drives_tracked: status.drives_tracked,
                        latched: status.latched,
                    },
                ));
            }
            Job::NewSession { reply } => {
                monitor.new_ingest_session();
                let _ = reply.send(());
            }
            Job::SwapBundle { bundle, reply } => {
                monitor.swap_bundle(*bundle);
                let _ = reply.send(());
            }
            Job::Status { reply } => {
                let status = monitor.health_status();
                let _ = reply.send(ShardStatus {
                    shard,
                    drives_tracked: status.drives_tracked,
                    latched: status.latched,
                    quality: *monitor.quality_stats(),
                    alerts_emitted,
                    batch_seconds: batch_seconds.snapshot(),
                });
            }
        }
    }
}

/// Cached handles for the coordinator's aggregate metrics.
#[derive(Debug)]
struct CoordinatorMetrics {
    shards: Arc<Gauge>,
    batch_seconds: Arc<Histogram>,
    drives_tracked: Arc<Gauge>,
    latched: [Arc<Gauge>; 3],
}

impl CoordinatorMetrics {
    fn new() -> Self {
        let registry = dds_obs::metrics::global();
        CoordinatorMetrics {
            shards: registry.gauge("dds_ingest_shards"),
            batch_seconds: registry.histogram("dds_ingest_batch_seconds"),
            drives_tracked: registry.gauge("dds_monitor_drives_tracked"),
            latched: [
                registry.gauge("dds_monitor_drives_latched_watch"),
                registry.gauge("dds_monitor_drives_latched_warning"),
                registry.gauge("dds_monitor_drives_latched_critical"),
            ],
        }
    }
}

/// N per-shard [`FleetMonitor`] workers behind one deterministic
/// fan-out/fan-in coordinator.
///
/// Batches go in ([`ingest_batch`]); the merged alert stream comes out in
/// `(hour, drive)` order — byte-identical to a single monitor fed the
/// same records, at any shard count. Shard workers run with quiet gauges;
/// the coordinator publishes the fleet-wide `dds_monitor_drives_tracked`
/// / `dds_monitor_drives_latched_*` aggregates after every batch, and
/// every emitted alert is recorded into the attached [`AlertHistory`] in
/// merged order.
///
/// [`ingest_batch`]: ShardedFleetMonitor::ingest_batch
#[derive(Debug)]
pub struct ShardedFleetMonitor {
    workers: Vec<Worker>,
    history: Option<Arc<AlertHistory>>,
    recorder: Option<Arc<FlightRecorder>>,
    metrics: CoordinatorMetrics,
    /// Last-known (drives_tracked, latched) per shard, refreshed by every
    /// batch reply, so gauge aggregation never needs an extra round trip.
    shard_state: Vec<(usize, [usize; 3])>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker").field("alive", &self.handle.is_some()).finish()
    }
}

impl ShardedFleetMonitor {
    /// Spawns `shards` workers (clamped to at least 1), each with its own
    /// clone of the bundle and config.
    pub fn new(bundle: ModelBundle, config: MonitorConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        let workers = (0..shards)
            .map(|shard| {
                let (sender, receiver) = mpsc::channel();
                let bundle = bundle.clone();
                let config = config.clone();
                let handle = thread::Builder::new()
                    .name(format!("dds-shard-{shard}"))
                    .spawn(move || worker_loop(shard, bundle, config, receiver))
                    .expect("spawn shard worker");
                Worker { sender: Some(sender), handle: Some(handle) }
            })
            .collect();
        let metrics = CoordinatorMetrics::new();
        metrics.shards.set(shards as f64);
        ShardedFleetMonitor {
            workers,
            history: None,
            recorder: None,
            metrics,
            shard_state: vec![(0, [0; 3]); shards],
        }
    }

    /// Attaches a shared alert history; the coordinator records every
    /// merged alert into it (shard workers never touch it).
    #[must_use]
    pub fn with_history(mut self, history: Arc<AlertHistory>) -> Self {
        self.history = Some(history);
        self
    }

    /// Attaches a flight recorder; every subsequent batch deposits one
    /// [`BatchSpan`] (per-stage timings, shard breakdown) into it, and
    /// workers switch on their per-record stage clocks. Without a
    /// recorder the sharded path records nothing and times nothing
    /// beyond the pre-existing per-batch histogram — the
    /// instrumentation-is-inert discipline.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Number of shards (worker threads).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    fn send(&self, shard: usize, job: Job) {
        self.workers[shard]
            .sender
            .as_ref()
            .expect("worker channel open")
            .send(job)
            .expect("shard worker alive");
    }

    /// Routes a batch to its shards, waits for every shard to finish, and
    /// returns the merged alert stream in `(hour, drive)` order.
    ///
    /// Records quarantined by a shard's quality gate yield no alerts
    /// (exactly as [`FleetMonitor::ingest`]); the per-shard tallies remain
    /// visible through [`shard_statuses`](ShardedFleetMonitor::shard_statuses).
    pub fn ingest_batch(&mut self, records: &[(DriveId, HealthRecord)]) -> Vec<Alert> {
        self.ingest_batch_from(records, "batch")
    }

    /// [`ingest_batch`](ShardedFleetMonitor::ingest_batch) with a source
    /// tag for the flight recorder's span (`"stream"` for the serve
    /// loop's simulated epochs, `"external"` for drained `/ingest`
    /// batches, `"batch"` for direct API calls). The tag changes nothing
    /// about routing or alerting.
    pub fn ingest_batch_from(
        &mut self,
        records: &[(DriveId, HealthRecord)],
        source: &'static str,
    ) -> Vec<Alert> {
        let started = Instant::now();
        let timed = self.recorder.is_some();
        let shards = self.workers.len();
        let mut buckets: Vec<Vec<(DriveId, HealthRecord)>> = vec![Vec::new(); shards];
        if shards == 1 {
            buckets[0] = records.to_vec();
        } else {
            for (drive, record) in records {
                buckets[shard_for(*drive, shards)].push((*drive, record.clone()));
            }
        }

        let (reply, replies) = mpsc::sync_channel(shards);
        let mut outstanding = 0usize;
        for (shard, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.send(shard, Job::Batch { records: bucket, timed, reply: reply.clone() });
            outstanding += 1;
        }
        drop(reply);

        let mut alerts = Vec::new();
        let mut shard_spans: Vec<ShardSpan> = Vec::new();
        for _ in 0..outstanding {
            let (shard, batch) = replies.recv().expect("shard worker alive");
            self.shard_state[shard] = (batch.drives_tracked, batch.latched);
            if timed {
                shard_spans.push(ShardSpan {
                    shard,
                    records: batch.records,
                    accepted: batch.accepted,
                    quarantined: batch.quarantined,
                    alerts: batch.alerts.len() as u64,
                    sanitize_seconds: batch.sanitize_seconds,
                    ingest_seconds: batch.ingest_seconds,
                });
            }
            alerts.extend(batch.alerts);
        }
        let merge_started = Instant::now();
        // Alerts of one drive live entirely on one shard and arrive there
        // in emission order, so a stable sort on (hour, drive) is a full
        // deterministic merge — equal keys never span shards.
        alerts.sort_by_key(|alert| (alert.hour, alert.drive.0));

        if let Some(history) = &self.history {
            for alert in &alerts {
                history.record(alert);
            }
        }
        self.publish_gauges();
        self.metrics.batch_seconds.observe(started.elapsed().as_secs_f64());
        if let Some(recorder) = &self.recorder {
            if !records.is_empty() {
                shard_spans.sort_by_key(|span| span.shard);
                let accepted: u64 = shard_spans.iter().map(|s| s.accepted).sum();
                let quarantined: u64 = shard_spans.iter().map(|s| s.quarantined).sum();
                recorder.record(BatchSpan {
                    source,
                    outcome: "ingested",
                    records: records.len() as u64,
                    accepted,
                    quarantined,
                    alerts: alerts.len() as u64,
                    merge_seconds: merge_started.elapsed().as_secs_f64(),
                    total_seconds: started.elapsed().as_secs_f64(),
                    shards: shard_spans,
                    ..BatchSpan::default()
                });
            }
        }
        alerts
    }

    fn publish_gauges(&self) {
        let tracked: usize = self.shard_state.iter().map(|(t, _)| t).sum();
        self.metrics.drives_tracked.set(tracked as f64);
        for (i, gauge) in self.metrics.latched.iter().enumerate() {
            let latched: usize = self.shard_state.iter().map(|(_, l)| l[i]).sum();
            gauge.set(latched as f64);
        }
    }

    /// Resets every shard's ingest session (ordering watermarks restart;
    /// cumulative stats are kept), blocking until all shards have done so.
    pub fn new_ingest_session(&mut self) {
        let (reply, replies) = mpsc::sync_channel(self.workers.len());
        for shard in 0..self.workers.len() {
            self.send(shard, Job::NewSession { reply: reply.clone() });
        }
        drop(reply);
        for _ in 0..self.workers.len() {
            replies.recv().expect("shard worker alive");
        }
    }

    /// Hot-swaps every shard's model bundle — the sharded half of a
    /// promotion — blocking until all shards run the new model.
    ///
    /// The coordinator serializes this between batches (it owns `&mut
    /// self` for both), so a swap never lands mid-batch: every batch is
    /// scored wholly by one model, which keeps the merged alert stream
    /// deterministic across promotion timing. Per-shard escalation state
    /// survives, exactly as in [`FleetMonitor::swap_bundle`].
    pub fn swap_bundle(&mut self, bundle: ModelBundle) {
        let (reply, replies) = mpsc::sync_channel(self.workers.len());
        for shard in 0..self.workers.len() {
            self.send(
                shard,
                Job::SwapBundle { bundle: Box::new(bundle.clone()), reply: reply.clone() },
            );
        }
        drop(reply);
        for _ in 0..self.workers.len() {
            replies.recv().expect("shard worker alive");
        }
    }

    /// Per-shard serving state, in shard order.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        let (reply, replies) = mpsc::sync_channel(self.workers.len());
        for shard in 0..self.workers.len() {
            self.send(shard, Job::Status { reply: reply.clone() });
        }
        drop(reply);
        let mut statuses: Vec<ShardStatus> = replies.iter().collect();
        statuses.sort_by_key(|s| s.shard);
        statuses
    }

    /// The fleet-wide serving summary, aggregated across shards (same
    /// shape as [`FleetMonitor::health_status`]).
    pub fn health_status(&self) -> HealthStatus {
        let statuses = self.shard_statuses();
        let mut latched = [0usize; 3];
        for status in &statuses {
            for (total, n) in latched.iter_mut().zip(status.latched) {
                *total += n;
            }
        }
        HealthStatus {
            drives_tracked: statuses.iter().map(|s| s.drives_tracked).sum(),
            latched,
            alerts_emitted: self.history.as_ref().map_or(0, |h| h.total()),
        }
    }

    /// Fleet-wide quality tallies: every shard's sanitizer stats merged.
    pub fn quality_stats(&self) -> QualityStats {
        let mut merged = QualityStats::default();
        for status in self.shard_statuses() {
            merged.merge(&status.quality);
        }
        merged
    }
}

impl Drop for ShardedFleetMonitor {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            drop(worker.sender.take());
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Counts of everything offered to an [`IngestQueue`]. The conservation
/// invariant `offered = accepted + shed` holds at all times (records and
/// batches alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestCounts {
    /// Records offered (accepted + shed).
    pub offered_records: u64,
    /// Records queued for the serve loop.
    pub accepted_records: u64,
    /// Records dropped because the queue was full.
    pub shed_records: u64,
    /// Batches queued.
    pub accepted_batches: u64,
    /// Batches dropped whole (a batch is never split).
    pub shed_batches: u64,
}

/// The bounded intake between the HTTP `/ingest` endpoint and the serve
/// loop: `offer` never blocks — a full queue sheds the batch (HTTP 429)
/// and counts it (`dds_shed_records_total`), which is what the watchdog's
/// shed budget and the overload runbook key off.
#[derive(Debug)]
pub struct IngestQueue {
    sender: SyncSender<Vec<(DriveId, HealthRecord)>>,
    receiver: Mutex<Receiver<Vec<(DriveId, HealthRecord)>>>,
    counts: Mutex<IngestCounts>,
    recorder: Option<Arc<FlightRecorder>>,
    accepted_records: Arc<Counter>,
    accepted_batches: Arc<Counter>,
    shed_records: Arc<Counter>,
    shed_batches: Arc<Counter>,
}

impl IngestQueue {
    /// A queue holding at most `capacity` batches.
    pub fn bounded(capacity: usize) -> Self {
        let (sender, receiver) = mpsc::sync_channel(capacity.max(1));
        let registry = dds_obs::metrics::global();
        IngestQueue {
            sender,
            receiver: Mutex::new(receiver),
            counts: Mutex::new(IngestCounts::default()),
            recorder: None,
            accepted_records: registry.counter("dds_ingest_records_total"),
            accepted_batches: registry.counter("dds_ingest_batches_total"),
            shed_records: registry.counter("dds_shed_records_total"),
            shed_batches: registry.counter("dds_shed_batches_total"),
        }
    }

    /// Attaches a flight recorder; every *shed* batch then deposits a
    /// `"shed"`-outcome span (zero timings, no shard breakdown — the
    /// batch never reached a shard). Accepted batches are recorded later
    /// by the coordinator when the serve loop drains them.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Offers one decoded batch. `Ok(n)` queued `n` records; `Err(n)`
    /// shed all `n` because the queue was full (backpressure) — the
    /// caller should answer HTTP 429 and let the relay retry later.
    pub fn offer(&self, batch: Vec<(DriveId, HealthRecord)>) -> Result<usize, usize> {
        let records = batch.len() as u64;
        // Poison recovery: the tallies are plain integers updated in
        // place; a panic-isolated handler dying mid-offer must not turn
        // every later /ingest into a 500.
        let mut counts = self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        counts.offered_records += records;
        match self.sender.try_send(batch) {
            Ok(()) => {
                counts.accepted_records += records;
                counts.accepted_batches += 1;
                self.accepted_records.add(records);
                self.accepted_batches.inc();
                Ok(records as usize)
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                counts.shed_records += records;
                counts.shed_batches += 1;
                self.shed_records.add(records);
                self.shed_batches.inc();
                if let Some(recorder) = &self.recorder {
                    recorder.record(BatchSpan {
                        source: "external",
                        outcome: "shed",
                        records,
                        ..BatchSpan::default()
                    });
                }
                Err(records as usize)
            }
        }
    }

    /// Drains every queued batch into one record list, in arrival order.
    /// Called by the serve loop between stream ticks; never blocks.
    pub fn drain(&self) -> Vec<(DriveId, HealthRecord)> {
        let receiver = self.receiver.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut records = Vec::new();
        while let Ok(batch) = receiver.try_recv() {
            records.extend(batch);
        }
        records
    }

    /// A snapshot of the conservation counters.
    pub fn counts(&self) -> IngestCounts {
        *self.counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::trained_bundle;
    use dds_smartsim::stream::hour_ordered;
    use dds_smartsim::{FleetConfig, FleetSimulator, NUM_ATTRIBUTES};

    fn alert_lines(alerts: &[Alert]) -> Vec<String> {
        alerts.iter().map(|a| format!("{a}")).collect()
    }

    #[test]
    fn shard_for_is_stable_and_covers_all_shards() {
        for shards in [1usize, 2, 3, 8] {
            let mut population = vec![0usize; shards];
            for id in 0..10_000u32 {
                let shard = shard_for(DriveId(id), shards);
                assert!(shard < shards);
                assert_eq!(shard, shard_for(DriveId(id), shards), "must be pure");
                population[shard] += 1;
            }
            let expected = 10_000 / shards;
            for (shard, &n) in population.iter().enumerate() {
                assert!(
                    n > expected / 2 && n < expected * 2,
                    "shard {shard}/{shards} holds {n} of 10000 (expected ~{expected})"
                );
            }
        }
    }

    #[test]
    fn sharded_alerts_match_a_single_monitor_byte_for_byte() {
        let bundle = trained_bundle(9_101);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_102)).run();
        let records = hour_ordered(&live);

        let mut single = FleetMonitor::new(bundle.clone(), MonitorConfig::default());
        let mut expected = Vec::new();
        for (drive, record) in &records {
            expected.extend(single.ingest(*drive, record));
        }

        for shards in [1usize, 3, 4] {
            let mut sharded =
                ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), shards);
            let alerts = sharded.ingest_batch(&records);
            assert_eq!(
                alert_lines(&alerts),
                alert_lines(&expected),
                "{shards} shard(s) must reproduce the single-monitor stream"
            );
            let status = sharded.health_status();
            assert_eq!(status.drives_tracked, single.health_status().drives_tracked);
            assert_eq!(status.latched, single.health_status().latched);
            assert_eq!(sharded.quality_stats().accepted, records.len() as u64);
        }
    }

    #[test]
    fn batches_can_be_split_arbitrarily_without_changing_alerts() {
        let bundle = trained_bundle(9_103);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_104)).run();
        let records = hour_ordered(&live);

        let mut whole = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 2);
        let expected = whole.ingest_batch(&records);

        let mut chunked = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 2);
        let mut alerts = Vec::new();
        for chunk in records.chunks(97) {
            alerts.extend(chunked.ingest_batch(chunk));
        }
        assert_eq!(alert_lines(&alerts), alert_lines(&expected));
    }

    #[test]
    fn shard_statuses_partition_the_fleet() {
        let bundle = trained_bundle(9_105);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_106)).run();
        let records = hour_ordered(&live);
        let mut sharded = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 4);
        sharded.ingest_batch(&records);

        let statuses = sharded.shard_statuses();
        assert_eq!(statuses.len(), 4);
        let tracked: usize = statuses.iter().map(|s| s.drives_tracked).sum();
        assert_eq!(tracked, sharded.health_status().drives_tracked);
        assert!(statuses.iter().all(|s| s.drives_tracked > 0), "test fleet spans all 4 shards");
        let accepted: u64 = statuses.iter().map(|s| s.quality.accepted).sum();
        assert_eq!(accepted, records.len() as u64);
        let json = ShardStatus::shards_json(&statuses);
        dds_obs::json::validate(&json).expect("shards JSON");
        assert!(json.contains("\"shards\": 4"));

        // The per-shard metrics view carries every counter, even at zero.
        let snapshot = statuses[0].metrics_snapshot();
        assert_eq!(
            snapshot.counter_value("dds_monitor_records_ingested_total"),
            Some(statuses[0].quality.accepted)
        );
        assert_eq!(snapshot.counter_value("dds_records_quarantined_total"), Some(0));
        assert_eq!(
            snapshot.counter_value("dds_monitor_alerts_total"),
            Some(statuses[0].alerts_emitted)
        );
        assert_eq!(snapshot.histogram("dds_ingest_batch_seconds").map(|h| h.count), Some(1));
    }

    #[test]
    fn new_ingest_session_resets_every_shard() {
        let bundle = trained_bundle(9_107);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_108)).run();
        let records = hour_ordered(&live);
        let mut sharded = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 3);

        sharded.ingest_batch(&records);
        assert_eq!(sharded.quality_stats().quarantined, 0);
        // Replaying the same epoch looks like ordering faults...
        sharded.ingest_batch(&records);
        assert_eq!(sharded.quality_stats().quarantined, records.len() as u64);
        // ...until the session restarts on every shard.
        sharded.new_ingest_session();
        sharded.ingest_batch(&records);
        assert_eq!(sharded.quality_stats().quarantined, records.len() as u64);
    }

    #[test]
    fn bundle_swap_between_batches_keeps_identical_models_byte_identical() {
        let bundle = trained_bundle(9_113);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_114)).run();
        let records = hour_ordered(&live);

        let mut plain = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 3);
        let mut expected = Vec::new();
        for chunk in records.chunks(300) {
            expected.extend(plain.ingest_batch(chunk));
        }

        // Promote the *same* bundle between every pair of batches: the
        // escalation state survives each swap, so the stream is unchanged.
        let mut swapped = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 3);
        let mut alerts = Vec::new();
        for chunk in records.chunks(300) {
            alerts.extend(swapped.ingest_batch(chunk));
            swapped.swap_bundle(bundle.clone());
        }
        assert_eq!(alert_lines(&alerts), alert_lines(&expected));
        assert_eq!(swapped.health_status().latched, plain.health_status().latched);

        // A *different* bundle actually changes scoring somewhere.
        let other = trained_bundle(9_115);
        let mut diverged = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 3);
        diverged.swap_bundle(other);
        let mut re_alerts = Vec::new();
        let mut re_plain = Vec::new();
        // Fresh streams (new session semantics): replay from scratch.
        let mut baseline =
            ShardedFleetMonitor::new(trained_bundle(9_113), MonitorConfig::default(), 3);
        for chunk in records.chunks(300) {
            re_alerts.extend(diverged.ingest_batch(chunk));
            re_plain.extend(baseline.ingest_batch(chunk));
        }
        assert_ne!(
            alert_lines(&re_alerts),
            alert_lines(&re_plain),
            "a cross-fleet bundle must score differently somewhere"
        );
    }

    #[test]
    fn flight_recorder_spans_conserve_records_across_shards() {
        let bundle = trained_bundle(9_109);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_110)).run();
        let records = hour_ordered(&live);
        // Capacity exceeds the batch count so the conservation sums below
        // can see every span (the ring never evicts in this test).
        let recorder = Arc::new(FlightRecorder::new(256));
        let mut sharded = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 3)
            .with_flight_recorder(Arc::clone(&recorder));

        let mut batches = 0u64;
        for chunk in records.chunks(500) {
            sharded.ingest_batch_from(chunk, "stream");
            batches += 1;
        }
        assert_eq!(recorder.total(), batches);

        for span in recorder.last(batches as usize) {
            assert_eq!(span.source, "stream");
            assert_eq!(span.outcome, "ingested");
            // The quality gate partitions every batch...
            assert_eq!(span.accepted + span.quarantined, span.records);
            // ...and the shard spans partition it again, in shard order.
            let shard_records: u64 = span.shards.iter().map(|s| s.records).sum();
            assert_eq!(shard_records, span.records);
            for pair in span.shards.windows(2) {
                assert!(pair[0].shard < pair[1].shard);
            }
            // Stage clocks ran (timed mode) and nest inside the total.
            for shard in &span.shards {
                assert!(shard.sanitize_seconds + shard.ingest_seconds <= span.total_seconds);
            }
            assert!(span.merge_seconds <= span.total_seconds);
        }
        // The recorded totals agree with the quality tallies.
        let spans = recorder.last(batches as usize);
        let accepted: u64 = spans.iter().map(|s| s.accepted).sum();
        assert_eq!(accepted, sharded.quality_stats().accepted);
        // Per-shard lifetime tallies behind `/shards` saw every batch.
        let statuses = sharded.shard_statuses();
        let shard_batches: u64 = statuses.iter().map(|s| s.batch_seconds.count).sum();
        assert!(shard_batches >= batches, "every batch hit at least one shard");
        let bucketed: u64 =
            statuses.iter().map(|s| s.batch_seconds.buckets.iter().sum::<u64>()).sum();
        assert_eq!(bucketed, shard_batches, "every batch landed in exactly one bucket");
    }

    #[test]
    fn detached_recorder_changes_nothing_and_records_nothing() {
        let bundle = trained_bundle(9_111);
        let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(9_112)).run();
        let records = hour_ordered(&live);

        let mut plain = ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), 2);
        let expected = plain.ingest_batch(&records);

        let recorder = Arc::new(FlightRecorder::new(64));
        let mut recorded = ShardedFleetMonitor::new(bundle, MonitorConfig::default(), 2)
            .with_flight_recorder(Arc::clone(&recorder));
        let observed = recorded.ingest_batch(&records);

        assert_eq!(alert_lines(&observed), alert_lines(&expected));
        assert_eq!(recorder.total(), 1);
        assert_eq!(recorder.last(1)[0].source, "batch");
        // An empty batch is not a span: idle ticks must not flood the ring.
        recorded.ingest_batch(&[]);
        assert_eq!(recorder.total(), 1);
    }

    #[test]
    fn shed_batches_deposit_shed_spans() {
        let queue = IngestQueue::bounded(1);
        let recorder = Arc::new(FlightRecorder::new(8));
        let queue = queue.with_flight_recorder(Arc::clone(&recorder));
        let batch = |n: u32| -> Vec<(DriveId, HealthRecord)> {
            (0..n)
                .map(|i| (DriveId(i), HealthRecord { hour: 0, values: [1.0; NUM_ATTRIBUTES] }))
                .collect()
        };
        assert_eq!(queue.offer(batch(4)), Ok(4));
        assert_eq!(queue.offer(batch(9)), Err(9));
        // Only the shed batch left a span; the accepted one is recorded
        // later, when the serve loop drains and ingests it.
        assert_eq!(recorder.total(), 1);
        let span = &recorder.last(1)[0];
        assert_eq!(span.outcome, "shed");
        assert_eq!(span.source, "external");
        assert_eq!(span.records, 9);
        assert!(span.shards.is_empty());
        assert_eq!(span.records as usize, queue.counts().shed_records as usize);
    }

    #[test]
    fn ingest_queue_sheds_on_overflow_and_conserves_counts() {
        let queue = IngestQueue::bounded(2);
        let batch = |n: u32| -> Vec<(DriveId, HealthRecord)> {
            (0..n)
                .map(|i| (DriveId(i), HealthRecord { hour: 0, values: [1.0; NUM_ATTRIBUTES] }))
                .collect()
        };
        assert_eq!(queue.offer(batch(10)), Ok(10));
        assert_eq!(queue.offer(batch(5)), Ok(5));
        // Queue full: the whole batch is shed, never split.
        assert_eq!(queue.offer(batch(7)), Err(7));
        let counts = queue.counts();
        assert_eq!(counts.offered_records, 22);
        assert_eq!(counts.accepted_records, 15);
        assert_eq!(counts.shed_records, 7);
        assert_eq!(counts.accepted_records + counts.shed_records, counts.offered_records);
        assert_eq!(counts.accepted_batches, 2);
        assert_eq!(counts.shed_batches, 1);

        // Draining frees capacity and concatenates in arrival order.
        let drained = queue.drain();
        assert_eq!(drained.len(), 15);
        assert_eq!(queue.offer(batch(3)), Ok(3));
        assert_eq!(queue.drain().len(), 3);
        assert!(queue.drain().is_empty());
    }
}
