//! `ingest-messy`: the `dds serve` ingest path on a faulty stream.
//!
//! The stream is one bench-scale `StreamingFleet` epoch as `dds serve
//! --scale bench` streams it (4,433 drives, about 0.84 M records in 1,344
//! hourly batches), corrupted by `dds_chaos` with
//! `nullattr=0.02,sentinel=0.01,dup=0.01`. These faults keep every
//! record's hour and order, so the batch boundaries are those of the
//! clean stream. Each batch runs, closed loop with one batch in flight,
//! through what serve does with a POSTed DDSB body:
//!
//! `wire::decode_batch` → `IngestQueue::offer`/`drain` →
//! `ShardedFleetMonitor::ingest_batch_from` (history and flight recorder
//! attached, one shard) → `DriftDetector::observe_batch` + `publish`.
//!
//! Encoding a batch is the client's work: input generation encodes every
//! batch into a file, and each pass reads the bodies back one at a time,
//! untimed, so no more than one batch of input is resident.

use crate::serving::{read_prior, warm_start, write_prior, Serving};
use crate::util::{median, ms, Fingerprint, Ledger};
use crate::{Args, Ops, Outcome, WARM_STARTS};
use dds_chaos::{ChaosEngine, ChaosSpec};
use dds_core::quality::QualityStats;
use dds_monitor::wire::{decode_batch, encode_batch};
use dds_monitor::{Alert, FleetMonitor, ModelBundle, MonitorConfig};
use dds_smartsim::stream::hour_ordered;
use dds_smartsim::{DriveId, FleetConfig, FleetSimulator, HealthRecord};
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The corrupted stream: hourly DDSB bodies, each after its length as a
/// little-endian `u64`.
const STREAM_FILE: &str = "stream.bodies";
/// The stream's batch and record counts, as `<batches> <records>`.
const STREAM_COUNTS: &str = "stream.counts";
const CHAOS: &str = "nullattr=0.02,sentinel=0.01,dup=0.01";
/// Fewest full passes over the stream an untraced run makes (the
/// cross-pass gates need two; the median over passes wants three).
const MIN_PASSES: usize = 3;
/// Rounds of the traced run; it reports the median round.
const TRACE_ROUNDS: usize = 5;
/// Layers whose times, plus `ingest.unattributed_ms`, make up the traced
/// set-up and stream.
const INGEST_LAYERS: [&str; 7] = [
    "model.decode_ms",
    "bundle.build_ms",
    "shard.spawn_ms",
    "wire.decode_ms",
    "queue.offer_drain_ms",
    "shard.ingest_batch_ms",
    "drift.observe_ms",
];

type Record = (DriveId, HealthRecord);

/// Splits an hour-ordered stream into its hourly batches.
pub fn hourly(records: &[Record]) -> impl Iterator<Item = &[Record]> {
    records.chunk_by(|a, b| a.1.hour == b.1.hour)
}

/// Input generation: the prior and the corrupted stream.
pub fn gen(dir: &Path, seed: u64) -> Result<(), String> {
    write_prior(dir, seed)?;
    let live =
        FleetSimulator::new(FleetConfig::bench_scale().with_seed(seed.wrapping_add(1))).run();
    let clean = hour_ordered(&live);
    let spec: ChaosSpec = CHAOS.parse().map_err(|e| format!("chaos spec: {e:?}"))?;
    let engine = ChaosEngine::new(spec, dds_stats::par::stream_seed(seed, 0xC4A0));
    let (messy, _) = engine.corrupt_stream(0, &clean);
    let batches = hourly(&messy).count();
    if batches != hourly(&clean).count() {
        return Err("chaos moved records across hourly batches".to_string());
    }
    let write_error = |e: std::io::Error| format!("cannot write stream: {e}");
    let mut writer = BufWriter::new(File::create(dir.join(STREAM_FILE)).map_err(write_error)?);
    for batch in hourly(&messy) {
        let body = encode_batch(batch);
        writer.write_all(&(body.len() as u64).to_le_bytes()).map_err(write_error)?;
        writer.write_all(&body).map_err(write_error)?;
    }
    writer.flush().map_err(write_error)?;
    std::fs::write(dir.join(STREAM_COUNTS), format!("{batches} {}", messy.len()))
        .map_err(write_error)
}

/// The generated inputs: the prior's bytes and the stream on disk. The
/// stream is read one body at a time, so the measuring process never
/// holds more than one batch of input.
struct Inputs {
    prior: Vec<u8>,
    stream: PathBuf,
    batches: u64,
    records: u64,
}

impl Inputs {
    fn load(dir: &Path) -> Result<Inputs, String> {
        let prior = read_prior(dir)?;
        let counts = std::fs::read_to_string(dir.join(STREAM_COUNTS))
            .map_err(|e| format!("stream counts: {e}"))?;
        let mut fields = counts.split_whitespace().map(str::parse::<u64>);
        let (Some(Ok(batches)), Some(Ok(records)), None) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("stream counts: malformed {counts:?}"));
        };
        Ok(Inputs { prior, stream: dir.join(STREAM_FILE), batches, records })
    }

    /// The stream's DDSB bodies in order, read from disk as they are asked for.
    fn bodies(&self) -> Result<Bodies, String> {
        let file = File::open(&self.stream).map_err(|e| format!("stream: {e}"))?;
        Ok(Bodies(BufReader::new(file)))
    }
}

/// Iterator over the length-prefixed bodies of the stream file.
struct Bodies(BufReader<File>);

impl Iterator for Bodies {
    type Item = Result<Vec<u8>, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut len = [0u8; 8];
        match self.0.read_exact(&mut len) {
            Ok(()) => {}
            // A short stream is caught by the batch-count gate.
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => return None,
            Err(e) => return Some(Err(format!("stream: {e}"))),
        }
        let Ok(len) = usize::try_from(u64::from_le_bytes(len)) else {
            return Some(Err("stream: body length overflows".to_string()));
        };
        let mut body = vec![0u8; len];
        Some(self.0.read_exact(&mut body).map(|()| body).map_err(|e| format!("stream: {e}")))
    }
}

/// What one pass over the stream produced.
#[derive(Debug, Default)]
struct Pass {
    batch_ms: Vec<f64>,
    /// Batches read from the stream, rejected ones included.
    batches: u64,
    records: u64,
    alerts: u64,
    fingerprint: u64,
    quality: QualityStats,
    drives_tracked: usize,
    history_total: u64,
    rejected: u64,
    shed: u64,
    mismatched: u64,
}

impl Pass {
    fn witness(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.alerts,
            self.fingerprint,
            self.quality.quarantined,
            self.quality.imputed_attrs,
            self.quality.accepted,
        )
    }
}

fn fold_alerts(fingerprint: &mut Fingerprint, alerts: &[Alert]) {
    for alert in alerts {
        fingerprint.line(&alert.to_string());
    }
}

/// One closed-loop pass over every batch through the serving stack.
fn serve_pass(inputs: &Inputs, serving: &mut Serving, ledger: &mut Ledger) -> Result<Pass, String> {
    let registry = dds_obs::metrics::global();
    let traced = ledger.is_on();
    let mut pass = Pass::default();
    let mut fingerprint = Fingerprint::default();
    for (b, body) in inputs.bodies()?.enumerate() {
        let body = body?;
        pass.batches += 1;
        let decode_started = Instant::now();
        let decoded = decode_batch(&body);
        let decoded_at = Instant::now();
        let decoded = match decoded {
            Ok(decoded) => decoded,
            Err(e) => {
                eprintln!("[ddsbench] batch {b} rejected: {e}");
                pass.rejected += 1;
                continue;
            }
        };
        // The codec is a fixed-width little-endian layout, so a decoded
        // batch equals the generated one bit for bit exactly when it
        // re-encodes to the same body.
        if encode_batch(&decoded) != body {
            pass.mismatched += 1;
        }
        let queue_started = Instant::now();
        if serving.queue.offer(decoded).is_err() {
            pass.shed += 1;
        }
        let batch = serving.queue.drain();
        let ingest_started = traced.then(Instant::now);
        let alerts = serving.monitor.ingest_batch_from(&batch, "external");
        let drift_started = traced.then(Instant::now);
        serving.drift.observe_batch(&batch);
        serving.drift.publish(registry);
        let done = Instant::now();

        let decode = ms(decoded_at - decode_started);
        pass.batch_ms.push(decode + ms(done - queue_started));
        if let (Some(ingest_started), Some(drift_started)) = (ingest_started, drift_started) {
            ledger.add("wire.decode_ms", decode);
            ledger.add("wire.bytes", body.len() as f64);
            ledger.add("queue.offer_drain_ms", ms(ingest_started - queue_started));
            ledger.add("shard.ingest_batch_ms", ms(drift_started - ingest_started));
            ledger.add("drift.observe_ms", ms(done - drift_started));
        }
        pass.records += batch.len() as u64;
        pass.alerts += alerts.len() as u64;
        fold_alerts(&mut fingerprint, &alerts);
    }
    pass.fingerprint = fingerprint.value();
    pass.quality = serving.monitor.quality_stats();
    pass.drives_tracked = serving.monitor.health_status().drives_tracked;
    pass.history_total = serving.history.total();
    Ok(pass)
}

/// The same batches through one unsharded `FleetMonitor`, with the
/// quality gate and the scoring timed apart. The coordinator's merge
/// (a stable sort on hour and drive) orders the alerts.
fn unsharded_pass(
    inputs: &Inputs,
    bundle: &ModelBundle,
    ledger: &mut Ledger,
) -> Result<Pass, String> {
    let mut monitor =
        FleetMonitor::new(bundle.clone(), MonitorConfig::default()).with_quiet_gauges();
    let mut pass = Pass::default();
    let mut fingerprint = Fingerprint::default();
    for body in inputs.bodies()? {
        let batch = decode_batch(&body?).map_err(|e| format!("stream: {e}"))?;
        pass.batches += 1;
        let admitted: Vec<Option<HealthRecord>> = ledger.time("monitor.sanitize_ms", || {
            batch.iter().map(|(drive, record)| monitor.sanitize(*drive, record).ok()).collect()
        });
        let mut alerts = ledger.time("monitor.score_ms", || {
            let mut alerts = Vec::new();
            for ((drive, _), cleaned) in batch.iter().zip(&admitted) {
                if let Some(cleaned) = cleaned {
                    alerts.append(&mut monitor.ingest_sanitized(*drive, cleaned));
                }
            }
            alerts
        });
        alerts.sort_by_key(|alert| (alert.hour, alert.drive.0));
        pass.records += batch.len() as u64;
        pass.alerts += alerts.len() as u64;
        fold_alerts(&mut fingerprint, &alerts);
    }
    pass.fingerprint = fingerprint.value();
    pass.quality = *monitor.quality_stats();
    pass.drives_tracked = monitor.drives_tracked();
    Ok(pass)
}

/// Gates every pass must pass on its own.
fn check_pass(out: &mut Outcome, pass: &Pass, inputs: &Inputs, label: &str) {
    out.gates.check(pass.mismatched == 0, || {
        format!("{label}: {} decoded batches differ from the generated ones", pass.mismatched)
    });
    out.gates.check(pass.batches == inputs.batches, || {
        format!("{label}: {} batches read of {} generated", pass.batches, inputs.batches)
    });
    out.gates.check(pass.records == inputs.records, || {
        format!("{label}: {} records ingested of {} generated", pass.records, inputs.records)
    });
    out.gates.check(pass.history_total == pass.alerts, || {
        format!("{label}: history holds {} of {} alerts", pass.history_total, pass.alerts)
    });
    out.gates.check(pass.quality.quarantined > 0 && pass.quality.imputed_attrs > 0, || {
        format!("{label}: the stream is not messy (no quarantine or imputation)")
    });
    out.gates.check(pass.alerts > 0, || format!("{label}: no alerts raised"));
}

fn account(out: &mut Outcome, pass: &Pass) {
    out.attempted += pass.batch_ms.len() as u64 + pass.rejected;
    out.failed += pass.rejected + pass.shed;
    out.groups.push(Ops { ms: pass.batch_ms.clone(), records: pass.records });
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::load(dir)?;
    let mut out = Outcome::default();
    let mut off = Ledger::new(false);
    let mut passes: Vec<Pass> = Vec::new();

    if !args.trace {
        for _ in 1..WARM_STARTS {
            let (seconds, _) = warm_start(&inputs.prior, true, &mut off)?;
            out.setup_s.push(seconds);
        }
        let started = Instant::now();
        while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
            let (seconds, mut serving) = warm_start(&inputs.prior, true, &mut off)?;
            out.setup_s.push(seconds);
            out.rmse_mean = crate::compose::rmse_mean(&serving.model);
            let pass = serve_pass(&inputs, &mut serving, &mut off)?;
            check_pass(&mut out, &pass, &inputs, "pass");
            account(&mut out, &pass);
            passes.push(pass);
        }
    } else {
        // Each round: an untraced reference pass, the traced pass, the
        // same stack without the flight recorder, the unsharded replay.
        let mut rounds: Vec<Ledger> = Vec::new();
        for _ in 0..TRACE_ROUNDS {
            let (reference_setup, mut serving) = warm_start(&inputs.prior, true, &mut off)?;
            let reference = serve_pass(&inputs, &mut serving, &mut off)?;
            drop(serving);
            out.setup_s.push(reference_setup);
            account(&mut out, &reference);
            check_pass(&mut out, &reference, &inputs, "reference pass");

            let mut ledger = Ledger::new(true);
            let (traced_setup, mut serving) = warm_start(&inputs.prior, true, &mut ledger)?;
            let traced = serve_pass(&inputs, &mut serving, &mut ledger)?;
            let bundle = serving.bundle.clone();
            drop(serving);
            out.attempted += traced.batch_ms.len() as u64;
            out.failed += traced.rejected + traced.shed;
            check_pass(&mut out, &traced, &inputs, "traced pass");

            let mut bare_ledger = Ledger::new(true);
            let (_, mut bare) = warm_start(&inputs.prior, false, &mut bare_ledger)?;
            let unrecorded = serve_pass(&inputs, &mut bare, &mut bare_ledger)?;
            drop(bare);
            check_pass(&mut out, &unrecorded, &inputs, "pass without recorder");

            let unsharded = unsharded_pass(&inputs, &bundle, &mut ledger)?;
            out.gates.check(unsharded.witness() == reference.witness(), || {
                format!(
                    "unsharded replay differs from the sharded stream: {:?} vs {:?}",
                    unsharded.witness(),
                    reference.witness()
                )
            });
            out.gates.check(unsharded.drives_tracked == reference.drives_tracked, || {
                "unsharded replay tracks a different drive count".to_string()
            });

            ledger.add(
                "obs.recorder_overhead_ms",
                ledger.get("shard.ingest_batch_ms") - bare_ledger.get("shard.ingest_batch_ms"),
            );
            ledger.add("ingest.records", traced.records as f64);
            ledger.add("ingest.batches", traced.batch_ms.len() as f64);
            ledger.add("quality.quarantined", traced.quality.quarantined as f64);
            ledger.add("quality.imputed_attrs", traced.quality.imputed_attrs as f64);
            ledger.add(
                "quality.accepted_ratio",
                traced.quality.accepted as f64 / traced.quality.ingested.max(1) as f64,
            );
            ledger.add("monitor.alerts", traced.alerts as f64);
            ledger.add("monitor.drives_tracked", traced.drives_tracked as f64);
            let wall = traced_setup * 1_000.0 + traced.batch_ms.iter().sum::<f64>();
            ledger.add("ingest.wall_ms", wall);
            ledger.add("ingest.unattributed_ms", wall - ledger.sum(&INGEST_LAYERS));
            ledger.add("trace.traced_ms", wall);
            ledger.add(
                "trace.untraced_ms",
                reference_setup * 1_000.0 + reference.batch_ms.iter().sum::<f64>(),
            );
            rounds.push(ledger);
            passes.extend([reference, traced, unrecorded]);
        }
        // Report the round with the median traced wall time, so its layers
        // still add up to its wall; the comparisons across passes
        // (recorder, tracing, sanitize/score split) take the median over
        // rounds.
        rounds.sort_by(|a, b| a.get("ingest.wall_ms").total_cmp(&b.get("ingest.wall_ms")));
        let median_over_rounds =
            |name: &str| median(&rounds.iter().map(|r| r.get(name)).collect::<Vec<_>>());
        let mut layers = Ledger::new(true);
        for (name, value) in rounds[rounds.len() / 2].entries() {
            let value = match name {
                "obs.recorder_overhead_ms"
                | "monitor.sanitize_ms"
                | "monitor.score_ms"
                | "trace.untraced_ms" => median_over_rounds(name),
                _ => value,
            };
            layers.add(name, value);
        }
        layers.add(
            "trace.overhead_ms",
            layers.get("trace.traced_ms") - layers.get("trace.untraced_ms"),
        );
        out.layers = layers;
    }

    // Every pass starts from a fresh warm start, so every pass must raise
    // the identical alert stream and quarantine the identical records.
    if let Some(first) = passes.first() {
        for pass in &passes[1..] {
            out.gates.check(pass.witness() == first.witness(), || {
                format!("passes disagree: {:?} vs {:?}", pass.witness(), first.witness())
            });
        }
        eprintln!(
            "[ddsbench] ingest-messy: {} batches, {} records, {} alerts (fp {:016x}), \
             {} quarantined, {} attrs imputed, {} drives tracked, {} passes",
            first.batch_ms.len(),
            first.records,
            first.alerts,
            first.fingerprint,
            first.quality.quarantined,
            first.quality.imputed_attrs,
            first.drives_tracked,
            passes.len(),
        );
    }
    Ok(out)
}
