//! Sharded-ingest measurement: sustained records/sec and ingest latency
//! quantiles versus shard count at simulated million-drive scale,
//! emitting a machine-readable `BENCH_ingest.json` so the serving-path
//! trajectory can be tracked across PRs (same contract as
//! `BENCH_parallel.json`).
//!
//! Usage: `cargo run --release -p dds-bench --bin bench_ingest
//! [--test-scale | --paper-scale] [--drives N] [--hours N]
//! [--shards 1,2,4,8] [--out PATH]`
//!
//! `--drives` is the simulated fleet size after tiling (default one
//! million); `--hours` is the number of fleet-hour runs streamed
//! (default 24), sampled evenly across the fleet's lifetime so the
//! stream carries early-life noise and late-life degradation alike.
//!
//! The base fleet is simulated once at the chosen scale and then *tiled*
//! onto disjoint drive-id ranges, hour by hour with a constant stride, to
//! reach `--drives` total drives (default one million) without paying
//! million-drive simulation cost — the same trick as
//! `dds_smartsim::stream::tile_records`, applied per fleet-hour so only
//! one hour's batch is ever resident. Every tiled drive replays a real
//! drive's history bit-identically, so the alert stream is a fixed
//! function of (scale, seed, drives, hours) and the bench can assert the
//! tentpole's core invariant: the merged alert stream is byte-identical
//! at every shard count.
//!
//! The JSON records the host's core count. Shard workers are OS threads,
//! so the records/sec ratio between shard counts is only meaningful when
//! `cores >= shards` — a single-core host reports ~1× regardless (see
//! docs/SCALING.md "Reading BENCH_ingest.json"); CI runs the speedup
//! gate on multi-core runners.

use dds_bench::{Scale, EXPERIMENT_SEED};
use dds_core::categorize::CategorizationConfig;
use dds_core::{Analysis, AnalysisConfig, TrainingContext};
use dds_monitor::{ModelBundle, MonitorConfig, ShardedFleetMonitor};
use dds_smartsim::stream::hour_ordered;
use dds_smartsim::{DriveId, FleetSimulator, HealthRecord};
use std::time::Instant;

/// FNV-1a over the rendered alert lines: a compact byte-identity witness
/// for streams too large to keep around.
fn fingerprint(lines: impl Iterator<Item = String>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for line in lines {
        for byte in line.as_bytes() {
            hash ^= *byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash ^= b'\n' as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

struct Row {
    shards: usize,
    records: u64,
    wall_ms: f64,
    records_per_sec: f64,
    /// Per-record ingest latency quantiles in microseconds, from the
    /// `dds_monitor_ingest_seconds` histogram (summed across shards).
    record_us: [Option<f64>; 3],
    /// Per-batch coordinator latency quantiles in milliseconds, from
    /// `dds_ingest_batch_seconds`.
    batch_ms: [Option<f64>; 3],
    alerts: u64,
    alert_fingerprint: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args();
    let target_drives: u64 =
        arg_value(&args, "--drives").map(|v| v.parse().expect("--drives N")).unwrap_or(1_000_000);
    let hours: usize =
        arg_value(&args, "--hours").map(|v| v.parse().expect("--hours N")).unwrap_or(24);
    let shard_counts: Vec<usize> = arg_value(&args, "--shards")
        .map(|v| v.split(',').map(|s| s.trim().parse().expect("--shards list")).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_ingest.json".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Train once; every shard count serves clones of the same bundle.
    eprintln!("[bench_ingest] training at {} ...", scale.label());
    let training = FleetSimulator::new(scale.fleet_config().with_seed(EXPERIMENT_SEED)).run();
    let analysis_config = AnalysisConfig {
        categorization: CategorizationConfig { run_svc: false, ..Default::default() },
        ..Default::default()
    };
    let (_, model) = Analysis::new(analysis_config)
        .train(&training, &TrainingContext::default())
        .expect("training analysis");
    let bundle = ModelBundle::from_trained(&model).expect("bundle");

    // The live base fleet, split into hour runs (the stream is
    // hour-major; drives sample on offset cadences, so a fleet-hour run
    // holds a rotating subset of the fleet). `--hours` runs are sampled
    // evenly across the fleet's lifetime — per-drive hours still ascend
    // (gaps are normal telemetry), and late-life degradation is
    // represented, so the alert-identity check is not vacuous.
    let live =
        FleetSimulator::new(scale.fleet_config().with_seed(EXPERIMENT_SEED.wrapping_add(1))).run();
    let base_drives = live.drives().len() as u64;
    let records = hour_ordered(&live);
    let mut all_runs: Vec<&[(DriveId, HealthRecord)]> = Vec::new();
    let mut start = 0;
    while start < records.len() {
        let hour = records[start].1.hour;
        let end = start + records[start..].iter().take_while(|(_, r)| r.hour == hour).count();
        all_runs.push(&records[start..end]);
        start = end;
    }
    let step = (all_runs.len() / hours.max(1)).max(1);
    let hour_runs: Vec<&[(DriveId, HealthRecord)]> =
        all_runs.iter().step_by(step).take(hours).copied().collect();

    // Tile each hour run onto disjoint id ranges with one stride for the
    // whole bench, so a tiled drive's history stays ordered across hours
    // (a per-run stride would shift ids whenever a drive drops out).
    let stride = records.iter().map(|(d, _)| d.0).max().unwrap_or(0) + 1;
    let copies = target_drives.div_ceil(base_drives).max(1) as u32;
    let tiled: Vec<Vec<(DriveId, HealthRecord)>> = hour_runs
        .iter()
        .map(|run| {
            let mut batch = Vec::with_capacity(run.len() * copies as usize);
            for copy in 0..copies {
                batch.extend(run.iter().map(|(d, r)| (DriveId(d.0 + copy * stride), r.clone())));
            }
            batch
        })
        .collect();
    let total_records: u64 = tiled.iter().map(|b| b.len() as u64).sum();
    let total_drives = base_drives * copies as u64;
    eprintln!(
        "[bench_ingest] {total_drives} drives ({base_drives} base x {copies} copies), \
         {total_records} records over {} fleet-hours",
        tiled.len()
    );

    let registry = dds_obs::metrics::global();
    let mut rows: Vec<Row> = Vec::new();
    for &shards in &shard_counts {
        registry.reset();
        let mut monitor =
            ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), shards);
        monitor.new_ingest_session();
        let mut alerts = 0u64;
        let mut lines: Vec<String> = Vec::new();
        let started = Instant::now();
        for batch in &tiled {
            for alert in monitor.ingest_batch(batch) {
                alerts += 1;
                lines.push(format!("{alert}"));
            }
        }
        let wall = started.elapsed().as_secs_f64();
        let snapshot = registry.snapshot();
        let quantiles = |name: &str, unit: f64| -> [Option<f64>; 3] {
            let hist = snapshot.histograms.get(name);
            [0.50, 0.95, 0.99]
                .map(|q| hist.and_then(|h| h.quantile(q)).map(|seconds| seconds * unit))
        };
        let row = Row {
            shards,
            records: total_records,
            wall_ms: wall * 1_000.0,
            records_per_sec: total_records as f64 / wall,
            record_us: quantiles("dds_monitor_ingest_seconds", 1_000_000.0),
            batch_ms: quantiles("dds_ingest_batch_seconds", 1_000.0),
            alerts,
            alert_fingerprint: fingerprint(lines.into_iter()),
        };
        eprintln!(
            "[bench_ingest] shards {shards}: {:.0} records/sec, {alerts} alerts, wall {:.1} ms",
            row.records_per_sec, row.wall_ms
        );
        rows.push(row);
    }

    // The tentpole invariant, checked on every run: the merged alert
    // stream must be byte-identical at every shard count.
    let reference = rows.first().expect("at least one shard count");
    for row in &rows {
        assert_eq!(
            (row.alerts, row.alert_fingerprint),
            (reference.alerts, reference.alert_fingerprint),
            "alert stream diverged between {} and {} shards",
            reference.shards,
            row.shards
        );
    }
    eprintln!(
        "[bench_ingest] alert streams identical across shard counts ({} alerts, fp {:016x})",
        reference.alerts, reference.alert_fingerprint
    );

    // Zero-overhead gate for the flight recorder: one more pass at the
    // first shard count with a recorder attached must reproduce the
    // detached fingerprint bit-for-bit and journal exactly one span per
    // batch. (Per-record stage clocks run only on this pass; the timed
    // rows above stay representative of the detached fast path.)
    {
        let recorder =
            std::sync::Arc::new(dds_obs::journal::FlightRecorder::new(tiled.len().max(1)));
        registry.reset();
        let mut monitor =
            ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), shard_counts[0])
                .with_flight_recorder(std::sync::Arc::clone(&recorder));
        monitor.new_ingest_session();
        let mut alerts = 0u64;
        let mut lines: Vec<String> = Vec::new();
        for batch in &tiled {
            for alert in monitor.ingest_batch(batch) {
                alerts += 1;
                lines.push(format!("{alert}"));
            }
        }
        assert_eq!(
            (alerts, fingerprint(lines.into_iter())),
            (reference.alerts, reference.alert_fingerprint),
            "attaching a flight recorder changed the alert stream"
        );
        assert_eq!(recorder.total(), tiled.len() as u64, "one journal span per ingested batch");
        eprintln!(
            "[bench_ingest] flight recorder attached: identical alert stream, {} spans journaled",
            recorder.total()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"seed\": {},\n  \"cores\": {},\n  \"drives\": {},\n  \
         \"base_drives\": {},\n  \"copies\": {},\n  \"hours\": {},\n  \"records\": {},\n  \
         \"alerts_identical\": true,\n  \"rows\": [\n",
        match scale {
            Scale::Test => "test",
            Scale::Bench => "bench",
            Scale::Paper => "paper",
        },
        EXPERIMENT_SEED,
        cores,
        total_drives,
        base_drives,
        copies,
        tiled.len(),
        total_records,
    ));
    let fmt_q = |q: [Option<f64>; 3], keys: [&str; 3]| -> String {
        keys.iter()
            .zip(q)
            .map(|(key, value)| match value {
                Some(v) => format!("\"{key}\": {v:.3}"),
                None => format!("\"{key}\": null"),
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"records\": {}, \"wall_ms\": {:.1}, \
             \"records_per_sec\": {:.0}, {}, {}, \"alerts\": {}, \
             \"alert_fingerprint\": \"{:016x}\", \"speedup_vs_1\": {:.2}}}{}\n",
            row.shards,
            row.records,
            row.wall_ms,
            row.records_per_sec,
            fmt_q(row.record_us, ["record_p50_us", "record_p95_us", "record_p99_us"]),
            fmt_q(row.batch_ms, ["batch_p50_ms", "batch_p95_ms", "batch_p99_ms"]),
            row.alerts,
            row.alert_fingerprint,
            row.records_per_sec / reference.records_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_ingest.json");
    eprintln!("[bench_ingest] wrote {out_path}");
    print!("{json}");
}
