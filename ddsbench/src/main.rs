//! The repository benchmark: three workloads over the shipped defaults of
//! `dds train`, `dds serve` ingest and the `--refit-every` refit-to-promote
//! cycle, timed end to end (untraced) or layer by layer (traced).
//!
//! ```text
//! ddsbench --workload <train-cold|ingest-messy|refit-promote>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` by a child process (`--gen`) that
//! writes them under `.ddsbench-work/` in the working directory; the
//! measuring process only reads them, so its peak resident set is the
//! program's, not the generator's. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). See
//! README.md for what each metric and workload measures.

mod compose;
mod ingest;
mod refit;
mod serving;
mod train;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use util::{Gates, Ledger};

/// Fleet preset every workload runs at.
pub const SCALE: &str = "bench";
/// Serving shards: the shipped `dds serve --shards` default.
pub const SHARDS: usize = 1;
/// Analysis threads: the shipped `--threads` default (0 = every core).
pub const THREADS: usize = 0;
/// Warm starts per run of the serving workloads; `setup_s` is their
/// median (one warm start takes about a millisecond).
pub const WARM_STARTS: usize = 101;

const WORKLOADS: [&str; 3] = ["train-cold", "ingest-messy", "refit-promote"];

/// End-to-end metrics, printed by the untraced run: (name, unit).
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("op_p50_ms", "ms"), ("rmse_mean", "1")];

/// Per-layer metrics, printed by the traced run: (name, unit). A layer a
/// workload does not run reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("features.extract_ms", "ms"),
    ("categorize.kmeans_ms", "ms"),
    ("categorize.svc_ms", "ms"),
    ("categorize.warm_ms", "ms"),
    ("columnar.build_ms", "ms"),
    ("degradation.analyze_ms", "ms"),
    ("influence.analyze_ms", "ms"),
    ("zscore.sweep_ms", "ms"),
    ("predict.train_ms", "ms"),
    ("predict.train_warm_ms", "ms"),
    ("model.assemble_ms", "ms"),
    ("model.encode_ms", "ms"),
    ("model.artifact_bytes", "bytes"),
    ("train.unattributed_ms", "ms"),
    ("train.wall_ms", "ms"),
    ("model.decode_ms", "ms"),
    ("bundle.build_ms", "ms"),
    ("shard.spawn_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.bytes", "bytes"),
    ("queue.offer_drain_ms", "ms"),
    ("shard.ingest_batch_ms", "ms"),
    ("drift.observe_ms", "ms"),
    ("monitor.sanitize_ms", "ms"),
    ("monitor.score_ms", "ms"),
    ("obs.recorder_overhead_ms", "ms"),
    ("ingest.records", "count"),
    ("ingest.batches", "count"),
    ("quality.quarantined", "count"),
    ("quality.imputed_attrs", "count"),
    ("quality.accepted_ratio", "ratio"),
    ("monitor.alerts", "count"),
    ("monitor.drives_tracked", "count"),
    ("ingest.unattributed_ms", "ms"),
    ("ingest.wall_ms", "ms"),
    ("online.observe_ms", "ms"),
    ("online.window_records", "count"),
    ("online.assemble_ms", "ms"),
    ("shard.swap_ms", "ms"),
    ("refit.fallbacks", "count"),
    ("refit.unattributed_ms", "ms"),
    ("refit.wall_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("op.tail_ms", "ms"),
    ("op.records_per_s", "1/s"),
    ("op.samples", "count"),
    ("gates.checked", "count"),
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Gates,
    /// Set-up times in seconds (one per repetition).
    pub setup_s: Vec<f64>,
    /// Timed operations, in groups (one per pass over the stream for
    /// `ingest-messy`, a single group otherwise). Every statistic is
    /// taken per group, and the run reports the median over groups, so
    /// one slow pass cannot move it alone.
    pub groups: Vec<Ops>,
    pub rmse_mean: f64,
    /// Per-layer metrics of the traced run.
    pub layers: Ledger,
}

/// One group of timed operations.
#[derive(Debug, Default)]
pub struct Ops {
    /// Latency of each operation in milliseconds.
    pub ms: Vec<f64>,
    /// Records the operations consumed.
    pub records: u64,
}

impl Ops {
    pub fn push(&mut self, ms: f64, records: u64) {
        self.ms.push(ms);
        self.records += records;
    }

    fn records_per_s(&self) -> f64 {
        self.records as f64 / (self.ms.iter().sum::<f64>() / 1_000.0)
    }
}

impl Outcome {
    /// Records one operation in the current (last) group.
    pub fn op(&mut self, ms: f64, records: u64) {
        if self.groups.is_empty() {
            self.groups.push(Ops::default());
        }
        self.groups.last_mut().expect("a group exists").push(ms, records);
    }

    fn samples(&self) -> usize {
        self.groups.iter().map(|g| g.ms.len()).sum()
    }

    /// The median over groups of a per-group statistic.
    fn across_groups(&self, stat: impl Fn(&Ops) -> f64) -> f64 {
        let per_group: Vec<f64> =
            self.groups.iter().filter(|g| !g.ms.is_empty()).map(stat).collect();
        util::median(&per_group)
    }
}

fn usage() -> String {
    format!(
        "usage: ddsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<(Args, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut gen = None;
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--gen" => gen = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let args = Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    Ok((args, gen))
}

/// The per-run scratch directory for generated inputs, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates the workload's inputs in a child process and waits for it.
fn generate(args: &Args, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = Command::new(exe)
        .args(["--gen", &dir.display().to_string()])
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .status()
        .map_err(|e| format!("cannot start input generation: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generation failed ({status})"))
    }
}

fn run_gen(args: &Args, dir: &Path) -> Result<(), String> {
    match args.workload.as_str() {
        "train-cold" => train::gen(dir, args.seed),
        "ingest-messy" => ingest::gen(dir, args.seed),
        _ => refit::gen(dir, args.seed),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = PathBuf::from(".ddsbench-work");
    let dir = WorkDir(root.join(format!("{}-{}-{}", args.workload, args.seed, std::process::id())));
    std::fs::create_dir_all(&dir.0)
        .map_err(|e| format!("cannot create {}: {e}", dir.0.display()))?;
    generate(args, &dir.0)?;
    let outcome = match args.workload.as_str() {
        "train-cold" => train::run(args, &dir.0),
        "ingest-messy" => ingest::run(args, &dir.0),
        _ => refit::run(args, &dir.0),
    };
    drop(dir);
    let _ = std::fs::remove_dir(&root);
    outcome
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // Non-finite values are not JSON; they can only come from a failed
    // run, which `correct: false` already reports.
    let value = if value.is_finite() { format!("{value}") } else { "null".to_string() };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, gen) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ddsbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = gen {
        return match run_gen(&args, &dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ddsbench --gen: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ddsbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let peak_rss = util::peak_rss_mib();
    outcome.gates.check(peak_rss.is_finite(), || "VmHWM unreadable".to_string());
    outcome.gates.check(outcome.samples() > 0, || "no operation was timed".to_string());
    let correct = outcome.gates.passed();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"provenance\": {{\"git_sha\": \"{}\", \"nproc\": {cores}, \"scale\": \"{SCALE}\", \
         \"seed\": {}, \"threads\": {THREADS}, \"shards\": {SHARDS}, \"workload\": \"{}\", \
         \"trace\": {}, \"seconds\": {}, \"op_samples\": {}, \"op_groups\": {}, \
         \"setup_samples\": {}, \"gates_checked\": {}}}}}",
        util::git_sha(),
        args.seed,
        args.workload,
        u8::from(args.trace),
        args.seconds,
        outcome.samples(),
        outcome.groups.len(),
        outcome.setup_s.len(),
        outcome.gates.checked(),
    );

    for (i, group) in outcome.groups.iter().enumerate() {
        eprintln!(
            "[ddsbench] group {i}: {} operations, min {:.3} ms, median {:.3} ms, \
             tail (p{}) {:.3} ms, max {:.3} ms, {:.0} records/s",
            group.ms.len(),
            util::nearest_rank(&group.ms, 0.0),
            util::median(&group.ms),
            util::tail(&group.ms).1 * 100.0,
            util::tail(&group.ms).0,
            util::nearest_rank(&group.ms, 1.0),
            group.records_per_s(),
        );
    }
    let metrics: Vec<String> = if args.trace {
        // Tail latency and throughput follow host jitter on a shared host
        // (see README.md), so they are reported here and on stderr but
        // gated by no end-to-end bound.
        outcome.layers.add("op.tail_ms", outcome.across_groups(|g| util::tail(&g.ms).0));
        outcome.layers.add("op.records_per_s", outcome.across_groups(Ops::records_per_s));
        outcome.layers.add("op.samples", outcome.samples() as f64);
        outcome.layers.add("gates.checked", outcome.gates.checked() as f64);
        for (name, _) in outcome.layers.entries() {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted layer metric {name}");
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| json_metric(name, outcome.layers.get(name), unit))
            .collect()
    } else {
        let values = [
            util::median(&outcome.setup_s),
            peak_rss,
            outcome.across_groups(|g| util::median(&g.ms)),
            outcome.rmse_mean,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| json_metric(name, value, unit))
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics a run prints are exactly the ones `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn benchmark_json_declares_every_printed_metric() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = dds_obs::json::parse(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|list| list.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let printed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), printed(&END_TO_END));
        assert_eq!(declared("per_layer"), printed(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|list| list.as_array())
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
