//! The serving side both `ingest-messy` and `refit-promote` start from:
//! the prior artifact trained during input generation, and the warm
//! start `dds serve --model` performs before it turns ready.

use crate::util::Ledger;
use crate::{SCALE, SHARDS, THREADS};
use dds_core::{Analysis, AnalysisConfig, TrainedModel, TrainingContext};
use dds_monitor::{
    AlertHistory, DriftBaseline, DriftDetector, IngestQueue, ModelBundle, MonitorConfig,
    ShardedFleetMonitor,
};
use dds_obs::journal::{FlightRecorder, DEFAULT_JOURNAL_CAPACITY};
use dds_smartsim::{FleetConfig, FleetSimulator};
use dds_stats::par::Parallelism;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const PRIOR_FILE: &str = "prior.dds";
/// The shipped `dds serve --ingest-queue` capacity.
const QUEUE_CAPACITY: usize = 256;

/// The analysis configuration `dds train` and `dds serve` ship.
pub fn analysis_config() -> AnalysisConfig {
    AnalysisConfig { parallelism: Parallelism::from_thread_count(THREADS), ..Default::default() }
}

pub fn training_context(seed: u64) -> TrainingContext {
    TrainingContext { seed, scale: SCALE.to_string(), git_sha: crate::util::git_sha() }
}

/// Input generation: trains the serving model on the bench fleet of
/// `seed` (what `dds train --scale bench --seed <seed>` saves) and writes
/// its artifact bytes.
pub fn write_prior(dir: &Path, seed: u64) -> Result<(), String> {
    let training = FleetSimulator::new(FleetConfig::bench_scale().with_seed(seed)).run();
    let (_, model) = Analysis::new(analysis_config())
        .train(&training, &training_context(seed))
        .map_err(|e| format!("prior training failed: {e}"))?;
    let bytes = model.to_bytes().map_err(|e| format!("cannot encode prior: {e}"))?;
    std::fs::write(dir.join(PRIOR_FILE), bytes).map_err(|e| format!("cannot write prior: {e}"))
}

pub fn read_prior(dir: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(dir.join(PRIOR_FILE)).map_err(|e| format!("cannot read prior: {e}"))
}

/// A warm-started serving stack, as `dds serve --model` assembles it.
pub struct Serving {
    pub model: TrainedModel,
    pub bundle: ModelBundle,
    pub monitor: ShardedFleetMonitor,
    pub history: Arc<AlertHistory>,
    pub queue: IngestQueue,
    pub drift: DriftDetector,
}

/// Decodes the artifact, builds the bundle and spawns the shard workers
/// with history (and, when `recorder`, the flight recorder) attached.
/// Returns the set-up time in seconds.
pub fn warm_start(
    bytes: &[u8],
    recorder: bool,
    ledger: &mut Ledger,
) -> Result<(f64, Serving), String> {
    let started = Instant::now();
    let model = ledger
        .time("model.decode_ms", || TrainedModel::from_bytes(bytes))
        .map_err(|e| format!("prior artifact does not load: {e}"))?;
    let bundle = ledger
        .time("bundle.build_ms", || ModelBundle::from_trained(&model))
        .map_err(|e| format!("prior artifact does not build a bundle: {e}"))?;
    let history = Arc::new(AlertHistory::default());
    let mut monitor = ledger.time("shard.spawn_ms", || {
        ShardedFleetMonitor::new(bundle.clone(), MonitorConfig::default(), SHARDS)
    });
    monitor = monitor.with_history(Arc::clone(&history));
    let mut queue = IngestQueue::bounded(QUEUE_CAPACITY);
    if recorder {
        let recorder = Arc::new(FlightRecorder::new(DEFAULT_JOURNAL_CAPACITY));
        queue = queue.with_flight_recorder(Arc::clone(&recorder));
        monitor = monitor.with_flight_recorder(recorder);
    }
    let drift = DriftDetector::new(DriftBaseline::from_bundle(&bundle, 0.0));
    let seconds = started.elapsed().as_secs_f64();
    Ok((seconds, Serving { model, bundle, monitor, history, queue, drift }))
}
