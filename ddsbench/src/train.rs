//! `train-cold`: `dds train --input fleet.csv --save-model` on the
//! bench-scale fleet with the shipped defaults (SVC on, every core).
//!
//! * set-up — `read_csv` of the fleet file (the `--input` load);
//! * operation — `Analysis::train` + `TrainedModel::to_bytes`;
//! * traced — the stages one by one through [`compose`], which must
//!   reproduce the untraced artifact bytes and SVC agreement.

use crate::compose::{canonical_bytes, compose, rmse_mean, TRAIN_LAYERS};
use crate::serving::analysis_config;
use crate::util::{ms, Ledger};
use crate::{Args, Outcome};
use dds_core::{Analysis, TrainedModel, TrainingContext};
use dds_smartsim::io::{read_csv, write_csv};
use dds_smartsim::{FleetConfig, FleetSimulator};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const FLEET_CSV: &str = "fleet.csv";
/// An SVC agreement as comparable bits: (clusters, adjusted Rand index).
type SvcWitness = (usize, u64);

/// Set-up repetitions; `setup_s` is their median.
const CSV_LOADS: usize = 5;
/// Fewest trainings an untraced run times, however short `--seconds`.
const MIN_OPS: usize = 3;

pub fn gen(dir: &Path, seed: u64) -> Result<(), String> {
    let fleet = FleetSimulator::new(FleetConfig::bench_scale().with_seed(seed)).run();
    let path = dir.join(FLEET_CSV);
    let mut writer = BufWriter::new(
        File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
    );
    write_csv(&fleet, &mut writer).map_err(|e| format!("cannot write fleet csv: {e}"))?;
    writer.flush().map_err(|e| format!("cannot write fleet csv: {e}"))
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = dir.join(FLEET_CSV);
    let mut dataset = None;
    for _ in 0..CSV_LOADS {
        // Drop the previous load first: one dataset resident, as in `dds train`.
        drop(dataset.take());
        let started = Instant::now();
        let file = File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        dataset = Some(read_csv(file).map_err(|e| format!("cannot read fleet csv: {e}"))?);
        out.setup_s.push(started.elapsed().as_secs_f64());
    }
    let dataset = dataset.expect("at least one load");
    let records: u64 = dataset.drives().iter().map(|d| d.records().len() as u64).sum();
    out.gates.check(dataset.drives().len() == 4_433, || {
        format!("bench fleet has {} drives, expected 4433", dataset.drives().len())
    });

    let ctx = TrainingContext {
        seed: args.seed,
        scale: format!("csv:{FLEET_CSV}"),
        git_sha: crate::util::git_sha(),
    };
    let config = analysis_config();
    let analysis = Analysis::new(config.clone());
    // The traced run times two untraced trainings and takes the second,
    // warm one as the reference its overhead is measured against.
    let min_ops = if args.trace { 2 } else { MIN_OPS };
    // Canonical artifact bytes and (SVC clusters, ARI bits) of the first training.
    let mut reference: Option<(Vec<u8>, Option<SvcWitness>)> = None;
    let started = Instant::now();
    while out.attempted < min_ops as u64
        || (!args.trace && started.elapsed().as_secs_f64() < args.seconds)
    {
        out.attempted += 1;
        let op = Instant::now();
        let result = analysis.train(&dataset, &ctx).map_err(|e| e.to_string()).and_then(
            |(report, model)| {
                let bytes = model.to_bytes().map_err(|e| e.to_string())?;
                Ok((report, model, bytes))
            },
        );
        let elapsed = op.elapsed();
        let (report, model, bytes) = match result {
            Ok(trained) => trained,
            Err(e) => {
                eprintln!("[ddsbench] training failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        out.op(ms(elapsed), records);

        let canonical = canonical_bytes(&model);
        let decoded = TrainedModel::from_bytes(&bytes).ok();
        out.gates.check(
            canonical.is_some() && decoded.as_ref().and_then(canonical_bytes) == canonical,
            || "artifact does not round-trip through from_bytes".to_string(),
        );
        let groups = report.categorization.num_groups();
        out.gates.check(groups > 0 && model.groups.len() == groups, || {
            format!("model carries {} groups for {groups} categories", model.groups.len())
        });
        let svc =
            report.categorization.svc_agreement().map(|s| (s.svc_clusters, s.rand_index.to_bits()));
        out.gates.check(svc.is_some(), || "SVC cross-check did not run".to_string());
        let canonical = canonical.unwrap_or_default();
        match &reference {
            None => {
                out.rmse_mean = rmse_mean(&model);
                out.gates.check(out.rmse_mean.is_finite() && out.rmse_mean > 0.0, || {
                    format!("mean RMSE {} is not a positive number", out.rmse_mean)
                });
                reference = Some((canonical, svc));
            }
            Some((first, first_svc)) => {
                out.gates.check(*first == canonical && *first_svc == svc, || {
                    "training is not deterministic across repetitions".to_string()
                });
            }
        }
    }

    if args.trace {
        let Some((reference_bytes, reference_svc)) = reference else {
            return Ok(out);
        };
        let mut ledger = Ledger::new(true);
        out.attempted += 1;
        let started = Instant::now();
        let composed = compose(&dataset, &config, None, &ctx, &mut ledger)
            .map_err(|e| e.to_string())
            .and_then(|composed| {
                let bytes = ledger
                    .time("model.encode_ms", || composed.model.to_bytes())
                    .map_err(|e| e.to_string())?;
                Ok((composed, bytes))
            });
        let wall = ms(started.elapsed());
        match composed {
            Ok((composed, bytes)) => {
                ledger.add("model.artifact_bytes", bytes.len() as f64);
                out.gates.check(canonical_bytes(&composed.model) == Some(reference_bytes), || {
                    "traced composition does not reproduce Analysis::train's artifact".to_string()
                });
                let svc = composed.svc.map(|s| (s.svc_clusters, s.rand_index.to_bits()));
                out.gates.check(svc == reference_svc, || {
                    "traced SVC sweep does not reproduce the categorizer's agreement".to_string()
                });
            }
            Err(e) => {
                out.failed += 1;
                out.gates.check(false, || format!("traced composition failed: {e}"));
            }
        }
        ledger.add("train.wall_ms", wall);
        ledger.add("train.unattributed_ms", wall - ledger.sum(&TRAIN_LAYERS));
        let untraced = out.groups.last().and_then(|g| g.ms.last()).copied().unwrap_or(f64::NAN);
        ledger.add("trace.traced_ms", wall);
        ledger.add("trace.untraced_ms", untraced);
        ledger.add("trace.overhead_ms", wall - untraced);
        out.layers = ledger;
    }
    Ok(out)
}
