//! `refit-promote`: the `dds serve --refit-every 1` cycle, with every
//! candidate promoted at once.
//!
//! For each `StreamingFleet` epoch the trainer begins the epoch and
//! observes its stream in hourly batches; then the timed operation runs
//! from refit trigger to new model serving:
//!
//! `OnlineTrainer::refit_with(serving model)` → `ModelBundle::from_trained`
//! → `ShardedFleetMonitor::swap_bundle`.
//!
//! The traced run also rebuilds each refit stage by stage through
//! [`compose`], warm-started from the same prior, and requires the same
//! model.

use crate::compose::{canonical_bytes, compose, rmse_mean, TRAIN_LAYERS};
use crate::ingest::hourly;
use crate::serving::{analysis_config, read_prior, training_context, warm_start, write_prior};
use crate::util::{ms, Ledger};
use crate::{Args, Outcome, WARM_STARTS};
use dds_core::{OnlineTrainer, RefitPath};
use dds_monitor::ModelBundle;
use dds_smartsim::{Dataset, DriveId, DriveProfile, FleetConfig, HealthRecord, StreamingFleet};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fewest refits a run times, and the refits of a traced run;
/// `rmse_mean` averages the first this many.
const MIN_REFITS: usize = 3;
/// An untraced run times `REFITS_PER_SECOND × --seconds` refits (at least
/// `MIN_REFITS`): a count fixed by the arguments, so every run takes its
/// median over the same epochs however fast the host is. The rate is what
/// a 2-vCPU host fits: 8 refits in 20 s.
const REFITS_PER_SECOND: f64 = 0.4;

pub fn gen(dir: &Path, seed: u64) -> Result<(), String> {
    write_prior(dir, seed)
}

/// The refit window the trainer assembles from a clean epoch: the
/// manifest's drives in order, each with the records observed for it.
fn assemble_window(
    manifest: &Dataset,
    records: &[(DriveId, HealthRecord)],
) -> Result<Dataset, String> {
    let mut by_drive: BTreeMap<DriveId, Vec<HealthRecord>> = BTreeMap::new();
    for (drive, record) in records {
        by_drive.entry(*drive).or_default().push(record.clone());
    }
    let drives = manifest
        .drives()
        .iter()
        .map(|drive| {
            let profile = DriveProfile::new(
                drive.id(),
                drive.label(),
                by_drive.remove(&drive.id()).unwrap_or_default(),
            );
            match drive.rack() {
                Some(rack) => profile.with_rack(rack),
                None => profile,
            }
        })
        .collect();
    Dataset::new(drives).map_err(|e| format!("refit window: {e}"))
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let prior = read_prior(dir)?;
    let mut out = Outcome::default();
    let mut off = Ledger::new(false);
    for _ in 1..WARM_STARTS {
        let (seconds, _) = warm_start(&prior, true, &mut off)?;
        out.setup_s.push(seconds);
    }
    let (seconds, mut serving) = warm_start(&prior, true, &mut off)?;
    out.setup_s.push(seconds);

    let config = analysis_config();
    let ctx = training_context(args.seed);
    let mut trainer = OnlineTrainer::new(config.clone());
    let mut stream =
        StreamingFleet::new(FleetConfig::bench_scale().with_seed(args.seed.wrapping_add(1)));
    let mut ledger = Ledger::new(args.trace);
    let mut rmse = Vec::new();
    let mut refits = 0usize;
    let mut fallbacks = 0u64;
    let target = if args.trace {
        MIN_REFITS
    } else {
        ((args.seconds * REFITS_PER_SECOND).round() as usize).max(MIN_REFITS)
    };
    while refits < target {
        let (manifest, records) = stream.next_epoch_with_records();
        let observe_started = Instant::now();
        trainer.begin_epoch(&manifest);
        for batch in hourly(&records) {
            trainer.observe_batch(batch);
        }
        ledger.add("online.observe_ms", ms(observe_started.elapsed()));
        ledger.add("online.window_records", trainer.window_records() as f64);

        refits += 1;
        out.attempted += 1;
        let op = Instant::now();
        let result = trainer
            .refit_with(&ctx, Some(&serving.model))
            .map_err(|e| e.to_string())
            .and_then(|outcome| {
                let bundle =
                    ModelBundle::from_trained(&outcome.model).map_err(|e| e.to_string())?;
                serving.monitor.swap_bundle(bundle.clone());
                Ok((outcome, bundle))
            });
        let elapsed = op.elapsed();
        let (outcome, bundle) = match result {
            Ok(done) => done,
            Err(e) => {
                eprintln!("[ddsbench] refit failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        out.op(ms(elapsed), outcome.observed);
        if outcome.path != RefitPath::Incremental {
            out.failed += 1;
            fallbacks += 1;
        }
        out.gates.check(outcome.path == RefitPath::Incremental, || {
            format!("refit {refits} took {:?}, not the incremental path", outcome.path)
        });
        out.gates.check(outcome.live_rmse.is_some_and(f64::is_finite), || {
            format!("refit {refits} produced no live RMSE sample")
        });
        if rmse.len() < MIN_REFITS {
            rmse.push(rmse_mean(&outcome.model));
        }

        if args.trace {
            out.gates.check(outcome.quality.is_none(), || {
                format!(
                    "refit {refits} window needed sanitizing; the composition covers clean ones"
                )
            });
            let traced_started = Instant::now();
            let composed = ledger
                .time("online.assemble_ms", || assemble_window(&manifest, &records))
                .and_then(|window| {
                    compose(&window, &config, Some(&serving.model), &ctx, &mut ledger)
                        .map_err(|e| e.to_string())
                })
                .and_then(|composed| {
                    let bundle = ledger
                        .time("bundle.build_ms", || ModelBundle::from_trained(&composed.model))
                        .map_err(|e| e.to_string())?;
                    ledger.time("shard.swap_ms", || serving.monitor.swap_bundle(bundle));
                    Ok(composed)
                });
            let wall = ms(traced_started.elapsed());
            ledger.add("refit.wall_ms", wall);
            ledger.add("trace.traced_ms", wall);
            ledger.add("trace.untraced_ms", ms(elapsed));
            match composed {
                Ok(composed) => {
                    out.gates.check(
                        canonical_bytes(&composed.model) == canonical_bytes(&outcome.model),
                        || format!("traced composition does not reproduce refit {refits}"),
                    );
                    let live = composed.warm.and_then(|w| w.live_rmse).map(f64::to_bits);
                    out.gates.check(live == outcome.live_rmse.map(f64::to_bits), || {
                        format!("traced composition scores refit {refits}'s prior differently")
                    });
                }
                Err(e) => {
                    out.gates.check(false, || format!("traced composition failed: {e}"));
                }
            }
        }
        // Promote: the candidate is the serving model from here on.
        serving.model = outcome.model;
        serving.bundle = bundle;
    }
    out.rmse_mean = rmse.iter().sum::<f64>() / rmse.len().max(1) as f64;
    out.gates.check(rmse.len() == MIN_REFITS && out.rmse_mean.is_finite(), || {
        format!("{} of {MIN_REFITS} refits produced a model", rmse.len())
    });

    if args.trace {
        // Per-refit means.
        ledger.scale(refits as f64);
        let mut layers: Vec<&str> = TRAIN_LAYERS.to_vec();
        layers.extend(["bundle.build_ms", "shard.swap_ms"]);
        ledger.add("refit.unattributed_ms", ledger.get("refit.wall_ms") - ledger.sum(&layers));
        ledger.add("refit.fallbacks", fallbacks as f64);
        ledger.add(
            "trace.overhead_ms",
            ledger.get("trace.traced_ms") - ledger.get("trace.untraced_ms"),
        );
        out.layers = ledger;
    }
    Ok(out)
}
