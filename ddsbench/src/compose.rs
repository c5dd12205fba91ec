//! The traced training composition: the stages of `Analysis::train` /
//! `Analysis::train_incremental`, called one public function at a time so
//! each layer gets its own timer. The gates compare what this produces
//! with the untraced call, so the composition cannot drift from the
//! program it measures.

use crate::util::Ledger;
use dds_cluster::{adjusted_rand_index, Svc, SvcConfig};
use dds_core::categorize::{CategorizationConfig, Categorizer, SvcAgreement};
use dds_core::influence;
use dds_core::pipeline::{ProfileDurations, INFLUENCE_ATTRIBUTES};
use dds_core::predict::WarmPredictStats;
use dds_core::quality;
use dds_core::zscore::all_attribute_z_scores_columns;
use dds_core::{
    AnalysisConfig, AnalysisError, AnalysisReport, DegradationAnalyzer, DegradationPredictor,
    FailureRecordSet, FleetColumns, TrainedModel, TrainingContext,
};
use dds_smartsim::{Attribute, Dataset};
use dds_stats::par::par_map_indexed;
use dds_stats::{BoxplotSummary, Histogram};

/// Layers whose times, plus `*.unattributed_ms`, make up one traced
/// training or refit run.
pub const TRAIN_LAYERS: [&str; 13] = [
    "features.extract_ms",
    "categorize.kmeans_ms",
    "categorize.svc_ms",
    "categorize.warm_ms",
    "columnar.build_ms",
    "degradation.analyze_ms",
    "influence.analyze_ms",
    "zscore.sweep_ms",
    "predict.train_ms",
    "predict.train_warm_ms",
    "model.assemble_ms",
    "model.encode_ms",
    "online.assemble_ms",
];

/// What the composition produced.
pub struct Composed {
    pub model: TrainedModel,
    pub svc: Option<SvcAgreement>,
    pub warm: Option<WarmPredictStats>,
}

/// Runs the analysis stage by stage: cold when `prior` is `None`, warm
/// from `prior` otherwise. The influence and z-score stages, which the
/// program runs concurrently, run one after the other here so each has
/// its own time.
pub fn compose(
    dataset: &Dataset,
    config: &AnalysisConfig,
    prior: Option<&TrainedModel>,
    ctx: &TrainingContext,
    ledger: &mut Ledger,
) -> Result<Composed, AnalysisError> {
    if quality::needs_sanitizing(dataset, &config.quality) {
        return Err(AnalysisError::InvalidConfig(
            "the traced composition covers clean inputs only".to_string(),
        ));
    }
    let par = config.parallelism;
    let profile_durations = profile_durations(dataset)?;
    let failure_records = ledger.time("features.extract_ms", || {
        FailureRecordSet::extract(dataset, config.feature_window_hours.unwrap_or(24))
    })?;
    let attribute_boxplots = par_map_indexed(par, &Attribute::ALL, |_, &attr| {
        let values: Vec<f64> =
            failure_records.failure_records().iter().map(|r| r[attr.index()]).collect();
        Ok((attr, BoxplotSummary::from_values(&values)?))
    })
    .into_iter()
    .collect::<Result<Vec<_>, AnalysisError>>()?;

    let categorization_config =
        CategorizationConfig { parallelism: par, ..config.categorization.clone() };
    let (categorization, svc) = match prior {
        None => {
            let kmeans_only =
                Categorizer::new(CategorizationConfig { run_svc: false, ..categorization_config });
            let categorization = ledger.time("categorize.kmeans_ms", || {
                kmeans_only.categorize(dataset, &failure_records)
            })?;
            let svc = if config.categorization.run_svc {
                ledger.time("categorize.svc_ms", || {
                    svc_sweep(
                        failure_records.scaled_features(),
                        categorization.assignments(),
                        config.categorization.seed,
                    )
                })?
            } else {
                None
            };
            (categorization, svc)
        }
        Some(prior) => {
            let centroids: Vec<Vec<f64>> =
                prior.groups.iter().map(|g| g.centroid.clone()).collect();
            let categorizer = Categorizer::new(categorization_config);
            let categorization = ledger.time("categorize.warm_ms", || {
                categorizer.categorize_warm(dataset, &failure_records, &centroids)
            })?;
            (categorization, None)
        }
    };

    let columns = ledger.time("columnar.build_ms", || FleetColumns::build(dataset, par));
    let degradation = ledger.time("degradation.analyze_ms", || {
        DegradationAnalyzer::new(config.degradation.clone()).analyze_groups_columns(
            &columns,
            &failure_records,
            &categorization,
        )
    })?;
    let influences = ledger.time("influence.analyze_ms", || {
        par_map_indexed(par, &degradation, |_, summary| {
            let group = &categorization.groups()[summary.group_index];
            let drive = dataset.drive(group.centroid_drive).expect("centroid drive exists");
            let attribute = influence::attribute_influence(
                dataset,
                drive,
                &summary.centroid,
                summary.group_index,
                &INFLUENCE_ATTRIBUTES,
            )?;
            let env = influence::env_influence(
                dataset,
                drive,
                &summary.centroid,
                summary.group_index,
                &INFLUENCE_ATTRIBUTES,
            )?;
            Ok((attribute, env))
        })
        .into_iter()
        .collect::<Result<Vec<_>, AnalysisError>>()
    })?;
    let (attribute_influence, env_influence) = influences.into_iter().unzip();
    let z_scores = ledger.time("zscore.sweep_ms", || {
        all_attribute_z_scores_columns(
            &columns,
            &failure_records,
            &categorization,
            &config.zscore,
            par,
        )
    })?;

    let mut prediction_config = config.prediction.clone();
    prediction_config.tree.parallelism = par;
    let predictor = DegradationPredictor::new(prediction_config);
    let (prediction, warm) = match prior {
        None => (
            ledger.time("predict.train_ms", || {
                predictor.train_with_columns(&columns, &categorization, &degradation)
            })?,
            None,
        ),
        Some(prior) => {
            let (report, stats) = ledger.time("predict.train_warm_ms", || {
                predictor.train_with_columns_warm(&columns, &categorization, &degradation, prior)
            })?;
            (report, Some(stats))
        }
    };
    drop(columns);

    let report = AnalysisReport {
        profile_durations,
        attribute_boxplots,
        failure_records,
        categorization,
        degradation,
        attribute_influence,
        env_influence,
        z_scores,
        prediction,
        quality: None,
    };
    let model =
        ledger.time("model.assemble_ms", || TrainedModel::from_report(dataset, &report, ctx));
    Ok(Composed { model, svc, warm })
}

/// The categorizer's SVC cross-check on its own: the seven-gamma sweep
/// over the scaled failure features, keeping the run that agrees best
/// with the K-means grouping.
fn svc_sweep(
    points: &[Vec<f64>],
    assignments: &[usize],
    seed: u64,
) -> Result<Option<SvcAgreement>, AnalysisError> {
    if points.len() < 2 {
        return Ok(None);
    }
    let base = dds_cluster::svc::suggest_gamma(points)?;
    let mut best: Option<SvcAgreement> = None;
    for factor in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let svc =
            Svc::new(SvcConfig::new().with_seed(seed).with_gamma(base * factor)).fit(points)?;
        let ari = adjusted_rand_index(assignments, svc.labels())?;
        if best.as_ref().is_none_or(|b| ari > b.rand_index) {
            best = Some(SvcAgreement { svc_clusters: svc.num_clusters(), rand_index: ari });
        }
    }
    Ok(best)
}

/// The Fig. 1 profile-duration summary, as the pipeline computes it.
fn profile_durations(dataset: &Dataset) -> Result<ProfileDurations, AnalysisError> {
    let durations: Vec<f64> = dataset.failed_drives().map(|d| d.profile_hours() as f64).collect();
    if durations.is_empty() {
        return Err(AnalysisError::UnsuitableDataset("analysis needs failed drives".to_string()));
    }
    let histogram = Histogram::from_values(0.0, 480.0, 10, &durations)?;
    let n = durations.len() as f64;
    Ok(ProfileDurations {
        histogram,
        fraction_over_10_days: durations.iter().filter(|&&h| h > 240.0).count() as f64 / n,
        fraction_full_20_days: durations.iter().filter(|&&h| h >= 480.0).count() as f64 / n,
        mean_records: durations.iter().sum::<f64>() / n,
    })
}

/// The artifact's bytes with the creation stamp cleared: two runs of the
/// same training are byte-identical apart from `created_unix`.
pub fn canonical_bytes(model: &TrainedModel) -> Option<Vec<u8>> {
    let mut model = model.clone();
    model.meta.created_unix = 0;
    model.to_bytes().ok()
}

/// Mean per-group test RMSE of a model (paper Table III).
pub fn rmse_mean(model: &TrainedModel) -> f64 {
    if model.groups.is_empty() {
        return f64::NAN;
    }
    model.groups.iter().map(|g| g.rmse).sum::<f64>() / model.groups.len() as f64
}
