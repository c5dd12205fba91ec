//! Degradation prediction (§V-B, Fig. 13, Table III) and the §II-C
//! baseline detectors.
//!
//! For each failure group a regression tree is trained to predict the
//! *degradation value* of a health sample: good samples get target `1`,
//! failed samples get the group signature `s(t)` (Eqs. 3/4/6 with the
//! group's window size), clamped to `[-1, 1]`. Samples are mixed with
//! 10× good records and split 70/30, exactly as the paper describes.
//! Accuracy is reported as RMSE and as an error rate (RMSE over the
//! target range of 2), matching Table III.
//!
//! Two classic whole-disk detectors are provided as baselines: the
//! conservative vendor threshold test (3–10% FDR at ~0.1% FAR in the
//! paper's telling) and the Wilcoxon rank-sum detector of Hughes et al.

use crate::categorize::{Categorization, FailureGroup};
use crate::columnar::FleetColumns;
use crate::degradation::GroupDegradation;
use crate::error::AnalysisError;
use crate::model::TrainedModel;
use dds_regtree::{FitScratch, RegressionTree, TreeConfig};
use dds_smartsim::{Attribute, Dataset, NUM_ATTRIBUTES};
use dds_stats::hypothesis::rank_sum_test;
use dds_stats::{rmse, ColMatrix, SignatureModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Configuration for [`DegradationPredictor`].
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionConfig {
    /// Good samples mixed in per failed sample (paper: 10×).
    pub good_sample_ratio: f64,
    /// Fraction of the mixed dataset used for training (paper: 70%).
    pub train_fraction: f64,
    /// Per-group degradation-window override for the target signature
    /// (paper: 12 / 380 / 24). `None` uses each group's median extracted
    /// window.
    pub fixed_windows: Option<Vec<f64>>,
    /// Regression-tree hyper-parameters.
    pub tree: TreeConfig,
    /// RNG seed for sampling and the split.
    pub seed: u64,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        PredictionConfig {
            good_sample_ratio: 10.0,
            train_fraction: 0.7,
            fixed_windows: None,
            tree: TreeConfig::default(),
            seed: 0x93ED,
        }
    }
}

/// Good-row budget of the warm (incremental) train split, as a multiple
/// of the split's failed rows. The paper's 10× good mix is kept for
/// sample assembly and for the test split — so reported RMSE stays
/// comparable to cold training — but the warm tree fits on a 1.5× mix,
/// which is where the incremental refit's predict-stage speedup comes
/// from (tree-fit cost is roughly linear in train rows, so the thinning
/// buys ~(1+10)/(1+1.5) ≈ 4.4× on the fit). The mix is set to keep the
/// chaos-seed RMSE inflation comfortably inside the tolerance suite's
/// absolute budget (`tests/online_learning.rs`); thinning further starts
/// to eat that headroom without a matching latency win.
pub const WARM_GOOD_TRAIN_RATIO: f64 = 1.5;

/// Byproduct of [`DegradationPredictor::train_with_columns_warm`]: the
/// live RMSE sample for the drift channel.
#[derive(Debug, Clone, Default)]
pub struct WarmPredictStats {
    /// Mean RMSE of the *prior* model's trees over the warm test splits
    /// (the live half of the RMSE drift comparison); `None` when no prior
    /// group index matched the window's groups.
    pub live_rmse: Option<f64>,
}

/// Trained predictor and its Table III accuracy for one group.
#[derive(Debug, Clone)]
pub struct GroupPrediction {
    /// Paper-order group index.
    pub group_index: usize,
    /// The signature used to label failed samples.
    pub signature: SignatureModel,
    /// The trained regression tree (Fig. 13 for Group 1).
    pub tree: RegressionTree,
    /// Test-set RMSE (Table III row 1).
    pub rmse: f64,
    /// `rmse / 2` — the error rate over the `[-1, 1]` target range
    /// (Table III row 2).
    pub error_rate: f64,
    /// Training-set size.
    pub train_samples: usize,
    /// Test-set size.
    pub test_samples: usize,
}

impl GroupPrediction {
    /// Predicts the degradation value for a normalized 12-attribute record.
    ///
    /// # Panics
    ///
    /// Panics if the record does not have 12 values.
    pub fn predict(&self, normalized_record: &[f64]) -> f64 {
        self.tree.predict(normalized_record)
    }

    /// Renders the tree with the attribute symbols (Fig. 13).
    pub fn render_tree(&self) -> String {
        let names: Vec<&str> = Attribute::ALL.iter().map(|a| a.symbol()).collect();
        self.tree.render(&names)
    }
}

/// Per-group degradation predictors (Table III).
#[derive(Debug, Clone)]
pub struct PredictionReport {
    /// One prediction per group, paper order.
    pub groups: Vec<GroupPrediction>,
}

/// Trains per-group degradation predictors.
#[derive(Debug, Clone, Default)]
pub struct DegradationPredictor {
    config: PredictionConfig,
}

impl DegradationPredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: PredictionConfig) -> Self {
        DegradationPredictor { config }
    }

    /// Trains and evaluates a predictor for every group against
    /// column-major fleet storage: failed samples are gathered from the
    /// per-attribute columns, good samples are read from the fleet's good
    /// pool, and the trees fit with [`RegressionTree::fit_columns`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidConfig`] for out-of-range fractions
    /// and [`AnalysisError::UnsuitableDataset`] when a group has no usable
    /// samples; propagates tree-training errors.
    pub fn train_with_columns(
        &self,
        columns: &FleetColumns,
        categorization: &Categorization,
        degradation: &[GroupDegradation],
    ) -> Result<PredictionReport, AnalysisError> {
        Ok(self.train_groups(columns, categorization, degradation, None)?.0)
    }

    /// [`train_with_columns`](Self::train_with_columns) warm-started from
    /// a prior model — the predict half of the incremental refit path.
    ///
    /// Sample assembly, the shuffled 70/30 split and the *test* side are
    /// identical to the cold path (same RNG draws, same held-out rows, so
    /// the reported RMSE is directly comparable to a cold train on the
    /// same window). The asymmetry is on the *train* side: good rows in
    /// the train split are thinned to [`WARM_GOOD_TRAIN_RATIO`] × the
    /// split's failed rows (the shuffle already randomized which survive),
    /// cutting tree-fit cost by roughly the good-sample ratio while the
    /// failed rows — the ones carrying the degradation signature — are
    /// all kept. The quality cost of the thinning is pinned by the
    /// tolerance suite in `tests/online_learning.rs`.
    ///
    /// As a free by-product, every matched prior tree is scored on the
    /// same test split, yielding the live half of the RMSE drift channel
    /// without a second assembly pass.
    ///
    /// # Errors
    ///
    /// Same contract as [`train_with_columns`](Self::train_with_columns).
    pub fn train_with_columns_warm(
        &self,
        columns: &FleetColumns,
        categorization: &Categorization,
        degradation: &[GroupDegradation],
        prior: &TrainedModel,
    ) -> Result<(PredictionReport, WarmPredictStats), AnalysisError> {
        self.train_groups(columns, categorization, degradation, Some(prior))
    }

    /// The one trainer behind both public entry points. Without a prior
    /// it is the cold §V-B trainer; with one it thins the good rows of
    /// every train split and scores the prior's trees on the test split.
    /// Either way the RNG draws, the split and the test rows are the same.
    pub(crate) fn train_groups(
        &self,
        columns: &FleetColumns,
        categorization: &Categorization,
        degradation: &[GroupDegradation],
        prior: Option<&TrainedModel>,
    ) -> Result<(PredictionReport, WarmPredictStats), AnalysisError> {
        self.validate_config()?;
        let _span = dds_obs::span!(
            dds_obs::Level::Debug,
            if prior.is_some() { "predict.train_warm" } else { "predict.train" },
            groups = categorization.num_groups(),
            train_fraction = self.config.train_fraction,
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let good_pool = {
            let _span = dds_obs::span!(dds_obs::Level::Debug, "predict.good_pool",);
            columns.finite_good_pool()
        };

        // Per-group working memory, allocated once and recycled across the
        // loop. Freeing the multi-megabyte sample/train buffers after every
        // group lets glibc's main arena trim the heap back to the OS, and
        // the next group then refaults (and kernel-zeroes) every page;
        // reuse keeps the pages hot. Worker-thread fits get the same effect
        // for free from their per-thread arenas — this closes the gap for
        // the sequential path.
        let mut samples = Samples::new(&good_pool);
        let mut order: Vec<usize> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        let mut train_cols: Vec<Vec<f64>> = vec![Vec::new(); NUM_ATTRIBUTES];
        let mut train_y: Vec<f64> = Vec::new();
        let mut test_flat: Vec<f64> = Vec::new();
        let mut test_y: Vec<f64> = Vec::new();
        let mut fit_scratch = FitScratch::default();

        let mut live_total = 0.0;
        let mut live_matched = 0usize;
        let mut groups = Vec::with_capacity(categorization.num_groups());
        for group in categorization.groups() {
            let signature = self.group_signature(group, degradation)?;
            {
                let _span =
                    dds_obs::span!(dds_obs::Level::Debug, "predict.assemble", group = group.index,);
                self.assemble(columns, group, &signature, &mut rng, &mut samples)?;
            }
            let n = samples.len();

            // Shuffled 70/30 split.
            let _span =
                dds_obs::span!(dds_obs::Level::Debug, "predict.split_gather", group = group.index,);
            order.clear();
            order.extend(0..n);
            order.shuffle(&mut rng);
            let cut = ((n as f64) * self.config.train_fraction).round() as usize;
            let cut = cut.clamp(1, n - 1);
            let (train_idx, test_idx) = order.split_at(cut);
            let train_idx = match prior {
                Some(_) => {
                    thin_good_rows(train_idx, samples.failed.len(), &mut kept);
                    kept.as_slice()
                }
                None => train_idx,
            };
            // One read per sample row — a good row is one contiguous pool
            // entry — fanned out into the twelve train columns.
            for col in &mut train_cols {
                col.clear();
                col.reserve(train_idx.len());
            }
            train_y.clear();
            train_y.reserve(train_idx.len());
            for &i in train_idx {
                for (col, &v) in train_cols.iter_mut().zip(samples.row(i)) {
                    col.push(v);
                }
                train_y.push(samples.label(i));
            }
            let train_x = ColMatrix::from_columns(std::mem::take(&mut train_cols))?;
            // Test rows are only read once for scoring — gather them into
            // one flat row-major buffer.
            test_flat.clear();
            test_flat.reserve(test_idx.len() * NUM_ATTRIBUTES);
            test_y.clear();
            test_y.reserve(test_idx.len());
            for &i in test_idx {
                test_flat.extend_from_slice(samples.row(i));
                test_y.push(samples.label(i));
            }
            let test_x: Vec<&[f64]> = test_flat.chunks_exact(NUM_ATTRIBUTES).collect();
            drop(_span);

            // Live half of the RMSE drift channel: the prior (serving)
            // tree scored on exactly the rows the fresh tree is tested on.
            if let Some(prior_group) =
                prior.and_then(|p| p.groups.iter().find(|g| g.group_index == group.index))
            {
                live_total += rmse(&prior_group.tree.predict_batch_ref(&test_x), &test_y)?;
                live_matched += 1;
            }

            let tree = RegressionTree::fit_columns_with_scratch(
                &train_x,
                &train_y,
                &self.config.tree,
                &mut fit_scratch,
            )?;
            let predictions = tree.predict_batch_ref(&test_x);
            let test_rmse = rmse(&predictions, &test_y)?;
            groups.push(GroupPrediction {
                group_index: group.index,
                signature,
                tree,
                rmse: test_rmse,
                // Target range is [-1, 1] (§V-B: error rate over the range).
                error_rate: test_rmse / 2.0,
                train_samples: train_idx.len(),
                test_samples: test_idx.len(),
            });
            // Hand the train columns' capacity back for the next group.
            train_cols = train_x.into_columns();
        }
        let live_rmse = (live_matched > 0).then(|| live_total / live_matched as f64);
        Ok((PredictionReport { groups }, WarmPredictStats { live_rmse }))
    }

    fn validate_config(&self) -> Result<(), AnalysisError> {
        if !(0.0..1.0).contains(&(self.config.train_fraction - f64::EPSILON))
            || self.config.train_fraction <= 0.0
            || self.config.train_fraction >= 1.0
        {
            return Err(AnalysisError::InvalidConfig(format!(
                "train fraction {} must be in (0, 1)",
                self.config.train_fraction
            )));
        }
        if self.config.good_sample_ratio < 0.0 {
            return Err(AnalysisError::InvalidConfig(
                "good sample ratio must be non-negative".to_string(),
            ));
        }
        Ok(())
    }

    /// Resolves one group's target signature: its dominant form with either
    /// the configured fixed window or the median extracted window.
    fn group_signature(
        &self,
        group: &FailureGroup,
        degradation: &[GroupDegradation],
    ) -> Result<SignatureModel, AnalysisError> {
        let summary =
            degradation.iter().find(|g| g.group_index == group.index).ok_or_else(|| {
                AnalysisError::UnsuitableDataset(format!(
                    "missing degradation summary for group {}",
                    group.index + 1
                ))
            })?;
        let window = match &self.config.fixed_windows {
            Some(windows) => *windows.get(group.index).ok_or_else(|| {
                AnalysisError::InvalidConfig(format!(
                    "fixed_windows has no entry for group {}",
                    group.index + 1
                ))
            })?,
            None => median_window(&summary.windows),
        };
        Ok(SignatureModel::new(summary.dominant_form, window.max(1.0))?)
    }

    /// Assembles the §V-B labeled sample set for one group: every record of
    /// every group drive labeled by the signature value at its
    /// hours-before-failure (clamped to `[-1, 1]`), mixed with
    /// `good_sample_ratio ×` as many random good records labeled `1`.
    /// Failed rows come first, in drive/record order; good rows follow in
    /// draw order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnsuitableDataset`] when the group has no
    /// records at all.
    pub fn assemble_samples<R: rand::Rng + ?Sized>(
        &self,
        columns: &FleetColumns,
        group: &FailureGroup,
        signature: &SignatureModel,
        rng: &mut R,
    ) -> Result<(Vec<Vec<f64>>, Vec<f64>), AnalysisError> {
        let good_pool = columns.finite_good_pool();
        let mut samples = Samples::new(&good_pool);
        self.assemble(columns, group, signature, rng, &mut samples)?;
        Ok((samples.rows().map(|row| row.to_vec()).collect(), samples.labels().collect()))
    }

    /// Scores a *prior* (serving) model's per-group trees against the
    /// labeled sample sets of a freshly analyzed window — the "live
    /// RMSE" half of the RMSE drift channel. For every group of the new
    /// window's report whose paper-order index also exists in `prior`,
    /// the window's §V-B sample set (failed samples labeled by the new
    /// signature, 10× good samples labeled 1) is assembled with a
    /// deterministic RNG and pushed through the prior tree; the result
    /// is the mean RMSE over matched groups. Rows are normalized by the
    /// window's own scaler, so the number answers "how well would the
    /// serving trees label what the fleet looks like *now*" — the
    /// quantity drift compares against the artifact's training RMSE.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnsuitableDataset`] when no group index
    /// matches between the window and the prior model; propagates sample
    /// assembly errors.
    pub fn score_prior_rmse(
        &self,
        prior: &TrainedModel,
        dataset: &Dataset,
        report: &crate::pipeline::AnalysisReport,
    ) -> Result<f64, AnalysisError> {
        let _span = dds_obs::span!(dds_obs::Level::Debug, "predict.score_prior",);
        // Independent deterministic stream — must not perturb (or depend
        // on) the training draws.
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5C0E);
        let columns = FleetColumns::build(dataset, self.config.tree.parallelism);
        let good_pool = columns.finite_good_pool();
        let mut samples = Samples::new(&good_pool);
        let mut total = 0.0;
        let mut matched = 0usize;
        for group in report.categorization.groups() {
            let Some(artifact) = prior.groups.iter().find(|g| g.group_index == group.index) else {
                continue;
            };
            let Some(window_group) =
                report.prediction.groups.iter().find(|g| g.group_index == group.index)
            else {
                continue;
            };
            self.assemble(&columns, group, &window_group.signature, &mut rng, &mut samples)?;
            let rows: Vec<&[f64]> = samples.rows().map(|row| row.as_slice()).collect();
            let ys: Vec<f64> = samples.labels().collect();
            total += rmse(&artifact.tree.predict_batch_ref(&rows), &ys)?;
            matched += 1;
        }
        if matched == 0 {
            return Err(AnalysisError::UnsuitableDataset(
                "no prior group matches the refit window".to_string(),
            ));
        }
        Ok(total / matched as f64)
    }

    /// Fills `samples` with one group's §V-B sample set (see
    /// [`assemble_samples`](Self::assemble_samples)): every finite record
    /// of the group's drives, labeled by the group signature, then the
    /// good-row pool picks — `good_sample_ratio ×` as many, drawn with
    /// replacement. Good rows stay pool indices; nothing is copied.
    fn assemble<R: rand::Rng + ?Sized>(
        &self,
        columns: &FleetColumns,
        group: &FailureGroup,
        signature: &SignatureModel,
        rng: &mut R,
        samples: &mut Samples<'_>,
    ) -> Result<(), AnalysisError> {
        samples.failed.clear();
        samples.labels.clear();
        for &id in &group.drive_ids {
            let pos = columns.position(id).expect("group drives exist");
            let hours = columns.hours(pos);
            let last_hour = *hours.last().expect("profiles are non-empty");
            let attrs: [&[f64]; NUM_ATTRIBUTES] =
                std::array::from_fn(|a| columns.normalized_slice(a, pos));
            for (k, &hour) in hours.iter().enumerate() {
                let row: [f64; NUM_ATTRIBUTES] = std::array::from_fn(|a| attrs[a][k]);
                if row.iter().any(|v| !v.is_finite()) {
                    continue;
                }
                // Hours-before-failure by record *hour*, so profiles with
                // quarantined (missing) hours label each surviving sample
                // at its true distance to failure.
                let t = (last_hour - hour) as f64;
                samples.failed.push(row);
                samples.labels.push(signature.evaluate(t).clamp(-1.0, 1.0));
            }
        }
        if samples.failed.is_empty() {
            return Err(AnalysisError::UnsuitableDataset(format!(
                "group {} has no failed samples",
                group.index + 1
            )));
        }
        let pool_len = samples.pool.len();
        let n_good = ((samples.failed.len() as f64) * self.config.good_sample_ratio) as usize;
        samples.good_picks.clear();
        for _ in 0..n_good.min(pool_len.saturating_mul(4)) {
            let pick = rng.random_range(0..pool_len.max(1));
            if pick < pool_len {
                samples.good_picks.push(pick);
            }
        }
        Ok(())
    }
}

/// One group's §V-B sample set with the good rows kept lazily: sample `i`
/// is failed row `i` for `i < failed.len()`, else good-pool row
/// `good_picks[i - failed.len()]` labeled `1`. The buffers are reused from
/// group to group.
struct Samples<'p> {
    pool: &'p [[f64; NUM_ATTRIBUTES]],
    failed: Vec<[f64; NUM_ATTRIBUTES]>,
    labels: Vec<f64>,
    good_picks: Vec<usize>,
}

impl<'p> Samples<'p> {
    fn new(pool: &'p [[f64; NUM_ATTRIBUTES]]) -> Self {
        Samples { pool, failed: Vec::new(), labels: Vec::new(), good_picks: Vec::new() }
    }

    fn len(&self) -> usize {
        self.failed.len() + self.good_picks.len()
    }

    fn row(&self, i: usize) -> &[f64; NUM_ATTRIBUTES] {
        match i.checked_sub(self.failed.len()) {
            None => &self.failed[i],
            Some(g) => &self.pool[self.good_picks[g]],
        }
    }

    fn label(&self, i: usize) -> f64 {
        self.labels.get(i).copied().unwrap_or(1.0)
    }

    fn rows(&self) -> impl Iterator<Item = &[f64; NUM_ATTRIBUTES]> {
        self.failed.iter().chain(self.good_picks.iter().map(|&g| &self.pool[g]))
    }

    fn labels(&self) -> impl Iterator<Item = f64> + '_ {
        self.labels.iter().copied().chain(std::iter::repeat_n(1.0, self.good_picks.len()))
    }
}

/// Thins the good rows of a train split to [`WARM_GOOD_TRAIN_RATIO`] × its
/// failed rows (sample indices `< n_failed`), writing the kept indices to
/// `kept`. Every failed row is kept. Keeping the first good survivors in
/// split order is already a uniform random subsample — the shuffle did the
/// randomizing — so no RNG draws are consumed.
fn thin_good_rows(train_idx: &[usize], n_failed: usize, kept: &mut Vec<usize>) {
    let failed_train = train_idx.iter().filter(|&&i| i < n_failed).count();
    let good_cap = ((failed_train as f64) * WARM_GOOD_TRAIN_RATIO).ceil() as usize;
    let mut good_kept = 0usize;
    kept.clear();
    for &i in train_idx {
        if i < n_failed {
            kept.push(i);
        } else if good_kept < good_cap {
            good_kept += 1;
            kept.push(i);
        }
    }
}

fn median_window(windows: &[usize]) -> f64 {
    if windows.is_empty() {
        return 1.0;
    }
    let mut sorted = windows.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2] as f64
}

// ---------------------------------------------------------------------------
// Baseline detectors (§II-C)
// ---------------------------------------------------------------------------

/// Outcome of a whole-disk failure detector: failure-detection rate over
/// failed drives and false-alarm rate over good drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorOutcome {
    /// Fraction of failed drives flagged (FDR).
    pub detection_rate: f64,
    /// Fraction of good drives flagged (FAR).
    pub false_alarm_rate: f64,
    /// Absolute number of flagged failed drives.
    pub flagged_failed: usize,
    /// Absolute number of flagged good drives.
    pub flagged_good: usize,
}

/// The conservative vendor threshold policy: a drive is flagged when any
/// health value drops below its attribute threshold. Manufacturers set
/// these low on purpose — "to keep the FAR to a minimum at the expense of
/// FDR" (§II-C).
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdPolicy {
    /// `(attribute, minimum healthy value)` pairs.
    pub thresholds: Vec<(Attribute, f64)>,
}

impl ThresholdPolicy {
    /// The conservative vendor-style defaults.
    pub fn vendor_conservative() -> Self {
        ThresholdPolicy {
            thresholds: vec![
                (Attribute::ReallocatedSectors, 3.0),
                (Attribute::ReportedUncorrectable, 36.0),
                (Attribute::CurrentPendingSectors, 30.0),
                (Attribute::RawReadErrorRate, 40.0),
                (Attribute::SeekErrorRate, 40.0),
            ],
        }
    }
}

/// Runs the threshold detector over every drive.
pub fn threshold_detector(dataset: &Dataset, policy: &ThresholdPolicy) -> DetectorOutcome {
    let flag = |drive: &dds_smartsim::DriveProfile| -> bool {
        drive
            .records()
            .iter()
            .any(|r| policy.thresholds.iter().any(|&(attr, min)| r.value(attr) < min))
    };
    let flagged_failed = dataset.failed_drives().filter(|d| flag(d)).count();
    let flagged_good = dataset.good_drives().filter(|d| flag(d)).count();
    let failed_total = dataset.failed_drives().count().max(1);
    let good_total = dataset.good_drives().count().max(1);
    DetectorOutcome {
        detection_rate: flagged_failed as f64 / failed_total as f64,
        false_alarm_rate: flagged_good as f64 / good_total as f64,
        flagged_failed,
        flagged_good,
    }
}

/// Configuration for the rank-sum baseline detector.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSumConfig {
    /// Attributes tested (OR-ed via a max-|z| score, as in Hughes et al.).
    pub attributes: Vec<Attribute>,
    /// Target false-alarm rate the critical value is calibrated to
    /// (Hughes et al. operate at 0.5%).
    pub target_far: f64,
    /// Trailing window per drive (hours).
    pub window_hours: usize,
    /// Size of the good reference sample per attribute.
    pub reference_samples: usize,
    /// RNG seed for reference sampling.
    pub seed: u64,
}

impl Default for RankSumConfig {
    fn default() -> Self {
        RankSumConfig {
            // Counter attributes: the vendor "rate" health values have
            // per-drive baselines that would dominate pooled rank
            // comparisons.
            attributes: vec![
                Attribute::ReportedUncorrectable,
                Attribute::RawReallocatedSectors,
                Attribute::CurrentPendingSectors,
            ],
            target_far: 0.005,
            window_hours: 24,
            reference_samples: 256,
            seed: 0x4A4B,
        }
    }
}

/// Runs the Wilcoxon rank-sum detector (§II-C, Hughes et al.): every drive
/// gets a score — the largest |z| of the rank-sum tests of its trailing
/// window against a good reference sample, over the monitored attributes —
/// and the critical value is *calibrated on the good population* so the
/// false-alarm rate hits `target_far`, mirroring how the original work
/// tuned for 0.5% FAR.
///
/// # Errors
///
/// Returns [`AnalysisError::UnsuitableDataset`] when there are no good
/// records to build a reference from.
pub fn rank_sum_detector(
    dataset: &Dataset,
    config: &RankSumConfig,
) -> Result<DetectorOutcome, AnalysisError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Reference sample per attribute from random good records.
    let good_records: Vec<&dds_smartsim::HealthRecord> =
        dataset.good_drives().flat_map(|d| d.records().iter()).collect();
    if good_records.is_empty() {
        return Err(AnalysisError::UnsuitableDataset(
            "rank-sum detector needs good drives".to_string(),
        ));
    }
    let mut references: Vec<(Attribute, Vec<f64>)> = Vec::new();
    for &attr in &config.attributes {
        let sample: Vec<f64> = (0..config.reference_samples.max(8))
            .map(|_| good_records[rng.random_range(0..good_records.len())].value(attr))
            .collect();
        references.push((attr, sample));
    }

    let score = |drive: &dds_smartsim::DriveProfile| -> f64 {
        let n = drive.records().len();
        let start = n.saturating_sub(config.window_hours.max(1));
        references
            .iter()
            .map(|(attr, reference)| {
                let window: Vec<f64> =
                    drive.records()[start..].iter().map(|r| r.value(*attr)).collect();
                rank_sum_test(&window, reference).map(|r| r.z.abs()).unwrap_or(0.0)
            })
            .fold(0.0, f64::max)
    };

    // Calibrate the critical value on the good population.
    let mut good_scores: Vec<f64> = dataset.good_drives().map(score).collect();
    good_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let far = config.target_far.clamp(0.0, 1.0);
    let rank = ((good_scores.len() as f64) * (1.0 - far)).ceil() as usize;
    let critical =
        good_scores.get(rank.min(good_scores.len() - 1)).copied().unwrap_or(f64::INFINITY);

    let flagged_failed = dataset.failed_drives().filter(|d| score(d) > critical).count();
    let flagged_good = good_scores.iter().filter(|&&s| s > critical).count();
    let failed_total = dataset.failed_drives().count().max(1);
    let good_total = dataset.good_drives().count().max(1);
    Ok(DetectorOutcome {
        detection_rate: flagged_failed as f64 / failed_total as f64,
        false_alarm_rate: flagged_good as f64 / good_total as f64,
        flagged_failed,
        flagged_good,
    })
}

/// Configuration for the Mahalanobis-distance baseline detector
/// (Wang et al., §II-C reference \[26\]).
#[derive(Debug, Clone, PartialEq)]
pub struct MahalanobisConfig {
    /// Target false-alarm rate the critical value is calibrated to.
    pub target_far: f64,
    /// Trailing window per drive (hours); the drive's score is the mean
    /// Mahalanobis distance of the window's records from the good-population
    /// distribution.
    pub window_hours: usize,
    /// Ridge added to the covariance diagonal for invertibility.
    pub regularization: f64,
}

impl Default for MahalanobisConfig {
    fn default() -> Self {
        MahalanobisConfig { target_far: 0.005, window_hours: 24, regularization: 1e-6 }
    }
}

/// Runs the Mahalanobis online anomaly detector: fit the good population's
/// mean/covariance over the 12 attributes, score each drive by the mean
/// Mahalanobis distance of its trailing records, and calibrate the critical
/// value on the good population for the target FAR.
///
/// # Errors
///
/// Returns [`AnalysisError::UnsuitableDataset`] without good drives and
/// propagates covariance inversion failures.
pub fn mahalanobis_detector(
    dataset: &Dataset,
    config: &MahalanobisConfig,
) -> Result<DetectorOutcome, AnalysisError> {
    use dds_stats::correlation::covariance_matrix;
    use dds_stats::MahalanobisMetric;

    let good_rows: Vec<Vec<f64>> = dataset
        .good_drives()
        .flat_map(|d| d.records().iter().map(|r| dataset.normalize_record(r).to_vec()))
        .collect();
    if good_rows.is_empty() {
        return Err(AnalysisError::UnsuitableDataset(
            "mahalanobis detector needs good drives".to_string(),
        ));
    }
    let mut cov = covariance_matrix(&good_rows)?;
    for i in 0..cov.rows() {
        cov[(i, i)] += config.regularization.max(0.0);
    }
    let metric = MahalanobisMetric::new(&cov)?;
    let mut mean = vec![0.0f64; NUM_ATTRIBUTES];
    for row in &good_rows {
        for (m, v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= good_rows.len() as f64;
    }

    let score = |drive: &dds_smartsim::DriveProfile| -> f64 {
        let n = drive.records().len();
        let start = n.saturating_sub(config.window_hours.max(1));
        let window = &drive.records()[start..];
        let total: f64 = window
            .iter()
            .map(|r| {
                let row = dataset.normalize_record(r);
                metric.distance(&row, &mean).unwrap_or(0.0)
            })
            .sum();
        total / window.len().max(1) as f64
    };

    let mut good_scores: Vec<f64> = dataset.good_drives().map(score).collect();
    good_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let far = config.target_far.clamp(0.0, 1.0);
    let rank = ((good_scores.len() as f64) * (1.0 - far)).ceil() as usize;
    let critical =
        good_scores.get(rank.min(good_scores.len() - 1)).copied().unwrap_or(f64::INFINITY);

    let flagged_failed = dataset.failed_drives().filter(|d| score(d) > critical).count();
    let flagged_good = good_scores.iter().filter(|&&s| s > critical).count();
    Ok(DetectorOutcome {
        detection_rate: flagged_failed as f64 / dataset.failed_drives().count().max(1) as f64,
        false_alarm_rate: flagged_good as f64 / good_scores.len().max(1) as f64,
        flagged_failed,
        flagged_good,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{CategorizationConfig, Categorizer};
    use crate::degradation::DegradationAnalyzer;
    use crate::features::FailureRecordSet;
    use dds_smartsim::{FleetConfig, FleetSimulator};

    fn setup() -> (Dataset, FleetColumns, Categorization, Vec<GroupDegradation>) {
        let ds = FleetSimulator::new(FleetConfig::test_scale().with_seed(71)).run();
        let records = FailureRecordSet::extract(&ds, 24).unwrap();
        let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
            .categorize(&ds, &records)
            .unwrap();
        let columns = FleetColumns::build(&ds, dds_stats::Parallelism::Sequential);
        let deg = DegradationAnalyzer::default()
            .analyze_groups_columns(&columns, &records, &cat)
            .unwrap();
        (ds, columns, cat, deg)
    }

    #[test]
    fn trains_one_predictor_per_group_with_low_error() {
        let (_, columns, cat, deg) = setup();
        let report =
            DegradationPredictor::default().train_with_columns(&columns, &cat, &deg).unwrap();
        assert_eq!(report.groups.len(), 3);
        for g in &report.groups {
            assert!(g.rmse.is_finite());
            assert!(
                g.error_rate < 0.20,
                "group {} error rate {:.3} out of Table III range",
                g.group_index + 1,
                g.error_rate
            );
            assert!(g.train_samples > g.test_samples);
        }
    }

    #[test]
    fn paper_windows_override_is_used() {
        let (_, columns, cat, deg) = setup();
        let config =
            PredictionConfig { fixed_windows: Some(vec![12.0, 380.0, 24.0]), ..Default::default() };
        let report =
            DegradationPredictor::new(config).train_with_columns(&columns, &cat, &deg).unwrap();
        assert_eq!(report.groups[0].signature.window(), 12.0);
        assert_eq!(report.groups[1].signature.window(), 380.0);
        assert_eq!(report.groups[2].signature.window(), 24.0);
    }

    #[test]
    fn rendered_tree_uses_attribute_symbols() {
        let (_, columns, cat, deg) = setup();
        let report =
            DegradationPredictor::default().train_with_columns(&columns, &cat, &deg).unwrap();
        let text = report.groups[0].render_tree();
        assert!(text.contains('%'));
        // At least one SMART symbol appears in a split.
        let has_symbol = Attribute::ALL.iter().any(|a| text.contains(&format!("{} <", a.symbol())));
        assert!(has_symbol, "tree: {text}");
    }

    #[test]
    fn prediction_distinguishes_good_from_failing_records() {
        let (ds, columns, cat, deg) = setup();
        let report =
            DegradationPredictor::default().train_with_columns(&columns, &cat, &deg).unwrap();
        // Group 2 (bad sectors) failure records should predict near -1,
        // good records near +1.
        let g2 = &report.groups[1];
        let group = &cat.groups()[1];
        let failed_drive = ds.drive(group.centroid_drive).unwrap();
        let failure_record = ds.normalize_record(failed_drive.records().last().unwrap()).to_vec();
        let good_drive = ds.good_drives().next().unwrap();
        let good_record = ds.normalize_record(&good_drive.records()[0]).to_vec();
        assert!(g2.predict(&failure_record) < 0.0);
        assert!(g2.predict(&good_record) > 0.5);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (_, columns, cat, deg) = setup();
        let bad = PredictionConfig { train_fraction: 1.5, ..Default::default() };
        assert!(matches!(
            DegradationPredictor::new(bad).train_with_columns(&columns, &cat, &deg),
            Err(AnalysisError::InvalidConfig(_))
        ));
        let bad = PredictionConfig { good_sample_ratio: -1.0, ..Default::default() };
        assert!(DegradationPredictor::new(bad).train_with_columns(&columns, &cat, &deg).is_err());
    }

    #[test]
    fn threshold_detector_is_conservative() {
        let (ds, ..) = setup();
        let outcome = threshold_detector(&ds, &ThresholdPolicy::vendor_conservative());
        // Low FDR at near-zero FAR — the vendor trade-off of §II-C.
        assert!(outcome.detection_rate < 0.5, "FDR {}", outcome.detection_rate);
        assert!(outcome.false_alarm_rate < 0.02, "FAR {}", outcome.false_alarm_rate);
    }

    #[test]
    fn rank_sum_detector_beats_thresholds_on_detection() {
        let (ds, ..) = setup();
        let threshold = threshold_detector(&ds, &ThresholdPolicy::vendor_conservative());
        let rank = rank_sum_detector(&ds, &RankSumConfig::default()).unwrap();
        assert!(
            rank.detection_rate >= threshold.detection_rate,
            "rank-sum FDR {} vs threshold FDR {}",
            rank.detection_rate,
            threshold.detection_rate
        );
        assert!(rank.false_alarm_rate < 0.10, "FAR {}", rank.false_alarm_rate);
    }

    #[test]
    fn rank_sum_needs_good_drives() {
        let ds =
            FleetSimulator::new(FleetConfig::test_scale().with_good_drives(0).with_seed(71)).run();
        assert!(rank_sum_detector(&ds, &RankSumConfig::default()).is_err());
    }

    #[test]
    fn mahalanobis_detector_calibrates_far() {
        let (ds, ..) = setup();
        let outcome = mahalanobis_detector(&ds, &MahalanobisConfig::default()).unwrap();
        assert!(outcome.false_alarm_rate <= 0.05, "FAR {}", outcome.false_alarm_rate);
        // It must catch at least the obvious sector/head failures.
        assert!(outcome.detection_rate > 0.1, "FDR {}", outcome.detection_rate);
    }

    #[test]
    fn mahalanobis_detector_needs_good_drives() {
        let ds =
            FleetSimulator::new(FleetConfig::test_scale().with_good_drives(0).with_seed(71)).run();
        assert!(mahalanobis_detector(&ds, &MahalanobisConfig::default()).is_err());
    }
}
