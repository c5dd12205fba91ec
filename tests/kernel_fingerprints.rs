//! Kernel fingerprints: FNV-1a hashes of the exact f64 bits every
//! analysis kernel produces on seeded test-scale fleets.
//!
//! Each kernel has one implementation; the row-major entry points
//! (`RegressionTree::fit`, `DegradationAnalyzer::analyze_groups`,
//! `all_attribute_z_scores`) are thin adapters that transpose into it.
//! These pins define "same behaviour" for the kernels and their adapters
//! alike: a refactor that moves a single bit of a tree node, window,
//! z-score cell, RMSE or artifact byte fails here with the seed and the
//! kernel named. Re-pinning is a behaviour change and needs a CHANGES.md
//! entry saying what moved and why (see `tests/README.md`).

use dds::prelude::*;
use dds_cluster::{Svc, SvcConfig};
use dds_core::categorize::{Categorization, CategorizationConfig, Categorizer};
use dds_core::columnar::FleetColumns;
use dds_core::degradation::{DegradationAnalyzer, DriveDegradation, GroupDegradation};
use dds_core::features::FailureRecordSet;
use dds_core::predict::{DegradationPredictor, PredictionReport};
use dds_core::zscore::{
    all_attribute_z_scores, all_attribute_z_scores_columns, TemporalZScores, ZScoreConfig,
};
use dds_core::OnlineTrainer;
use dds_regtree::{NodeSpec, RegressionTree, TreeConfig};
use dds_smartsim::stream::hour_ordered;
use dds_smartsim::StreamingFleet;
use dds_stats::{ColMatrix, Parallelism};

/// Every kernel is pinned on these seeds: the columnar suite's fleets and
/// the online-learning suite's streams.
const SEEDS: [u64; 6] = [11, 4242, 987_654_321, 7, 23, 1051];

/// 64-bit FNV-1a over little-endian words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    fn form(&mut self, form: SignatureForm) {
        self.usize(SignatureForm::ALL.iter().position(|&f| f == form).expect("known form"));
    }

    fn signature(&mut self, model: &SignatureModel) {
        self.form(model.form());
        self.f64(model.window());
    }

    fn tree(&mut self, tree: &RegressionTree) {
        let nodes = tree.nodes();
        self.usize(nodes.len());
        for node in nodes {
            match node {
                NodeSpec::Leaf { value, samples } => {
                    self.u64(0);
                    self.f64(value);
                    self.usize(samples);
                }
                NodeSpec::Split { feature, threshold, value, samples, left, right } => {
                    self.u64(1);
                    self.usize(feature);
                    self.f64(threshold);
                    self.f64(value);
                    self.usize(samples);
                    self.usize(left);
                    self.usize(right);
                }
            }
        }
        self.f64s(tree.feature_importances());
    }

    fn prediction(&mut self, report: &PredictionReport) {
        self.usize(report.groups.len());
        for g in &report.groups {
            self.usize(g.group_index);
            self.signature(&g.signature);
            self.tree(&g.tree);
            self.f64(g.rmse);
            self.f64(g.error_rate);
            self.usize(g.train_samples);
            self.usize(g.test_samples);
        }
    }

    fn drive(&mut self, d: &DriveDegradation) {
        self.u64(u64::from(d.drive_id.0));
        self.f64s(&d.distances);
        self.usize(d.window_hours);
        self.f64s(&d.times);
        self.f64s(&d.degradation);
        self.signature(&d.best_model);
        self.f64(d.best_rmse);
        for &(form, rmse) in &d.model_rmse {
            self.form(form);
            self.f64(rmse);
        }
        for fit in &d.poly_fits {
            self.usize(fit.order);
            self.f64s(&fit.coefficients);
            self.f64(fit.r_squared);
            self.f64(fit.rmse);
        }
    }

    fn degradation(&mut self, groups: &[GroupDegradation]) {
        self.usize(groups.len());
        for g in groups {
            self.usize(g.group_index);
            self.usize(g.window_stats.0);
            self.f64(g.window_stats.1);
            self.usize(g.window_stats.2);
            self.form(g.dominant_form);
            for &(form, votes) in &g.form_votes {
                self.form(form);
                self.usize(votes);
            }
            for &(form, rmse) in &g.mean_rmse_by_form {
                self.form(form);
                self.f64(rmse);
            }
            self.usize(g.windows.len());
            for &w in &g.windows {
                self.usize(w);
            }
            self.drive(&g.centroid);
        }
    }

    fn z_scores(&mut self, sweeps: &[TemporalZScores]) {
        self.usize(sweeps.len());
        for z in sweeps {
            self.usize(z.attribute.index());
            self.usize(z.times.len());
            for &t in &z.times {
                self.usize(t);
            }
            for series in &z.by_group {
                self.usize(series.len());
                for cell in series {
                    match cell {
                        None => self.u64(0),
                        Some(v) => {
                            self.u64(1);
                            self.f64(*v);
                        }
                    }
                }
            }
        }
    }
}

fn hash(f: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    f(&mut h);
    h.0
}

/// Looks up the pinned hash for `seed` and compares.
fn check(kernel: &str, pins: &[(u64, u64)], seed: u64, got: u64) {
    let expected = pins.iter().find(|&&(s, _)| s == seed).map(|&(_, h)| h);
    assert_eq!(
        Some(got),
        expected,
        "{kernel}, seed {seed}: fingerprint {got:#018x} does not match the pin"
    );
}

fn analysis_config() -> AnalysisConfig {
    AnalysisConfig {
        categorization: CategorizationConfig { run_svc: false, ..Default::default() },
        ..Default::default()
    }
}

fn ctx(seed: u64) -> TrainingContext {
    TrainingContext { seed, scale: "test".to_string(), git_sha: String::new() }
}

fn stamped_bytes(mut model: TrainedModel) -> Vec<u8> {
    model.meta.created_unix = 0;
    model.to_bytes().expect("model serializes")
}

fn fleet(seed: u64) -> Dataset {
    FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run()
}

/// Two consecutive epochs of one streamed fleet.
fn epochs(seed: u64) -> (Dataset, Dataset) {
    let mut stream = StreamingFleet::new(FleetConfig::test_scale().with_seed(seed));
    let first = stream.next_epoch();
    let second = stream.next_epoch();
    (first, second)
}

/// Everything the predict stage consumes, built the way the pipeline
/// builds it.
struct Stages {
    dataset: Dataset,
    records: FailureRecordSet,
    categorization: Categorization,
    columns: FleetColumns,
    degradation: Vec<GroupDegradation>,
}

fn stages(dataset: Dataset) -> Stages {
    let records = FailureRecordSet::extract(&dataset, 24).expect("failure records");
    let categorization =
        Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
            .categorize(&dataset, &records)
            .expect("categorization");
    let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
    let degradation = DegradationAnalyzer::default()
        .analyze_groups_columns(&columns, &records, &categorization)
        .expect("degradation");
    Stages { dataset, records, categorization, columns, degradation }
}

const COLD_TRAIN_PINS: [(u64, u64); 6] = [
    (11, 0x4aef_e4a3_0e8e_eecc),
    (4242, 0xdce5_99b9_2a49_a2e2),
    (987_654_321, 0x266b_16fb_5ec6_2179),
    (7, 0x1f0f_eb8c_ecf4_15d0),
    (23, 0x5b27_64a1_a038_24bc),
    (1051, 0x02e2_2885_cd2f_473a),
];

#[test]
fn cold_trainer_outputs_are_pinned() {
    for seed in SEEDS {
        let s = stages(fleet(seed));
        let report = DegradationPredictor::default()
            .train_with_columns(&s.columns, &s.categorization, &s.degradation)
            .expect("cold training");
        check("train_with_columns", &COLD_TRAIN_PINS, seed, hash(|h| h.prediction(&report)));
    }
}

const WARM_TRAIN_PINS: [(u64, u64); 6] = [
    (11, 0x1d11_61cc_c0a4_e9bf),
    (4242, 0xa0c2_e0dc_b0ad_cd1e),
    (987_654_321, 0xf281_b473_97c9_950c),
    (7, 0x3e9c_0147_573d_3ca9),
    (23, 0x94ef_08a4_6283_4350),
    (1051, 0x8a70_9a24_5672_4c96),
];

#[test]
fn warm_trainer_outputs_and_live_rmse_are_pinned() {
    for seed in SEEDS {
        let (first, second) = epochs(seed);
        let (_, prior) = Analysis::new(analysis_config()).train(&first, &ctx(seed)).expect("prior");
        let s = stages(second);
        let (report, stats) = DegradationPredictor::default()
            .train_with_columns_warm(&s.columns, &s.categorization, &s.degradation, &prior)
            .expect("warm training");
        let live = stats.live_rmse.expect("the prior's groups match the window");
        let got = hash(|h| {
            h.prediction(&report);
            h.f64(live);
        });
        check("train_with_columns_warm", &WARM_TRAIN_PINS, seed, got);
    }
}

const DEGRADATION_PINS: [(u64, u64); 6] = [
    (11, 0xbb90_4327_e1b3_f0eb),
    (4242, 0x3ef3_c145_4c87_2abb),
    (987_654_321, 0x1f00_9d45_9424_cc01),
    (7, 0x4837_4bc7_e49a_ed60),
    (23, 0xa251_ef80_277d_0fc0),
    (1051, 0x5549_0d9c_9e36_80c4),
];

#[test]
fn group_degradation_is_pinned_for_kernel_and_adapter() {
    for seed in SEEDS {
        let s = stages(fleet(seed));
        check(
            "analyze_groups_columns",
            &DEGRADATION_PINS,
            seed,
            hash(|h| h.degradation(&s.degradation)),
        );
        let adapter = DegradationAnalyzer::default()
            .analyze_groups(&s.dataset, &s.records, &s.categorization)
            .expect("adapter");
        check("analyze_groups", &DEGRADATION_PINS, seed, hash(|h| h.degradation(&adapter)));
    }
}

const ZSCORE_PINS: [(u64, u64); 6] = [
    (11, 0x824e_aec4_6083_282c),
    (4242, 0x2197_9902_b3b7_9a55),
    (987_654_321, 0x65b9_0f2a_cbfb_0ac4),
    (7, 0x3ef4_aea7_7219_de47),
    (23, 0x9745_b65a_69b9_222a),
    (1051, 0xf322_3c81_4e3b_4e68),
];

#[test]
fn z_score_sweep_is_pinned_for_kernel_and_adapter() {
    let config = ZScoreConfig::default();
    for seed in SEEDS {
        let s = stages(fleet(seed));
        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let sweeps = all_attribute_z_scores_columns(
                &s.columns,
                &s.records,
                &s.categorization,
                &config,
                par,
            )
            .expect("sweep");
            check(
                "all_attribute_z_scores_columns",
                &ZSCORE_PINS,
                seed,
                hash(|h| h.z_scores(&sweeps)),
            );
        }
        let adapter = all_attribute_z_scores(&s.dataset, &s.records, &s.categorization, &config)
            .expect("adapter");
        check("all_attribute_z_scores", &ZSCORE_PINS, seed, hash(|h| h.z_scores(&adapter)));
    }
}

const TREE_PINS: [(u64, u64); 6] = [
    (11, 0x7386_629b_ff67_d4b8),
    (4242, 0x5aa1_c120_2455_e431),
    (987_654_321, 0x9dbb_6cd0_8722_3404),
    (7, 0x030c_1bc2_5a6c_e214),
    (23, 0x87e6_1102_c96b_b5e6),
    (1051, 0xbafd_4474_e850_83c4),
];

#[test]
fn tree_fits_on_fleet_samples_are_pinned_for_kernel_and_adapter() {
    // Every failed record, labeled by its distance from the failure hour:
    // the feature distribution the pipeline's predictors train on.
    for seed in SEEDS {
        let dataset = fleet(seed);
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for drive in dataset.failed_drives() {
            let last = drive.records().last().expect("non-empty").hour;
            for record in drive.records() {
                xs.push(dataset.normalize_record(record).to_vec());
                ys.push(-((last - record.hour) as f64) / 480.0);
            }
        }
        let matrix = ColMatrix::from_rows(&xs).expect("matrix");
        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let config = TreeConfig::default().with_parallelism(par);
            let tree = RegressionTree::fit_columns(&matrix, &ys, &config).expect("fit_columns");
            check("fit_columns", &TREE_PINS, seed, hash(|h| h.tree(&tree)));
        }
        let adapter = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).expect("fit");
        check("fit", &TREE_PINS, seed, hash(|h| h.tree(&adapter)));
    }
}

const TRAIN_ARTIFACT_PINS: [(u64, u64); 6] = [
    (11, 0xa3e4_1e27_43da_0f98),
    (4242, 0x44c5_159c_9311_136b),
    (987_654_321, 0x8090_e624_3d9b_22d7),
    (7, 0x8d04_a633_9f75_4869),
    (23, 0x3eeb_2d01_ce41_6370),
    (1051, 0x813e_81b7_791a_c247),
];
const REFIT_ARTIFACT_PINS: [(u64, u64); 6] = [
    (11, 0x3f85_3c9e_cd15_6a0f),
    (4242, 0xfa8e_6bab_3db5_287e),
    (987_654_321, 0x7081_577e_d1c6_3f01),
    (7, 0xaae9_84ca_a059_d3b8),
    (23, 0x5579_3a9a_16e6_04c2),
    (1051, 0xf9ac_88dd_6e67_d4a1),
];

#[test]
fn trained_and_refit_artifacts_are_pinned() {
    for seed in SEEDS {
        let (first, second) = epochs(seed);
        let analysis = Analysis::new(analysis_config());
        let (_, prior) = analysis.train(&first, &ctx(seed)).expect("prior");
        let bytes = stamped_bytes(prior.clone());
        check("Analysis::train", &TRAIN_ARTIFACT_PINS, seed, hash(|h| h.bytes(&bytes)));

        let mut trainer = OnlineTrainer::new(analysis_config());
        trainer.begin_epoch(&second);
        trainer.observe_batch(&hour_ordered(&second));
        let outcome = trainer.refit_with(&ctx(seed), Some(&prior)).expect("refit");
        let live = outcome.live_rmse.expect("a prior unlocks the live RMSE channel");
        let bytes = stamped_bytes(outcome.model);
        let got = hash(|h| {
            h.bytes(&bytes);
            h.f64(live);
        });
        check("OnlineTrainer::refit_with", &REFIT_ARTIFACT_PINS, seed, got);
    }
}

/// Exact bits of the fallback live-RMSE channel on seed 7.
const SCORE_PRIOR_BITS: u64 = 0x3fcf_e2fe_60f8_fcf1;

#[test]
fn fallback_live_rmse_is_pinned() {
    let seed = 7;
    let (first, second) = epochs(seed);
    let analysis = Analysis::new(analysis_config());
    let (_, prior) = analysis.train(&first, &ctx(seed)).expect("prior");
    let report = analysis.run(&second).expect("window analysis");
    let live = DegradationPredictor::default()
        .score_prior_rmse(&prior, &second, &report)
        .expect("scores the prior");
    assert_eq!(
        live.to_bits(),
        SCORE_PRIOR_BITS,
        "score_prior_rmse, seed {seed}: {live} ({:#018x}) does not match the pin",
        live.to_bits()
    );
}

/// The categorizer's SVC cross-check sweeps these multiples of the
/// data-driven base width.
const SVC_SWEEP: [f64; 7] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

const SVC_SWEEP_PINS: [(u64, u64); 6] = [
    (11, 0x7915_55a9_e196_5602),
    (4242, 0x69b1_d566_7bb9_f5f1),
    (987_654_321, 0x0ed2_f151_d09b_54e3),
    (7, 0xecfb_63f2_0d8c_9fa6),
    (23, 0x8115_e70d_4b01_1ce2),
    (1051, 0x62a0_2ec4_5816_e83c),
];

#[test]
fn svc_sweep_fits_are_pinned() {
    // The categorizer's inputs: the scaled failure features and its seed.
    let categorizer_seed = CategorizationConfig::default().seed;
    for seed in SEEDS {
        let dataset = fleet(seed);
        let records = FailureRecordSet::extract(&dataset, 24).expect("failure records");
        let points = records.scaled_features();
        let base = dds_cluster::svc::suggest_gamma(points).expect("base width");
        let got = hash(|h| {
            for factor in SVC_SWEEP {
                let svc = Svc::new(
                    SvcConfig::new().with_seed(categorizer_seed).with_gamma(base * factor),
                )
                .fit(points)
                .expect("svc fit");
                h.usize(svc.labels().len());
                for &label in svc.labels() {
                    h.usize(label);
                }
                h.usize(svc.num_clusters());
                h.f64(svc.radius_squared());
                h.f64(svc.gamma());
                h.usize(svc.support_vectors().len());
                for &i in svc.support_vectors() {
                    h.usize(i);
                }
            }
        });
        check("Svc::fit sweep", &SVC_SWEEP_PINS, seed, got);
    }
}

/// `(clusters, adjusted Rand index bits)` of the categorizer's SVC
/// agreement from a test-scale `Analysis::train` with SVC on.
const SVC_AGREEMENT_PINS: [(u64, (usize, u64)); 6] = [
    (11, (3, 0x3ff0_0000_0000_0000)),
    (4242, (3, 0x3fed_40fb_9b2c_2b7a)),
    (987_654_321, (5, 0x3fef_331b_5b9e_acff)),
    (7, (3, 0x3ff0_0000_0000_0000)),
    (23, (4, 0x3fef_e419_a6fd_ed49)),
    (1051, (3, 0x3ff0_0000_0000_0000)),
];

#[test]
fn svc_agreement_is_pinned() {
    let config = AnalysisConfig::default();
    assert!(config.categorization.run_svc, "SVC is on by default");
    for seed in SEEDS {
        let (report, _) =
            Analysis::new(config.clone()).train(&fleet(seed), &ctx(seed)).expect("train");
        let agreement = report.categorization.svc_agreement().expect("svc ran");
        let got = (agreement.svc_clusters, agreement.rand_index.to_bits());
        let expected = SVC_AGREEMENT_PINS.iter().find(|&&(s, _)| s == seed).map(|&(_, p)| p);
        assert_eq!(
            Some(got),
            expected,
            "svc_agreement, seed {seed}: ({}, {:#018x}) does not match the pin",
            got.0,
            got.1
        );
    }
}
