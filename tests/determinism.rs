//! Reproducibility: identical seeds give bit-identical datasets and
//! analysis results; different seeds change the data but not the paper's
//! qualitative conclusions.

use dds::prelude::*;

#[test]
fn same_seed_same_dataset() {
    let a = FleetSimulator::new(FleetConfig::test_scale().with_seed(5)).run();
    let b = FleetSimulator::new(FleetConfig::test_scale().with_seed(5)).run();
    assert_eq!(a.num_records(), b.num_records());
    for (da, db) in a.drives().iter().zip(b.drives()) {
        assert_eq!(da.records(), db.records());
        assert_eq!(da.label(), db.label());
    }
}

#[test]
fn same_seed_same_analysis() {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(6)).run();
    let r1 = Analysis::new(AnalysisConfig::default()).run(&dataset).unwrap();
    let r2 = Analysis::new(AnalysisConfig::default()).run(&dataset).unwrap();
    assert_eq!(r1.categorization.assignments(), r2.categorization.assignments());
    for (a, b) in r1.prediction.groups.iter().zip(&r2.prediction.groups) {
        assert_eq!(a.rmse, b.rmse);
    }
    for (a, b) in r1.degradation.iter().zip(&r2.degradation) {
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.dominant_form, b.dominant_form);
    }
}

#[test]
fn different_seed_different_data_same_conclusions() {
    for seed in [11u64, 22, 33] {
        let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run();
        let report = Analysis::new(AnalysisConfig::default()).run(&dataset).unwrap();
        assert_eq!(
            report.categorization.num_groups(),
            3,
            "seed {seed}: elbow {:?}",
            report.categorization.elbow()
        );
        // The linear form must dominate Group 2 for every seed.
        assert_eq!(
            report.degradation[1].dominant_form,
            dds_stats::SignatureForm::Linear,
            "seed {seed}"
        );
        // Group 1 stays near-quadratic, Group 3 higher-order than linear on
        // the centroid (per-drive votes can wobble at this tiny scale).
        assert!(report.degradation[0].dominant_form.order() >= 2, "seed {seed}");
    }
}

#[test]
fn save_load_predict_equals_train_predict() {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(6)).run();
    let ctx = TrainingContext { seed: 6, scale: "test".to_string(), git_sha: String::new() };
    let (_, model) = Analysis::new(AnalysisConfig::default()).train(&dataset, &ctx).unwrap();
    let reloaded = TrainedModel::from_bytes(&model.to_bytes().unwrap()).unwrap();
    assert_eq!(reloaded, model, "codec round-trip must be lossless");

    // The warm bundle scores a live fleet bit-identically to the cold one.
    let live = FleetSimulator::new(FleetConfig::test_scale().with_seed(7)).run();
    let cold = ModelBundle::from_trained(&model).unwrap();
    let warm = ModelBundle::from_trained(&reloaded).unwrap();
    for drive in live.drives() {
        for record in drive.records() {
            let n_cold = cold.normalize(record);
            let n_warm = warm.normalize(record);
            assert_eq!(n_cold.map(f64::to_bits), n_warm.map(f64::to_bits));
            let p_cold = cold.worst_prediction(&n_cold);
            let p_warm = warm.worst_prediction(&n_warm);
            assert_eq!(
                p_cold.map(|(g, v)| (g, v.to_bits())),
                p_warm.map(|(g, v)| (g, v.to_bits()))
            );
        }
    }
}

#[test]
fn mode_mix_is_exactly_reproducible() {
    // The largest-remainder allocation is deterministic, so the group
    // counts never drift between runs.
    let counts = FleetConfig::bench_scale().mode_counts();
    assert_eq!(counts, [258, 33, 142]); // the paper's exact Table II sizes
    let counts = FleetConfig::test_scale().with_failed_drives(60).mode_counts();
    assert_eq!(counts.iter().sum::<u32>(), 60);
}
