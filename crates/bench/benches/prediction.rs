//! Benchmarks of the §V-B prediction path: regression-tree training and
//! inference, plus the baseline detectors.
use criterion::{criterion_group, criterion_main, Criterion};
use dds_core::categorize::{CategorizationConfig, Categorizer};
use dds_core::columnar::FleetColumns;
use dds_core::degradation::DegradationAnalyzer;
use dds_core::features::FailureRecordSet;
use dds_core::knn::KnnRegressor;
use dds_core::predict::{
    mahalanobis_detector, rank_sum_detector, threshold_detector, DegradationPredictor,
    MahalanobisConfig, RankSumConfig, ThresholdPolicy,
};
use dds_smartsim::{FleetConfig, FleetSimulator};
use dds_stats::Parallelism;
use std::hint::black_box;

fn bench_prediction(c: &mut Criterion) {
    let dataset = FleetSimulator::new(FleetConfig::test_scale().with_seed(13)).run();
    let records = FailureRecordSet::extract(&dataset, 24).unwrap();
    let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
        .categorize(&dataset, &records)
        .unwrap();
    let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
    let degradation =
        DegradationAnalyzer::default().analyze_groups_columns(&columns, &records, &cat).unwrap();

    let mut group = c.benchmark_group("prediction");
    group.sample_size(10);
    // Tree training is deterministic across modes (index-ordered split
    // folds); the variants expose the parallel split search.
    for (mode_label, mode) in [("seq", Parallelism::Sequential), ("par", Parallelism::Auto)] {
        group.bench_function(&format!("train_three_group_trees/{mode_label}"), |b| {
            let mut config = dds_core::predict::PredictionConfig::default();
            config.tree.parallelism = mode;
            b.iter(|| {
                black_box(
                    DegradationPredictor::new(config.clone())
                        .train_with_columns(&columns, &cat, &degradation)
                        .unwrap(),
                )
            })
        });
    }
    let report =
        DegradationPredictor::default().train_with_columns(&columns, &cat, &degradation).unwrap();
    let record = dataset
        .normalize_record(dataset.failed_drives().next().unwrap().records().last().unwrap())
        .to_vec();
    group.bench_function("tree_inference", |b| {
        b.iter(|| black_box(report.groups[0].predict(&record)))
    });
    // Batch inference over every failed-drive record; the tree carries the
    // parallelism mode it was trained with.
    let batch: Vec<&[f64]> = vec![record.as_slice(); 8_192];
    for (mode_label, mode) in [("seq", Parallelism::Sequential), ("par", Parallelism::Auto)] {
        let mut config = dds_core::predict::PredictionConfig::default();
        config.tree.parallelism = mode;
        let trained = DegradationPredictor::new(config)
            .train_with_columns(&columns, &cat, &degradation)
            .unwrap();
        group.bench_function(&format!("tree_batch_inference_8k/{mode_label}"), |b| {
            b.iter(|| black_box(trained.groups[0].tree.predict_batch_ref(&batch)))
        });
    }
    group.bench_function("threshold_detector_fleet", |b| {
        b.iter(|| black_box(threshold_detector(&dataset, &ThresholdPolicy::vendor_conservative())))
    });
    group.bench_function("rank_sum_detector_fleet", |b| {
        b.iter(|| black_box(rank_sum_detector(&dataset, &RankSumConfig::default()).unwrap()))
    });
    group.bench_function("mahalanobis_detector_fleet", |b| {
        b.iter(|| black_box(mahalanobis_detector(&dataset, &MahalanobisConfig::default()).unwrap()))
    });
    // k-NN inference on a realistic training-set size.
    let train_x: Vec<Vec<f64>> = dataset
        .good_drives()
        .take(60)
        .flat_map(|d| d.records().iter().map(|r| dataset.normalize_record(r).to_vec()))
        .collect();
    let train_y: Vec<f64> = vec![1.0; train_x.len()];
    let knn = KnnRegressor::fit(train_x, train_y, 5).unwrap();
    group.bench_function("knn5_inference_10k_rows", |b| {
        b.iter(|| black_box(knn.predict(&record).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_prediction);
criterion_main!(benches);
