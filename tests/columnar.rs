//! Property tests of the columnar (SoA) layout: the column store is a
//! lossless transpose of the record-major [`Dataset`], and the per-drive
//! and per-attribute kernels — degradation windows and temporal z-scores —
//! are *bit-identical* to their row-gather references on seeded random
//! fleets. The fleet-wide kernels (group degradation, the full z-score
//! sweep, tree fits, the trained predictors) have one implementation each;
//! `tests/kernel_fingerprints.rs` pins their outputs and checks the
//! row-major adapters against the same pins.

use dds::prelude::*;
use dds_core::categorize::{Categorization, CategorizationConfig, Categorizer};
use dds_core::columnar::FleetColumns;
use dds_core::degradation::DegradationAnalyzer;
use dds_core::features::FailureRecordSet;
use dds_core::zscore::{temporal_z_scores, temporal_z_scores_columns, ZScoreConfig};
use dds_smartsim::NUM_ATTRIBUTES;
use dds_stats::{ColMatrix, Parallelism};

const SEEDS: [u64; 3] = [11, 4242, 987_654_321];

fn fleet(seed: u64) -> Dataset {
    FleetSimulator::new(FleetConfig::test_scale().with_seed(seed)).run()
}

fn categorize(dataset: &Dataset) -> (FailureRecordSet, Categorization) {
    let records = FailureRecordSet::extract(dataset, 24).expect("failure records");
    let cat = Categorizer::new(CategorizationConfig { run_svc: false, ..Default::default() })
        .categorize(dataset, &records)
        .expect("categorization");
    (records, cat)
}

#[test]
fn column_store_round_trips_every_record() {
    for seed in SEEDS {
        let dataset = fleet(seed);
        let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
        assert_eq!(columns.num_drives(), dataset.drives().len());
        assert_eq!(columns.num_rows(), dataset.num_records());
        for (pos, drive) in dataset.drives().iter().enumerate() {
            // column -> record: rebuilt records equal the originals (hour
            // and all 12 raw values; f64 equality is exact because the
            // transpose only moves bits).
            assert_eq!(columns.rebuild_records(pos), drive.records(), "seed {seed} drive {pos}");
            // record -> column: normalized columns equal the Eq. (1)
            // normalization of each record, bit for bit.
            for (i, record) in drive.records().iter().enumerate() {
                let normalized = dataset.normalize_record(record);
                for (a, expected) in normalized.iter().enumerate() {
                    assert_eq!(
                        columns.normalized_slice(a, pos)[i].to_bits(),
                        expected.to_bits(),
                        "seed {seed} drive {pos} record {i} attr {a}"
                    );
                }
            }
        }
        // And the round trip survives a second transpose: rebuilding a
        // dataset-shaped row matrix from columns and re-transposing it
        // yields the same columns.
        let rows: Vec<Vec<f64>> = (0..columns.num_drives())
            .flat_map(|pos| columns.rebuild_records(pos).into_iter().map(|r| r.values.to_vec()))
            .collect();
        let matrix = ColMatrix::from_rows(&rows).expect("transpose");
        for a in 0..NUM_ATTRIBUTES {
            assert_eq!(matrix.col(a), columns.raw_col(a), "seed {seed} attr {a}");
        }
    }
}

#[test]
fn degradation_kernel_is_bit_identical_across_layouts() {
    for seed in SEEDS {
        let dataset = fleet(seed);
        let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
        let analyzer = DegradationAnalyzer::default();
        for drive in dataset.failed_drives() {
            let aos = analyzer.analyze_drive(&dataset, drive).expect("aos");
            let pos = columns.position(drive.id()).expect("drive in columns");
            let soa = analyzer.analyze_drive_columns(&columns, pos).expect("soa");
            assert_eq!(aos.drive_id, soa.drive_id);
            assert_eq!(aos.window_hours, soa.window_hours, "seed {seed} {:?}", drive.id());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&aos.distances), bits(&soa.distances));
            assert_eq!(bits(&aos.times), bits(&soa.times));
            assert_eq!(bits(&aos.degradation), bits(&soa.degradation));
            assert_eq!(aos.best_model, soa.best_model);
            assert_eq!(aos.best_rmse.to_bits(), soa.best_rmse.to_bits());
            assert_eq!(aos.model_rmse.len(), soa.model_rmse.len());
            for ((fa, ra), (fb, rb)) in aos.model_rmse.iter().zip(&soa.model_rmse) {
                assert_eq!(fa, fb);
                assert_eq!(ra.to_bits(), rb.to_bits());
            }
        }
    }
}

#[test]
fn zscore_kernel_is_bit_identical_across_layouts() {
    for seed in SEEDS {
        let dataset = fleet(seed);
        let (records, cat) = categorize(&dataset);
        let columns = FleetColumns::build(&dataset, Parallelism::Sequential);
        let config = ZScoreConfig::default();
        for &attr in &[Attribute::TemperatureCelsius, Attribute::PowerOnHours] {
            let aos = temporal_z_scores(&dataset, &records, &cat, attr, &config).expect("aos");
            let soa =
                temporal_z_scores_columns(&columns, &records, &cat, attr, &config).expect("soa");
            assert_eq!(aos.times, soa.times);
            assert_eq!(aos.by_group.len(), soa.by_group.len());
            for (ga, gb) in aos.by_group.iter().zip(&soa.by_group) {
                let bits =
                    |s: &[Option<f64>]| s.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>();
                assert_eq!(bits(ga), bits(gb), "seed {seed} {attr:?}");
            }
        }
    }
}
